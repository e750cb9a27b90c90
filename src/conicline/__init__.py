"""conicline: braid monodromy factorizations of tangent conic-line
arrangements, van Kampen presentations of their complements, and
verification tooling (audits, abelianization, homomorphism fingerprints,
bigness certificates).

`Arrangement(family, n, m)` is the one way to name an arrangement; its
`bmf()`, `stated()` and `certificate()` give the factorization, the stated
presentation and the bigness certificate. The per-family builders and the
serializers stay in their modules (`catalog`, `paper_groups`, `vankampen`).
"""

from .words import Word, commutator, gen, invert, multiply, word_text
from .braid import (ABOVE, BELOW, ArtinWord, ConjugatedTwist, Skeleton,
                    artin_action, braid_text, compile_factor, compile_skeleton,
                    exponent_sum, full_twist, permutation)
from .catalog import BMF, BMFactor, audit
from .vankampen import Presentation, presentation, raw_presentation, relation_pair
from .fpgroup import (Fingerprint, SNFResult, abelianization, compare,
                      count_homs, fingerprint, smith_normal_form,
                      tietze_simplify)
from .bigness import BignessCertificate, FPWord, certify, certify_certificate, fp_text
from .arrangement import Arrangement

__version__ = "0.1.0"
