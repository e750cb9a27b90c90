"""conicline: braid monodromy factorizations of tangent conic-line
arrangements, van Kampen presentations of their complements, and
verification tooling (audits, abelianization, homomorphism fingerprints,
bigness certificates)."""

from .words import (Generator, GroupMap, Word, apply_map, compose_maps,
                    conjugate, commutator, gen, invert, multiply, parse_word,
                    reduce, word, word_text)
from .braid import (ABOVE, BELOW, ArtinWord, ConjugatedTwist, Permutation,
                    Skeleton, artin_action, braid_text, compile_factor,
                    compile_skeleton, exponent_sum, full_twist, parse_braid,
                    permutation)
from .catalog import (BMF, BMFactor, SingType, audit, bmf_cn, bmf_from_json,
                      bmf_t00, bmf_t10, bmf_t11, bmf_t1m, bmf_t20, bmf_t21,
                      bmf_t22, bmf_tn0, bmf_tnm, bmf_to_json, expand_shorthand,
                      singularity_table_c1, singularity_table_c2)
from .vankampen import (Presentation, presentation, presentation_text,
                        raw_presentation, relation_pair, relator_equal_up_to_cyc,
                        relator_for)
from .fpgroup import (Fingerprint, SNFResult, abelianization, compare,
                      count_homs, fingerprint, smith_normal_form,
                      tietze_simplify)
from .paper_groups import (presentation_c1_affine, presentation_c1_proj,
                           presentation_c2_affine, presentation_c2_proj,
                           presentation_cn_affine, presentation_cn_proj,
                           presentation_t00, presentation_t10, presentation_t11,
                           presentation_t20, presentation_tn0, presentation_tnm)
from .bigness import (BignessCertificate, FPWord, certify, certify_certificate,
                      fp_parse, fp_text, nf, standard_certificate)

__version__ = "0.1.0"
