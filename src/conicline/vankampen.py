"""From a braid monodromy factorization to a raw fundamental-group
presentation: one relator per factor for the affine complement, and the same
relators plus the projective relation x_N x_{N-1} ... x_1 = e for the
projective one. The factor relators are built once per `BMF` object
(`BMF.relators`) and shared by both complements.

Every factor has the shape e^-1 s_c^k e with e = D^-1 V
(`braid.compile_factor`); the relation pair (A, B) is the pair of endpoint
loops x_c, x_{c+1} acted on by e (the direction the calibrated conventions
make come out in the source's own words; see the golden tests). D^-1 takes
them to the base's `braid.endpoint_loops`, (x_j acted on by H^-1, x_j) for
the base's half-twist H, and V, the conjugators' full twists (skeleton, p)
left to right, acts as one substitution step of H^p per conjugator, H the
skeleton's half-twist (`braid.twist`).
Branch points identify A = B, nodes commute them, tangencies impose
(AB)^2 = (BA)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .braid import endpoint_loops, twist
from .words import Word, commutator, eq, sq, word_text

if TYPE_CHECKING:  # catalog imports this module
    from .catalog import BMF, BMFactor


def cyclic_reduce(w: Word) -> Word:
    letters = w.letters
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
            and letters[0][1] == -letters[-1][1]:
        letters = letters[1:-1]
    return w if letters is w.letters else Word(letters)


@dataclass(frozen=True)
class Presentation:
    """Generator labels plus relators, with per-relator provenance."""
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    origins: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.origins:
            object.__setattr__(self, "origins", ("",) * len(self.relators))
        if len(self.origins) != len(self.relators):
            raise ValueError("origins must align with relators")
        labels = set(self.generators)
        if len(labels) != len(self.generators):
            raise ValueError("generator labels must be unique")
        reduced = tuple(cyclic_reduce(r) for r in self.relators)
        for r in reduced:
            stray = r.labels() - labels
            if stray:
                raise ValueError(f"relator uses unknown generators {stray}")
        object.__setattr__(self, "relators", reduced)


def presentation(labels, relators, origins=()) -> Presentation:
    return Presentation(tuple(labels), tuple(relators), tuple(origins))


def relation_pair(f: BMFactor, n: int, rename: dict[str, str]):
    """The transported endpoint loops (A, B) of a monodromy factor in B_n, as
    freely reduced letter tuples, with fiber generator x_k written
    rename[x_k]."""
    f.twist.check_strands(n)
    pair = endpoint_loops(f.twist.base)
    for skel, p in f.twist.conjugators:
        pair = tuple(twist(w, (skel.i, skel.j, skel.side, p)) for w in pair)
    return tuple(tuple((rename[l], s) for l, s in w) for w in pair)


RELATOR_SHAPES = {1: eq, 2: commutator, 4: sq}  # keyed by the factor's power


def projective_relator(labels: tuple[str, ...]) -> Word:
    """x_N x_{N-1} ... x_1, generators in descending fiber position."""
    return Word(tuple((lab, 1) for lab in reversed(labels)))


def factor_relators(b: BMF) -> tuple[tuple[Word, ...], tuple[str, ...]]:
    """One relator per factor of b, shaped by its power, and the factors'
    origins; `BMF.relators` keeps them on b."""
    rename = {f"x{k}": lab for k, lab in enumerate(b.labels, start=1)}
    return (tuple(RELATOR_SHAPES[f.twist.power](*relation_pair(f, b.strand_count, rename))
                  for f in b.factors),
            tuple(f.origin for f in b.factors))


def raw_presentation(b: BMF, projective: bool = False) -> Presentation:
    """The raw presentation of the affine complement of b's curve, or with
    `projective` of the projective one: b's labels as generators and one
    relator per factor, the projective presentation adding
    `projective_relator(b.labels)`, origin "projective", after them. Both
    read the factor relators from `b.relators`, built once per BMF object,
    so the second complement of one b costs no Artin action."""
    relators, origins = b.relators
    if projective:
        relators += (projective_relator(b.labels),)
        origins += ("projective",)
    return presentation(b.labels, relators, origins)


def presentation_text(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.generators)]
    lines += [word_text(r) for r in p.relators]
    return "\n".join(lines)


def presentation_to_json(p: Presentation) -> dict:
    """`index` is the 1-based position of the generator."""
    return {
        "generators": [{"label": lab, "index": k}
                       for k, lab in enumerate(p.generators, start=1)],
        "relators": [word_text(r) for r in p.relators],
        "origins": list(p.origins),
    }

