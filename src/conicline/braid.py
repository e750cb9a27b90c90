"""The braid group B_N: Artin words, half-twist bands, twists under conjugation, and
the action on the free group F_N = <x1, ..., xN>.

Convention (calibrated against the source computations, see the golden tests):

* sigma_i sends x_i -> x_{i+1} and x_{i+1} -> x_{i+1} x_i x_{i+1}^-1, fixing
  the others; a braid word acts letter by letter in written order. This
  action preserves the descending product x_N ... x_1, which is exactly the
  projective relation the van Kampen layer appends.
* The half-twist along the below-axis path z_{ij} compiles to
  (s_i s_{i+1} ... s_{j-2}) s_{j-1} (s_{j-2}^-1 ... s_i^-1); the above-axis
  path uses inverted conjugating letters. Adjacent endpoints give s_i alone.
* Conjugation is a^b = b^-1 a b; a conjugator list applies left to right
  (leftmost innermost), so (a)^{b c} = (a^b)^c.

The band word is the one definition of the half-twist; the action follows
from it. Only the Artin letter s_k^+-1 has written images (the first
bullet). A power H^p of the half-twist H along Skeleton(i, j, side) moves
at most j - i + 1 generators, and its images are those of its compiled
band word, acted out once per process and kept in a constant table. A
step is one `words.substitute` pass over the stored image and
inverse-image letters of the moved generators. `apply_braid` takes one
step per letter of the freely reduced braid word (s_i s_i^-1 acts
trivially, so reducing the letters first changes nothing but the work);
`vankampen.relation_pair` starts from a base's `endpoint_loops` and takes
one step of H^p per conjugator (skeleton, p), a full twist (p = +-2),
never the letters of the compiled band.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Letter, Word, _inverse, gen, substitute

BELOW = "below"
ABOVE = "above"

BraidLetter = tuple[int, int]
TwistKey = tuple[int, int, str, int]


@dataclass(frozen=True)
class Skeleton:
    """A basic path connecting fiber points i < j below or above the axis."""
    i: int
    j: int
    side: str = BELOW

    def __post_init__(self):
        if not (1 <= self.i < self.j):
            raise ValueError(f"skeleton endpoints must satisfy 1 <= i < j, got ({self.i}, {self.j})")
        if self.side not in (BELOW, ABOVE):
            raise ValueError(f"side must be {BELOW!r} or {ABOVE!r}, got {self.side!r}")


@dataclass(frozen=True)
class ConjugatedTwist:
    """A power of a half-twist under conjugation by full twists (half-twist
    powers +-2) of other skeletons."""
    base: Skeleton
    power: int = 1
    conjugators: tuple[tuple[Skeleton, int], ...] = ()

    def __post_init__(self):
        if self.power == 0:
            raise ValueError("twist power must be nonzero")
        for skel, p in self.conjugators:
            if p not in (2, -2):
                raise ValueError(f"conjugator powers must be 2 or -2 (a full twist), got {p}")
        object.__setattr__(self, "conjugators", tuple(self.conjugators))

    def endpoints(self):
        return (self.base.i, self.base.j)

    def check_strands(self, n: int) -> None:
        """Raise ValueError unless the base and every conjugator lie in B_n."""
        for skel in (self.base, *(s for s, _ in self.conjugators)):
            if skel.j > n:
                raise ValueError(f"skeleton endpoint {skel.j} exceeds strand count {n}")


@dataclass(frozen=True)
class ArtinWord:
    """A word in the Artin generators s_1 .. s_{N-1} of B_N."""
    strand_count: int
    letters: tuple[BraidLetter, ...] = ()

    def __post_init__(self):
        if self.strand_count < 1:
            raise ValueError("strand count must be >= 1")
        for idx, sign in self.letters:
            if not 1 <= idx <= self.strand_count - 1:
                raise ValueError(f"letter index {idx} out of range for B_{self.strand_count}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {sign}")


def band_transport(s: Skeleton) -> tuple[tuple[BraidLetter, ...], int]:
    """Conjugating letters D and core index c with half-twist = D s_c D^-1."""
    sign = 1 if s.side == BELOW else -1
    conj = tuple((k, sign) for k in range(s.i, s.j - 1))
    return conj, s.j - 1


def compile_skeleton(s: Skeleton, n: int) -> ArtinWord:
    """The band-generator expansion of the half-twist along s in B_n."""
    return compile_factor(ConjugatedTwist(s), n)


def compile_factor(t: ConjugatedTwist, n: int) -> ArtinWord:
    """Compile base^power under conjugation a^b = b^-1 a b as e^-1 s_c^power e
    = V^-1 base^power V, one letter tuple validated once: e = D^-1 V, with
    D s_c D^-1 the base's half-twist and V the conjugators' full-twist powers
    left to right, each band^p written as (D' s_c'^sign(p) D'^-1)^|p|, and
    s_c^power written as s_c^sign(power) repeated |power| times."""
    t.check_strands(n)
    d, core = band_transport(t.base)
    e = _inverse(d)
    for skel, p in t.conjugators:
        conj, c = band_transport(skel)
        e += (conj + ((c, 1 if p > 0 else -1),) + _inverse(conj)) * abs(p)
    cores = ((core, 1 if t.power > 0 else -1),) * abs(t.power)
    return ArtinWord(n, _inverse(e) + cores + e)


class _TwistTable(dict):
    """Key (i, j, side, power) -> {label: (image letters, inverse-image
    letters)} for the generators that H^power moves, H the half-twist along
    Skeleton(i, j, side). The Artin letter s_i^+-1 is the key
    (i, i + 1, BELOW, +-1) and the only one with written images; every
    other entry, s_i^+-2 included, is derived from the band word that
    `compile_factor` gives H^power, acting on x_i .. x_j through
    `apply_braid`, which reads only Artin-letter keys. Each entry depends
    only on its key, so the table is a constant of the action, filled in on
    first use. A band of width w stores O(w^2) letters, so the images hold
    one shared tuple per letter value (`letters`) rather than a copy per
    image."""

    letters: dict[Letter, Letter] = {}

    def __missing__(self, key: TwistKey):
        i, j, side, power = key
        if (j, side, abs(power)) == (i + 1, BELOW, 1):
            a, b = f"x{i}", f"x{j}"
            images = ({a: ((b, 1),), b: ((b, 1), (a, 1), (b, -1))} if power > 0
                      else {a: ((a, -1), (b, 1), (a, 1)), b: ((a, 1),)})
        else:
            band = compile_factor(ConjugatedTwist(Skeleton(i, j, side), power), j)
            images = {x: img for x in (f"x{k}" for k in range(i, j + 1))
                      if (img := apply_braid(band, gen(x)).letters) != ((x, 1),)}
        share = self.letters.setdefault
        entry = {lab: tuple(tuple(share(x, x) for x in word) for word in (img, _inverse(img)))
                 for lab, img in images.items()}
        self[key] = entry
        return entry


_TWISTS = _TwistTable()


def twist(letters, key: TwistKey) -> tuple[Letter, ...]:
    """One substitution step: the letters of a reduced word acted on by
    H^power, H the half-twist along Skeleton(i, j, side), for the key
    (i, j, side, power)."""
    return substitute(letters, _TWISTS[key])


def endpoint_loops(s: Skeleton) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    """(x_c, x_{c+1}) acted on by D^-1, where H = D s_c D^-1 is the half-twist
    along s: D fixes x_j = x_{c+1} and s_c^-1 sends it to x_c, so the pair
    is (x_j acted on by H^-1, x_j), on both sides of the axis."""
    xj = ((f"x{s.j}", 1),)
    return twist(xj, (s.i, s.j, s.side, -1)), xj


def apply_braid(b: ArtinWord, w: Word) -> Word:
    """Act on a word over x1..xN, letters applied in written order."""
    letters = w.letters
    for idx, sign in b.letters:
        letters = twist(letters, (idx, idx + 1, BELOW, sign))
    return Word(letters)


def artin_action(b: ArtinWord) -> dict[str, Word]:
    """The image of each generator x1..xN under b."""
    return {f"x{k}": apply_braid(b, gen(f"x{k}")) for k in range(1, b.strand_count + 1)}


def full_twist(n: int) -> ArtinWord:
    """Delta^2, the generator of the center of B_n: (s_1 ... s_{N-1})^N."""
    if n < 1:
        raise ValueError("strand count must be >= 1")
    round_ = tuple((i, 1) for i in range(1, n))
    return ArtinWord(n, round_ * n)


def exponent_sum(b: ArtinWord) -> int:
    return sum(sign for _, sign in b.letters)


def permutation(b: ArtinWord) -> tuple[int, ...]:
    """The induced permutation as the tuple of images of 1..N, letters
    composed in written order.

    `position[v]` is the point sent to v so far; s_idx exchanges the values
    idx and idx + 1, which swaps two entries of `position`."""
    position = list(range(b.strand_count + 1))
    for idx, _ in b.letters:
        position[idx], position[idx + 1] = position[idx + 1], position[idx]
    images = [0] * b.strand_count
    for value in range(1, b.strand_count + 1):
        images[position[value] - 1] = value
    return tuple(images)


def braid_text(b: ArtinWord) -> str:
    if not b.letters:
        return "1"
    return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in b.letters)

