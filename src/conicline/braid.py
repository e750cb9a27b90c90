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

The action is computed on the freely reduced braid word (s_i s_i^-1 acts
trivially, so reducing the letters first changes nothing but the work),
through a constant table of per-letter generator images: each braid letter
replaces the letters of the affected generators by the stored image or
inverse-image letters, and the result is freely reduced once per braid
letter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Letter, Word, _reduce, gen

BELOW = "below"
ABOVE = "above"

BraidLetter = tuple[int, int]


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
    """A power of a half-twist under conjugation by full twists of other skeletons."""
    base: Skeleton
    power: int = 1
    conjugators: tuple[tuple[Skeleton, int], ...] = ()

    def __post_init__(self):
        if self.power == 0:
            raise ValueError("twist power must be nonzero")
        for skel, p in self.conjugators:
            if p % 2 != 0 or p == 0:
                raise ValueError(f"conjugator powers must be nonzero and even, got {p}")
        object.__setattr__(self, "conjugators", tuple(self.conjugators))

    def endpoints(self):
        return (self.base.i, self.base.j)


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

    def __mul__(self, other: "ArtinWord") -> "ArtinWord":
        if self.strand_count != other.strand_count:
            raise ValueError("strand counts differ")
        return ArtinWord(self.strand_count, self.letters + other.letters)

    def inverse(self) -> "ArtinWord":
        return ArtinWord(self.strand_count,
                         tuple((i, -s) for i, s in reversed(self.letters)))

    def __pow__(self, k: int) -> "ArtinWord":
        base = self if k >= 0 else self.inverse()
        return ArtinWord(self.strand_count, base.letters * abs(k))


def band_transport(s: Skeleton) -> tuple[tuple[BraidLetter, ...], int]:
    """Conjugating letters D and core index c with half-twist = D s_c D^-1."""
    sign = 1 if s.side == BELOW else -1
    conj = tuple((k, sign) for k in range(s.i, s.j - 1))
    return conj, s.j - 1


def compile_skeleton(s: Skeleton, n: int) -> ArtinWord:
    """The band-generator expansion of the half-twist along s in B_n."""
    if s.j > n:
        raise ValueError(f"skeleton endpoint {s.j} exceeds strand count {n}")
    conj, core = band_transport(s)
    inv = tuple((i, -sg) for i, sg in reversed(conj))
    return ArtinWord(n, conj + ((core, 1),) + inv)


def transport(t: ConjugatedTwist, n: int) -> tuple[ArtinWord, int]:
    """(e, c) with e = D^-1 V: the factor t is e^-1 s_c^power e, where
    D s_c D^-1 is the base's half-twist and V the product of the
    conjugators' full-twist powers, left to right."""
    if t.base.j > n:
        raise ValueError(f"skeleton endpoint {t.base.j} exceeds strand count {n}")
    d, core = band_transport(t.base)
    letters = [(i, -s) for i, s in reversed(d)]
    for skel, p in t.conjugators:
        band = compile_skeleton(skel, n)
        letters.extend((band if p > 0 else band.inverse()).letters * abs(p))
    return ArtinWord(n, tuple(letters)), core


def compile_factor(t: ConjugatedTwist, n: int) -> ArtinWord:
    """Compile base^power under conjugation a^b = b^-1 a b: e^-1 s_c^power e
    with (e, c) = transport(t, n), which is V^-1 base^power V."""
    e, core = transport(t, n)
    return e.inverse() * ArtinWord(n, ((core, 1),) * t.power) * e


class _ImageTable(dict):
    """(idx, sign) -> {label: (image letters, inverse-image letters)} for the
    two generators s_idx^sign moves. Each entry depends only on the letter,
    so the table is a constant of the action, filled in on first use."""

    def __missing__(self, key: BraidLetter):
        idx, sign = key
        xi, xj = f"x{idx}", f"x{idx + 1}"
        if sign > 0:
            images = {xi: ((xj, 1),), xj: ((xj, 1), (xi, 1), (xj, -1))}
        else:
            images = {xi: ((xi, -1), (xj, 1), (xi, 1)), xj: ((xi, 1),)}
        entry = {lab: (img, tuple((l, -s) for l, s in reversed(img)))
                 for lab, img in images.items()}
        self[key] = entry
        return entry


_IMAGES = _ImageTable()


def apply_braid(b: ArtinWord, w: Word) -> Word:
    """Act on a word over x1..xN, letters applied in written order."""
    letters = w.letters
    for key in _reduce(b.letters):
        images = _IMAGES[key]
        out: list[Letter] = []
        for letter in letters:
            img = images.get(letter[0])
            if img is None:
                out.append(letter)
            else:
                out.extend(img[0] if letter[1] > 0 else img[1])
        letters = _reduce(out)
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

