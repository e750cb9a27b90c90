"""Free-group words and endomorphisms given by generator images.

Words are kept freely reduced at all times: constructing a Word reduces its
letters (`_reduce`, the one free-cancellation loop of the library), and
every operation concatenates letters and constructs one Word, so equality
of Word values is equality in the free group. Letters are (label, sign)
pairs; generator identity is by label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Letter = tuple[str, int]


class MissingImageError(KeyError):
    """A word contains a generator the map has no image for."""


@dataclass(frozen=True, order=True)
class Generator:
    """A named free-group generator with a display/ordering index."""
    label: str
    index: int


def _reduce(letters) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for lab, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {sign}")
        if out and out[-1][0] == lab and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((lab, sign))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty word is the identity."""
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce(self.letters))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else invert(self)
        return multiply(*([base] * abs(k))) if k else Word()

    def __repr__(self):
        return f"Word({word_text(self)!r})"

    def labels(self) -> set[str]:
        return {lab for lab, _ in self.letters}


def gen(label: str) -> Word:
    return Word(((label, 1),))


def word(*items) -> Word:
    """Build a word from labels and (label, sign) pairs."""
    letters = []
    for it in items:
        if isinstance(it, str):
            letters.append((it, 1))
        else:
            letters.append(tuple(it))
    return Word(tuple(letters))


def multiply(*words: Word) -> Word:
    return Word(tuple(letter for w in words for letter in w.letters))


def invert(w: Word) -> Word:
    return Word(tuple((lab, -sign) for lab, sign in reversed(w.letters)))


def conjugate(a: Word, b: Word) -> Word:
    """a^b = b^-1 a b."""
    return multiply(invert(b), a, b)


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a b a^-1 b^-1, the node relator."""
    return multiply(a, b, invert(a), invert(b))


def sq(a: Word, b: Word) -> Word:
    """(ab)^2 ((ba)^2)^-1, the tangency relator."""
    ab, ba = multiply(a, b), multiply(b, a)
    return multiply(ab, ab, invert(ba), invert(ba))


def eq(lhs: Word, rhs: Word) -> Word:
    """lhs rhs^-1, the relator of the relation lhs = rhs (and of a branch point)."""
    return multiply(lhs, invert(rhs))


@dataclass(frozen=True)
class GroupMap:
    """An endomorphism of a free group, given by images of generators."""
    images: dict[str, Word] = field(default_factory=dict)

    def __call__(self, w: Word) -> Word:
        return apply_map(self, w)


def substitute(w: Word, images: dict[str, Word]) -> Word:
    """Replace each generator of w that has an image by that image (its
    inverse for a negative letter); generators without one stay."""
    letters: list[Letter] = []
    for lab, sign in w.letters:
        img = images.get(lab)
        if img is None:
            letters.append((lab, sign))
        elif sign > 0:
            letters.extend(img.letters)
        else:
            letters.extend((l2, -s2) for l2, s2 in reversed(img.letters))
    return Word(tuple(letters))


def apply_map(m: GroupMap, w: Word) -> Word:
    for lab, _ in w.letters:
        if lab not in m.images:
            raise MissingImageError(f"no image for generator {lab!r}")
    return substitute(w, m.images)


def word_text(w: Word) -> str:
    """Serialize: letters as `x3` / `x3^-1` separated by spaces; empty word is `1`."""
    if not w.letters:
        return "1"
    return " ".join(lab if sign > 0 else f"{lab}^-1" for lab, sign in w.letters)


def parse_word(text: str) -> Word:
    """Inverse of `word_text`. A token is a generator label, optionally
    followed by `^1` or `^-1`; any other `^` suffix (`x1^2`, `x^0`) raises
    ValueError naming the token."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    letters = []
    for tok in text.split():
        label, caret, power = tok.partition("^")
        if caret and (not label or power not in ("1", "-1")):
            raise ValueError(f"bad letter {tok!r}: expected a generator label "
                             "optionally followed by ^1 or ^-1")
        letters.append((label, -1 if power == "-1" else 1))
    return Word(tuple(letters))
