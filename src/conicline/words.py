"""Free-group words, substitution of generator images, and the relator
shapes.

Words are kept freely reduced at all times: constructing a Word reduces its
letters (`_reduce`, the one free-cancellation loop of the library), and
every operation concatenates letters and constructs one Word, so equality
of Word values is equality in the free group; `substitute` returns freely
reduced letters, not a Word. Letters are (label, sign) pairs, and a
generator is its label.
"""

from __future__ import annotations

from dataclasses import dataclass

Letter = tuple[str, int]


def _inverse(letters: tuple) -> tuple:
    """The inverse of a word of (generator, sign) letters, free or braid."""
    return tuple([(g, -sign) for g, sign in reversed(letters)])


def _reduce(letters) -> tuple[Letter, ...]:
    """Free reduction of letters whose signs are +-1: `Word` checks the
    letters that enter from outside, and every other caller passes letters
    of Words, braid words or tables built from them."""
    out: list[Letter] = []
    for lab, sign in letters:
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
        for _, sign in self.letters:
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {sign}")
        object.__setattr__(self, "letters", _reduce(self.letters))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __repr__(self):
        return f"Word({word_text(self)!r})"

    def labels(self) -> set[str]:
        return {lab for lab, _ in self.letters}


def gen(label: str) -> Word:
    return Word(((label, 1),))


def multiply(*words: Word) -> Word:
    return Word(tuple(letter for w in words for letter in w.letters))


def invert(w: Word) -> Word:
    return Word(_inverse(w.letters))


def _letters(w) -> tuple[Letter, ...]:
    """A relator shape's argument, a Word or a letter tuple, as letters."""
    return w.letters if isinstance(w, Word) else w


def commutator(a, b) -> Word:
    """[a, b] = a b a^-1 b^-1, the node relator."""
    a, b = _letters(a), _letters(b)
    return Word(a + b + _inverse(b + a))


def sq(a, b) -> Word:
    """(ab)^2 ((ba)^2)^-1, the tangency relator."""
    a, b = _letters(a), _letters(b)
    return Word((a + b) * 2 + _inverse(b + a) * 2)


def eq(lhs, rhs) -> Word:
    """lhs rhs^-1, the relator of the relation lhs = rhs (and of a branch point)."""
    return Word(_letters(lhs) + _inverse(_letters(rhs)))


def substitute(letters, images: dict) -> tuple[Letter, ...]:
    """One substitution pass, the library's only one: each letter of a
    generator with an entry label -> (image letters, inverse-image letters)
    in `images` becomes its image (its inverse image for a negative letter),
    other letters stay, and the result is freely reduced once."""
    out: list[Letter] = []
    for letter in letters:
        img = images.get(letter[0])
        if img is None:
            out.append(letter)
        else:
            out.extend(img[0] if letter[1] > 0 else img[1])
    return _reduce(out)


def word_text(w: Word) -> str:
    """Serialize: letters as `x3` / `x3^-1` separated by spaces; empty word is `1`."""
    if not w.letters:
        return "1"
    return " ".join(lab if sign > 0 else f"{lab}^-1" for lab, sign in w.letters)

