"""Normal forms in the free product Z/2 * Z/3 and explicit surjection
certificates witnessing that the arrangement groups are big (contain a free
subgroup of rank >= 2, via a verified surjection onto Z/2 * Z/3).

The free product is handled purely syntactically: a word is a sequence of
syllables alternating between the order-2 generator s and powers of the
order-3 generator t, and the normal form is unique, which solves the word
problem exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import AuditCheck
from .vankampen import Presentation
from .words import Letter, Word, gen, multiply, word_text

Syllable = tuple[str, int]  # ("s", 1) or ("t", +-1); t^2 is stored as t^-1


def _norm_exp(letter: str, e: int) -> int:
    if letter == "s":
        return e % 2
    e %= 3
    return e - 3 if e == 2 else e  # t^2 == t^-1


@dataclass(frozen=True)
class FPWord:
    """A normal-form word in Z/2 * Z/3 = <s, t | s^2, t^3>."""
    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "syllables", nf_syllables(self.syllables))

    def __mul__(self, other: "FPWord") -> "FPWord":
        return FPWord(self.syllables + other.syllables)

    def __invert__(self) -> "FPWord":
        return FPWord(tuple((l, -e) for l, e in reversed(self.syllables)))

    def __bool__(self):
        return bool(self.syllables)

    def __repr__(self):
        return f"FPWord({fp_text(self)!r})"


def nf_syllables(syllables) -> tuple[Syllable, ...]:
    """Merge each syllable into the last one when the letters agree. The
    letters of `out` alternate, so a syllable that cancels exposes one with
    the other letter, and nothing further merges until the next input."""
    out: list[Syllable] = []
    for letter, e in syllables:
        if letter not in ("s", "t"):
            raise ValueError(f"unknown free-product letter {letter!r}")
        if out and out[-1][0] == letter:
            e += out.pop()[1]
        e = _norm_exp(letter, e)
        if e:
            out.append((letter, e))
    return tuple(out)


S = FPWord((("s", 1),))
T = FPWord((("t", 1),))
FP_IDENTITY = FPWord()


def fp_text(w: FPWord) -> str:
    if not w.syllables:
        return "1"
    return " ".join(l if e == 1 else f"{l}^{e}" for l, e in w.syllables)


def letter_images(images: dict[str, FPWord]) -> dict[Letter, tuple[Syllable, ...]]:
    """The syllables of each letter's image: the generator's image for
    (label, 1) and its inverse for (label, -1)."""
    return {(lab, sign): (img if sign > 0 else ~img).syllables
            for lab, img in images.items() for sign in (1, -1)}


def evaluate(letters: dict[Letter, tuple[Syllable, ...]], w: Word) -> FPWord:
    """The image of w under the `letter_images` table `letters`, as one
    FPWord: nf_syllables reduces any concatenation of normal forms in one
    pass."""
    return FPWord(tuple(syl for letter in w.letters for syl in letters[letter]))


@dataclass(frozen=True)
class CertReport:
    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class BignessCertificate:
    """A claimed surjection source -> Z/2 * Z/3: images for every generator
    plus witness words evaluating to s and t (surjectivity)."""
    family: str
    n: int | None
    m: int | None
    source: Presentation
    images: dict[str, FPWord]
    witnesses: dict[str, Word] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "family": self.family, "n": self.n, "m": self.m,
            "images": {k: fp_text(v) for k, v in self.images.items()},
            "witnesses": {k: word_text(v) for k, v in self.witnesses.items()},
        }


def certify(p: Presentation, images: dict[str, FPWord],
            witnesses: dict[str, Word]) -> CertReport:
    """Check every relator dies and the witnesses hit s and t exactly; a
    witness missing or using a generator without an image fails its check."""
    checks = []
    missing = [lab for lab in p.generators if lab not in images]
    checks.append(AuditCheck("images_total", not missing,
                             "" if not missing else f"missing {missing}"))
    if missing:
        return CertReport(tuple(checks))
    letters = letter_images(images)
    for k, r in enumerate(p.relators):
        val = evaluate(letters, r)
        checks.append(AuditCheck(f"relator[{k}]", not val, fp_text(val)))
    for target, expect in (("s", S), ("t", T)):
        w = witnesses.get(target)
        unmapped = [] if w is None else sorted({lab for lab, _ in w.letters} - images.keys())
        if w is None or unmapped:
            detail = f"no image for {unmapped}" if unmapped else "missing"
            checks.append(AuditCheck(f"witness_{target}", False, detail))
            continue
        val = evaluate(letters, w)
        checks.append(AuditCheck(f"witness_{target}", val == expect, fp_text(val)))
    return CertReport(tuple(checks))


ST_INV = S * ~T  # s t^-1, the image of the conic generator


def _certificate(family, n, m, source, conic_label, helper_label,
                 extra=None) -> BignessCertificate:
    images = dict.fromkeys(source.generators, FP_IDENTITY)
    images[conic_label] = ST_INV
    images[helper_label] = T
    if extra:
        images.update(extra)
    witnesses = {"s": multiply(gen(conic_label), gen(helper_label)),
                 "t": gen(helper_label)}
    return BignessCertificate(family, n, m, source, images, witnesses)


def standard_certificate(family: str, n: int | None = None,
                         m: int | None = None) -> BignessCertificate:
    """The standard certificate of an arrangement (see
    `Arrangement.certificate`): "C" and "T" with n (and m), "Tn0" for
    T_{n,0} and "T00" for T_{0,0}."""
    from .arrangement import Arrangement
    fam = family.upper()
    named = {"C": ("C", n, m), "T": ("T", n, m), "TN0": ("T", n, 0), "T00": ("T", 0, 0)}
    if fam in named:
        return Arrangement(*named[fam]).certificate()
    raise ValueError(f"no bigness certificate for family {family!r}")


def certify_certificate(cert: BignessCertificate) -> CertReport:
    return certify(cert.source, cert.images, cert.witnesses)
