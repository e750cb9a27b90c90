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

from . import paper_groups as pg
from .catalog import AuditCheck
from .vankampen import Presentation
from .words import Word, gen, multiply

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
    out: list[Syllable] = []
    for letter, e in syllables:
        if letter not in ("s", "t"):
            raise ValueError(f"unknown free-product letter {letter!r}")
        if out and out[-1][0] == letter:
            merged = _norm_exp(letter, out[-1][1] + e)
            out.pop()
            if merged:
                out.append((letter, merged))
                continue
            # a cancellation may expose two more equal neighbours
            while len(out) >= 2 and out[-1][0] == out[-2][0]:
                l2, e2 = out.pop()
                l1, e1 = out.pop()
                m2 = _norm_exp(l1, e1 + e2)
                if m2:
                    out.append((l1, m2))
        else:
            e = _norm_exp(letter, e)
            if e:
                out.append((letter, e))
    return tuple(out)


def nf(syllables) -> FPWord:
    """Normal form of a raw syllable sequence."""
    return FPWord(tuple(syllables))


S = FPWord((("s", 1),))
T = FPWord((("t", 1),))
FP_IDENTITY = FPWord()


def fp_text(w: FPWord) -> str:
    if not w.syllables:
        return "1"
    return " ".join(l if e == 1 else f"{l}^{e}" for l, e in w.syllables)


def fp_parse(text: str) -> FPWord:
    text = text.strip()
    if text in ("", "1"):
        return FP_IDENTITY
    syls = []
    for tok in text.split():
        if "^" in tok:
            l, e = tok.split("^")
            syls.append((l, int(e)))
        else:
            syls.append((tok, 1))
    return FPWord(tuple(syls))


def evaluate(images: dict[str, FPWord], w: Word) -> FPWord:
    out = FP_IDENTITY
    for lab, sign in w.letters:
        img = images[lab]
        out = out * (img if sign > 0 else ~img)
    return out


@dataclass(frozen=True)
class CertReport:
    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"checks": [c.to_json() for c in self.checks], "passed": self.passed}


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
        from .words import word_text
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
    missing = [g.label for g in p.generators if g.label not in images]
    checks.append(AuditCheck("images_total", not missing,
                             "" if not missing else f"missing {missing}"))
    if missing:
        return CertReport(tuple(checks))
    for k, r in enumerate(p.relators):
        val = evaluate(images, r)
        checks.append(AuditCheck(f"relator[{k}]", not val, fp_text(val)))
    for target, expect in (("s", S), ("t", T)):
        w = witnesses.get(target)
        unmapped = [] if w is None else sorted({lab for lab, _ in w.letters} - images.keys())
        if w is None or unmapped:
            detail = f"no image for {unmapped}" if unmapped else "missing"
            checks.append(AuditCheck(f"witness_{target}", False, detail))
            continue
        val = evaluate(images, w)
        checks.append(AuditCheck(f"witness_{target}", val == expect, fp_text(val)))
    return CertReport(tuple(checks))


ST_INV = S * ~T  # s t^-1, the image of the conic generator


def _certificate(family, n, m, source, conic_label, helper_label,
                 extra=None) -> BignessCertificate:
    images = {g.label: FP_IDENTITY for g in source.generators}
    images[conic_label] = ST_INV
    images[helper_label] = T
    if extra:
        images.update(extra)
    witnesses = {"s": multiply(gen(conic_label), gen(helper_label)),
                 "t": gen(helper_label)}
    return BignessCertificate(family, n, m, source, images, witnesses)


def standard_certificate(family: str, n: int | None = None,
                         m: int | None = None) -> BignessCertificate:
    """The standard certificate for `family`: "C" and "T" with n (and m)
    name an arrangement (see `Arrangement.certificate`), "Tn0" is T_{n,0}
    and "T00" is T_{0,0}; "T10", "T20" and "T11" use the published
    small-case presentations with their own labelings."""
    from .arrangement import Arrangement
    fam = family.upper()
    published = {"T10": (1, 0, pg.presentation_t10, "x1", "x2"),
                 "T20": (2, 0, pg.presentation_t20, "x1", "x3"),
                 "T11": (1, 1, pg.presentation_t11, "x2", "x3")}
    if fam in published:
        n, m, source, conic, helper = published[fam]
        return _certificate(fam, n, m, source(), conic, helper)
    named = {"C": ("C", n, m), "T": ("T", n, m), "TN0": ("T", n, 0), "T00": ("T", 0, 0)}
    if fam in named:
        return Arrangement(*named[fam]).certificate()
    raise ValueError(f"no bigness certificate for family {family!r}")


def certify_certificate(cert: BignessCertificate) -> CertReport:
    return certify(cert.source, cert.images, cert.witnesses)
