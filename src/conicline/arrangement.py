"""`Arrangement(family, n, m)`: the one place that decides which of C_n,
T_{0,0}, T_{n,0} or T_{n,m} a triple names (rejecting triples that name
none), with that arrangement's factorization, stated presentation and
bigness certificate."""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from . import paper_groups as pg
from .bigness import ST_INV, T, BignessCertificate, _certificate
from .vankampen import Presentation


@dataclass(frozen=True)
class Arrangement:
    """C_n needs n >= 1 and takes no m. For T an omitted n or m is 0:
    T_{0,0}, T_{n,0} with n >= 1, or T_{n,m} with n, m >= 1 (the lines
    tangent to the second conic come after those of the first). The family
    letter is case-insensitive and stored upper-case. n and m, when given,
    are ints; a bool, a float or a string is a ValueError naming it, as is
    a family that is not a string."""
    family: str
    n: int | None = None
    m: int | None = None

    def __post_init__(self):
        family = self.family.upper() if isinstance(self.family, str) else self.family
        n, m = self.n, self.m
        for name, x in (("n", n), ("m", m)):
            if x is not None and type(x) is not int:
                raise ValueError(f"{name} must be an integer, got {x!r}")
        if family == "C":
            if m is not None:
                raise ValueError("family C takes only n")
            if n is None or n < 1:
                raise ValueError("family C needs n >= 1")
        elif family == "T":
            n, m = n or 0, m or 0
            if n < 0 or m < 0:
                raise ValueError("family T needs n >= 0 and m >= 0")
            if n == 0 and m >= 1:
                raise ValueError("T with m >= 1 requires n >= 1 "
                                 "(lines tangent to the second conic come first)")
        else:
            raise ValueError(f"unknown family {self.family!r} (expected C or T)")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def bmf(self) -> catalog.BMF:
        """The factorization as the catalog builds it. Overrides enter a
        factorization only through `catalog.apply_overrides`, which the
        CLI's `--ztilde-override` calls on this result."""
        n, m = self.n, self.m
        if self.family == "C":
            return catalog.bmf_cn(n)
        if m:
            return catalog.bmf_tnm(n, m)
        return catalog.bmf_tn0(n) if n else catalog.bmf_t00()

    def stated(self, projective: bool = True) -> Presentation:
        """The stated simplified presentation; T's are projective only."""
        n, m = self.n, self.m
        if self.family == "C":
            return pg.presentation_cn_proj(n) if projective else pg.presentation_cn_affine(n)
        if not projective:
            raise ValueError("the stated T-family presentations are projective")
        if m:
            return pg.presentation_tnm(n, m)
        return pg.presentation_tn0(n) if n else pg.presentation_t00()

    def certificate(self) -> BignessCertificate:
        """The certificate the source argument constructs: the conic pair maps
        onto s t^-1 and t, every other generator to the identity (for C_n,
        n >= 3, the third line generator is forced by the projective
        relation). No certificate is claimed for C_1."""
        n, m = self.n, self.m
        if self.family == "C":
            if n < 2:
                raise ValueError("bigness is only claimed for C_n with n >= 2")
            if n == 2:
                return _certificate("C", 2, None, pg.presentation_c2_proj(), "x1", "x2")
            # x3 = x1^-2 x2^-1 is forced by the projective relation
            extra = {"x3": ~(ST_INV * ST_INV) * ~T}
            return _certificate("C", n, None, self.stated(), "x1", "x2", extra)
        if m:
            return _certificate("Tnm", n, m, self.stated(), "x2", "x5")
        if n:
            return _certificate("Tn0", n, 0, self.stated(), f"x{n + 2}", f"x{n}")
        return _certificate("T00", 0, 0, self.stated(), "x1", "x2")
