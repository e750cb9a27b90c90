"""Parametric constructors for the braid monodromy factor lists of the
conic-line arrangements C_n (one conic, n tangent lines), T_{n,0} (two
tangent conics, n lines tangent to one of them) and T_{n,m} (lines tangent
to both), with combinatorial audits; only the C_n lists are Delta^2.

Each factor is a half-twist power under conjugation, and its power gives its
singularity type: branch points have exponent 1, nodes 2, tangencies 4. The
factor lists are transcribed from the source computations; a handful of factors
whose skeletons were only ever published as drawings ("tilde" factors)
carry solved conjugator-list defaults, are flagged provisional, and can be
overridden per factor origin.

Fiber labelings:

* C_n lives in B_{n+2}; points 1, 1' of the conic sit at positions 1, 2 and
  line k occupies position k+1.
* T_{n,0} lives in B_{n+4}; lines occupy 1..n-1 and n+4, the conics pair up
  as (n, n+1) and (n+2, n+3). (For n = 1 the published small-case list with
  its own labeling is used.)
* T_{n,m} lives in B_{n+m+4}; point 1 is the line L_1, (2, 3) and (4, 5)
  are the conics, 6..n+4 are L_2..L_n and n+5..n+m+4 are the L'_j.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import vankampen
from .braid import (ABOVE, BELOW, ConjugatedTwist, Skeleton, compile_factor,
                    exponent_sum, permutation)
from .words import Word


SING_TYPES = {1: "branch", 2: "node", 4: "tangency"}


@dataclass(frozen=True)
class BMFactor:
    twist: ConjugatedTwist
    origin: str = ""
    provisional: bool = False

    def __post_init__(self):
        if self.twist.power not in SING_TYPES:
            raise ValueError(f"factor power must be 1, 2 or 4, got {self.twist.power}")

    @property
    def sing_type(self) -> str:
        return SING_TYPES[self.twist.power]


@dataclass(frozen=True)
class BMF:
    """An ordered list of braid monodromy factors in B_N: Delta^2 for C_n;
    for T, the published relations but not Delta^2 (ROADMAP items 1-2)."""
    strand_count: int
    factors: tuple[BMFactor, ...]
    labels: tuple[str, ...]
    family: str = ""
    n: int | None = None
    m: int | None = None

    def __post_init__(self):
        if len(self.labels) != self.strand_count:
            raise ValueError("labels must name every fiber point")

    @cached_property
    def relators(self) -> tuple[tuple[Word, ...], tuple[str, ...]]:
        """The van Kampen relator of each factor and the factors' origins
        (`vankampen.factor_relators`), built on first use and kept on this
        object for both complements' `vankampen.raw_presentation`. It is not
        a field: equality, hash, repr and JSON do not see it, and an equal
        BMF built anew or a `dataclasses.replace` copy (`apply_overrides`)
        builds its own."""
        return vankampen.factor_relators(self)

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(SING_TYPES.values(), 0)
        for f in self.factors:
            out[f.sing_type] += 1
        return out


def _factor(i, j, power, conjs=(), side=BELOW, origin="", provisional=False) -> BMFactor:
    twist = ConjugatedTwist(Skeleton(i, j, side), power,
                            tuple((Skeleton(a, b, sd), p) for (a, b, sd, p) in conjs))
    return BMFactor(twist, origin, provisional)


# --------------------------------------------------------------------------
# C_n: one conic, n tangent lines (B_{n+2})
# --------------------------------------------------------------------------

def bmf_cn(n: int) -> BMF:
    """Delta^2 of C_n = Q + L_1 + ... + L_n (the tests check n <= 5).

    Transcribed from the inductive factorization F_1 ... F_n (Z_{11'})^{...};
    the node factors are routed above the axis with positive conjugating
    twists (the explicit n = 2 list and the published raw relations fix both
    choices; the general display prints them with the opposite decorations).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    N = n + 2
    labels = ("x1", "x1p") + tuple(f"x{k}" for k in range(2, n + 2))
    F = [
        _factor(1, 2, 1, origin="F1: branch of Q"),
        _factor(1, 3, 4, [(1, 2, BELOW, 2)], origin="F1: tangency Q.L1"),
    ]
    for i in range(2, n + 1):
        for k in range(2, i + 1):
            side = BELOW if k == i else ABOVE
            F.append(_factor(k + 1, i + 2, 2, [(1, k + 1, ABOVE, 2)], side,
                             origin=f"F{i}: node L{k}.L{i}"))
        F.append(_factor(1, i + 2, 4, side=ABOVE, origin=f"F{i}: tangency Q.L{i}"))
    F.append(_factor(1, 2, 1, [(2, t + 1, BELOW, -2) for t in range(2, n + 2)],
                     origin="final branch of Q"))
    return BMF(N, tuple(F), labels, family="C", n=n)


# --------------------------------------------------------------------------
# fixed small cases of the T family (published with their own labelings)
# --------------------------------------------------------------------------

def bmf_t00() -> BMF:
    F = (
        _factor(3, 4, 1, origin="branch Q2 left"),
        _factor(2, 4, 4, origin="tangency Q1.Q2 left"),
        _factor(1, 2, 1, [(2, 4, BELOW, 2)], origin="branch Q1 left"),
        _factor(1, 2, 1, [(2, 3, BELOW, 2)], origin="branch Q1 right"),
        _factor(2, 3, 4, origin="tangency Q1.Q2 right"),
        _factor(3, 4, 1, origin="branch Q2 right"),
    )
    return BMF(4, F, ("x1", "x2", "x3", "x4"), family="T", n=0, m=0)


def bmf_t10() -> BMF:
    F = (
        _factor(4, 5, 1, origin="branch Q2 left"),
        _factor(1, 2, 2, origin="node L1.Q1 left"),
        _factor(3, 5, 4, origin="tangency Q1.Q2 left"),
        _factor(1, 3, 2, [(3, 5, BELOW, 2), (1, 2, BELOW, 2)], origin="node L1.Q1 right"),
        _factor(2, 3, 1, [(3, 5, BELOW, 2)], origin="branch Q1 left"),
        _factor(2, 3, 1, [(1, 2, BELOW, -2), (3, 4, BELOW, 2)], origin="branch Q1 right"),
        _factor(1, 5, 4, [(1, 2, BELOW, 2)], origin="tangency L1.Q2"),
        _factor(3, 4, 4, origin="tangency Q1.Q2 right"),
        _factor(4, 5, 1, [(1, 4, BELOW, -2), (1, 2, BELOW, 2)], origin="branch Q2 right"),
    )
    return BMF(5, F, tuple(f"x{k}" for k in range(1, 6)), family="T", n=1, m=0)


def bmf_t20() -> BMF:
    F = (
        _factor(2, 3, 2, origin="node L2.Q1 left"),
        _factor(5, 6, 1, origin="branch Q2 left"),
        _factor(4, 6, 4, origin="tangency Q1.Q2 left"),
        _factor(2, 3, 2, origin="node L2.Q1 right"),
        _factor(3, 4, 1, [(2, 3, BELOW, 2), (4, 6, BELOW, 2)], origin="branch Q1 left"),
        _factor(3, 4, 1, [(2, 3, BELOW, -2), (4, 5, BELOW, 2)], origin="branch Q1 right"),
        _factor(4, 5, 4, origin="tangency Q1.Q2 right"),
        _factor(2, 6, 4, [(2, 3, BELOW, 2)], origin="tangency L2.Q2"),
        _factor(1, 2, 2, [(2, 6, BELOW, 2), (2, 3, BELOW, 2)], origin="node L1.L2"),
        _factor(1, 6, 4, origin="tangency L1.Q2"),
        _factor(5, 6, 1, [(1, 5, BELOW, -2), (2, 5, BELOW, -2), (2, 3, BELOW, 2)],
                origin="branch Q2 right"),
        _factor(1, 4, 2, [(1, 2, BELOW, 2), (2, 3, BELOW, 2)], origin="node L1.Q1 right"),
        _factor(1, 3, 2, origin="node L1.Q1 left"),
    )
    return BMF(6, F, tuple(f"x{k}" for k in range(1, 7)), family="T", n=2, m=0)


def bmf_t11() -> BMF:
    F = (
        _factor(2, 3, 2, origin="node L2.Q1 left"),
        _factor(2, 4, 2, side=ABOVE, origin="node L2.Q1 right"),
        _factor(5, 6, 1, [(2, 5, BELOW, -2)], origin="branch Q2 left"),
        _factor(2, 5, 4, origin="tangency L2.Q2"),
        _factor(4, 6, 4, origin="tangency Q1.Q2 left"),
        _factor(1, 3, 4, origin="tangency L1.Q1"),
        _factor(3, 4, 1, [(1, 3, BELOW, 2), (4, 6, BELOW, 2)], origin="branch Q1 left"),
        _factor(1, 6, 2, [(1, 3, BELOW, 2)], origin="node L1.Q2 right"),
        _factor(1, 5, 2, [(1, 2, BELOW, 2)], origin="node L1.Q2 left"),
        _factor(3, 4, 1, [(4, 5, BELOW, 2)], origin="branch Q1 right"),
        _factor(1, 2, 2, origin="node L1.L2"),
        _factor(4, 5, 4, origin="tangency Q1.Q2 right"),
        _factor(5, 6, 1, origin="branch Q2 right"),
    )
    return BMF(6, F, tuple(f"x{k}" for k in range(1, 7)), family="T", n=1, m=1)


def bmf_t21() -> BMF:
    F = (
        _factor(2, 3, 1, origin="branch Q1 left"),
        _factor(6, 7, 2, origin="node L2.L'1"),
        _factor(1, 3, 4, origin="tangency L1.Q1"),
        _factor(2, 4, 4, origin="tangency Q1.Q2 left"),
        _factor(5, 7, 4, origin="tangency L'1.Q2"),
        _factor(4, 5, 1, [(2, 4, ABOVE, 2), (5, 7, BELOW, 2)], origin="branch Q2 left"),
        _factor(2, 7, 2, [(2, 4, BELOW, 2), (2, 3, BELOW, 2)], origin="node L'1.Q1 left"),
        _factor(3, 7, 2, [(1, 3, BELOW, 2)], origin="node L'1.Q1 right"),
        _factor(3, 6, 4, origin="tangency L2.Q1"),
        _factor(1, 7, 2, [(1, 3, BELOW, 2)], origin="node L1.L'1"),
        _factor(4, 5, 1, [(3, 4, BELOW, -2), (1, 3, BELOW, 2)], origin="branch Q2 right"),
        _factor(3, 4, 4, [(1, 3, BELOW, 2)], origin="tangency Q1.Q2 right"),
        _factor(1, 5, 2, [(1, 3, BELOW, 2)], origin="node L1.Q2 left"),
        _factor(1, 5, 2, [(1, 3, BELOW, 2)], origin="node L1.Q2 right"),
        _factor(2, 3, 1, [(3, 6, BELOW, 2), (1, 3, ABOVE, -2)], origin="branch Q1 right"),
        _factor(4, 6, 2, origin="node L2.Q2 left"),
        _factor(5, 6, 2, [(1, 5, BELOW, 2), (1, 3, BELOW, 2)], origin="node L2.Q2 right"),
        _factor(1, 6, 2, [(1, 5, BELOW, 2), (1, 3, BELOW, 2)], origin="node L1.L2"),
    )
    return BMF(7, F, tuple(f"x{k}" for k in range(1, 8)), family="T", n=2, m=1)


def bmf_t22() -> BMF:
    F = (
        _factor(2, 3, 1, origin="branch Q1 left"),
        _factor(6, 7, 2, origin="node L2.L'1"),
        _factor(1, 3, 4, origin="tangency L1.Q1"),
        _factor(2, 4, 4, origin="tangency Q1.Q2 left"),
        _factor(5, 7, 4, origin="tangency L'1.Q2"),
        _factor(4, 5, 1, [(2, 4, ABOVE, 2), (5, 7, BELOW, 2)], origin="branch Q2 left"),
        _factor(2, 7, 2, [(2, 4, BELOW, 2), (2, 3, BELOW, 2)], origin="node L'1.Q1 left"),
        _factor(3, 7, 2, [(1, 3, BELOW, 2)], origin="node L'1.Q1 right"),
        _factor(6, 8, 2, [(6, 7, BELOW, 2)], origin="node L2.L'2"),
        _factor(2, 8, 2, [(6, 8, ABOVE, 2)], side=ABOVE, origin="node L'2.Q1 left"),
        _factor(3, 8, 2, [(3, 7, BELOW, 2), (3, 5, BELOW, 2), (1, 3, BELOW, 2)],
                origin="node L'2.Q1 right"),
        _factor(2, 6, 4, origin="tangency L2.Q1"),
        _factor(1, 7, 2, [(1, 3, BELOW, 2)], origin="node L1.L'1"),
        _factor(4, 5, 1, [(5, 8, BELOW, -2), (7, 8, BELOW, -2), (3, 4, BELOW, -2),
                          (1, 3, BELOW, 2)], origin="branch Q2 right"),
        _factor(5, 8, 4, [(5, 7, BELOW, 2)], origin="tangency L'2.Q2"),
        _factor(1, 8, 2, [(1, 7, BELOW, 2), (1, 3, BELOW, 2)], origin="node L1.L'2"),
        _factor(7, 8, 2, origin="node L'1.L'2"),
        _factor(1, 5, 2, [(1, 3, BELOW, 2)], origin="node L1.Q2 left"),
        _factor(3, 4, 4, [(1, 3, BELOW, 2)], origin="tangency Q1.Q2 right"),
        _factor(1, 5, 2, [(1, 3, BELOW, 2)], origin="node L1.Q2 right"),
        _factor(2, 3, 1, [(1, 2, BELOW, -2), (2, 6, ABOVE, 2)], origin="branch Q1 right"),
        _factor(4, 6, 2, [(4, 5, BELOW, 2)], origin="node L2.Q2 left"),
        _factor(5, 6, 2, [(1, 5, BELOW, 2), (1, 3, BELOW, 2)], origin="node L2.Q2 right"),
        _factor(1, 6, 2, [(1, 5, BELOW, 2), (1, 3, BELOW, 2)], origin="node L1.L2"),
    )
    return BMF(8, F, tuple(f"x{k}" for k in range(1, 9)), family="T", n=2, m=2)


# --------------------------------------------------------------------------
# T_{n,0}: two tangent conics, n lines tangent to the same conic (B_{n+4})
# --------------------------------------------------------------------------

def bmf_tn0(n: int) -> BMF:
    """T_{n,0}: the published relations, not Delta^2 (ROADMAP item 2). The
    factor for the second crossing of L_{n-1} with the conic (n, n+1) is
    restored (the general display drops it; the explicit n = 2 list shows
    it as a duplicated factor)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return bmf_t10()
    F = [
        _factor(n + 2, n + 3, 1, origin="branch Q.a left"),
        _factor(n, n + 1, 1, [(n - 1, n, BELOW, 2), (n + 1, n + 3, BELOW, 2)],
                origin="branch Q.b left"),
        _factor(n, n + 1, 1, [(n - 1, n, BELOW, 2), (n + 1, n + 2, BELOW, -2)],
                origin="branch Q.b right"),
        _factor(n + 2, n + 3, 1,
                [(j, n + 2, BELOW, -2) for j in range(1, n - 1)]
                + [(n - 1, n + 2, BELOW, -2), (n - 1, n, BELOW, 2), (n + 2, n + 4, ABOVE, 2)],
                origin="branch Q.a right (tilde)", provisional=True),
        _factor(n + 1, n + 3, 4, origin="tangency Q.a x Q.b left"),
        _factor(n + 1, n + 2, 4, origin="tangency Q.a x Q.b right"),
        _factor(n - 1, n + 3, 4, [(n - 1, n, BELOW, 2)], origin=f"tangency L{n - 1}.Q"),
        _factor(n + 2, n + 4, 4, origin=f"tangency L{n}.Q"),
    ]
    for i in range(1, n - 1):
        F.append(_factor(i, n + 3, 4, origin=f"tangency L{i}.Q"))
    for i in range(1, n - 1):
        F.append(_factor(i, n - 1, 2, [(n - 1, n + 3, BELOW, 2), (n - 1, n, BELOW, 2)],
                         origin=f"node L{i}.L{n - 1}"))
    for i in range(1, n - 1):
        F.append(_factor(i, n + 4, 2,
                         [(i, j, BELOW, 2) for j in range(n - 2, i, -1)]
                         + [(i, n, ABOVE, 2), (n + 3, n + 4, BELOW, -2)],
                         origin=f"node L{i}.L{n} (tilde)", provisional=True))
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            F.append(_factor(i, j, 2, [(j, n + 3, BELOW, 2)], origin=f"node L{i}.L{j}"))
    for i in range(1, n - 1):
        F.append(_factor(i, n, 2, [(n - 1, n, BELOW, 2)], side=ABOVE,
                         origin=f"node L{i}.Q.b low (tilde)", provisional=True))
    for i in range(1, n - 1):
        F.append(_factor(i, n + 1, 2, [(n, n + 1, BELOW, 2), (n - 1, n, BELOW, 2)],
                         side=ABOVE, origin=f"node L{i}.Q.b high (tilde)", provisional=True))
    F.append(_factor(n - 1, n, 2, origin=f"node L{n - 1}.Q.b low"))
    F.append(_factor(n - 1, n, 2, origin=f"node L{n - 1}.Q.b low (second crossing, restored)"))
    F.append(_factor(n, n + 4, 2, [(n - 1, n, BELOW, 2)], side=ABOVE,
                     origin=f"node L{n}.Q.b low"))
    F.append(_factor(n + 1, n + 4, 2, [(n + 1, n + 2, BELOW, 2), (n + 2, n + 4, BELOW, -2)],
                     origin=f"node L{n}.Q.b high (tilde)", provisional=True))
    F.append(_factor(n - 1, n + 4, 2, [(n - 1, n, BELOW, 2), (n + 3, n + 4, BELOW, -2)],
                     origin=f"node L{n - 1}.L{n}"))
    return BMF(n + 4, tuple(F), tuple(f"x{k}" for k in range(1, n + 5)),
               family="T", n=n, m=0)


# --------------------------------------------------------------------------
# T_{n,m}: two tangent conics, n + m tangent lines (B_{n+m+4})
# --------------------------------------------------------------------------

def bmf_tnm(n: int, m: int) -> BMF:
    """T_{n,m}, n >= 1, m >= 1, from the twelve-row factor table: the
    published relations, not Delta^2 (ROADMAP item 2).

    Deviations from the printed table, all matching the explicit small-case
    lists: the second crossing of L_1 with (4,5) is restored in row 8; the
    degenerate self-conjugations at i = n+5 in rows 7 and 12 are dropped;
    row 12's inner conjugator product runs k = n+5..j-1.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1 (use bmf_tn0 for m = 0)")
    F = [
        _factor(2, 3, 1, origin="row(1): branch Q1 left"),
        _factor(2, 3, 1, [(1, 2, BELOW, -2)] + [(2, i, ABOVE, 2) for i in range(6, n + 5)],
                origin="row(2): branch Q1 right"),
        _factor(4, 5, 1, [(2, 4, ABOVE, 2), (5, n + 5, BELOW, 2)],
                origin="row(3): branch Q2 left"),
        _factor(4, 5, 1,
                [c for j in range(n + 6, n + m + 5)
                 for c in ((5, j, BELOW, -2), (n + 5, j, BELOW, -2))]
                + [(3, 4, BELOW, -2), (1, 3, BELOW, 2)],
                origin="row(4): branch Q2 right (tilde)", provisional=True),
        _factor(2, 4, 4, side=ABOVE, origin="row(5): tangency Q1.Q2 left"),
        _factor(3, 4, 4, [(1, 3, BELOW, 2)], origin="row(5): tangency Q1.Q2 right"),
        _factor(1, 3, 4, origin="row(6): tangency L1.Q1"),
    ]
    for i in range(6, n + 5):
        F.append(_factor(2, i, 4, side=ABOVE, origin=f"row(6): tangency L{i - 4}.Q1"))
    F.append(_factor(5, n + 5, 4, origin="row(7): tangency L'1.Q2"))
    for i in range(n + 6, n + m + 5):
        F.append(_factor(5, i, 4, [(5, n + 5, BELOW, 2)],
                         origin=f"row(7): tangency L'{i - n - 4}.Q2"))
    F.append(_factor(1, 5, 2, [(1, 3, BELOW, 2)], origin="row(8): node L1.Q2 left"))
    F.append(_factor(1, 5, 2, [(1, 3, BELOW, 2)],
                     origin="row(8): node L1.Q2 right (second crossing, restored)"))
    for i in range(6, n + 5):
        F.append(_factor(4, i, 2, [(4, 5, BELOW, 2)], origin=f"row(8): node L{i - 4}.Q2 left"))
        F.append(_factor(5, i, 2, [(1, 5, BELOW, 2), (1, 3, BELOW, 2)],
                         origin=f"row(8): node L{i - 4}.Q2 right"))
    for i in range(6, n + 5):
        F.append(_factor(1, i, 2, [(1, 5, BELOW, 2), (1, 3, BELOW, 2)],
                         origin=f"row(9): node L1.L{i - 4}"))
    for i in range(6, n + 5):
        for j in range(i + 1, n + 5):
            F.append(_factor(i, j, 2, [(2, i, ABOVE, 2)], side=ABOVE,
                             origin=f"row(9): node L{i - 4}.L{j - 4}"))
    F.append(_factor(2, n + 5, 2, [(2, 4, BELOW, 2), (2, 3, BELOW, 2)],
                     origin="row(10): node L'1.Q1 left"))
    F.append(_factor(3, n + 5, 2, [(1, 3, BELOW, 2)], origin="row(10): node L'1.Q1 right"))
    for i in range(n + 6, n + m + 5):
        F.append(_factor(2, i, 2, [(2, j, ABOVE, -2) for j in range(n + 4, 5, -1)],
                         side=ABOVE, origin=f"row(10): node L'{i - n - 4}.Q1 left"))
        F.append(_factor(3, i, 2, [(j, i, ABOVE, 2) for j in range(6, n + 5)]
                         + [(3, 4, BELOW, -2), (1, 3, BELOW, 2)], side=ABOVE,
                         origin=f"row(10): node L'{i - n - 4}.Q1 right (tilde)",
                         provisional=True))
    for i in range(n + 6, n + m + 5):
        F.append(_factor(n + 5, i, 2, origin=f"row(11): node L'1.L'{i - n - 4}"))
    for i in range(n + 6, n + m + 5):
        for j in range(i + 1, n + m + 5):
            F.append(_factor(i, j, 2, [(5, i, BELOW, -2), (5, n + 5, BELOW, 2)],
                             origin=f"row(11): node L'{i - n - 4}.L'{j - n - 4}"))
    F.append(_factor(1, n + 5, 2, [(1, 3, BELOW, 2)], origin="row(12): node L1.L'1"))
    for i in range(n + 6, n + m + 5):
        F.append(_factor(1, i, 2, [(1, n + 5, BELOW, 2), (1, 3, BELOW, 2)],
                         origin=f"row(12): node L1.L'{i - n - 4}"))
    for i in range(6, n + 5):
        for j in range(n + 5, n + m + 5):
            F.append(_factor(i, j, 2, [(k, j, BELOW, -2) for k in range(n + 5, j)],
                             origin=f"row(12): node L{i - 4}.L'{j - n - 4}"))
    return BMF(n + m + 4, tuple(F), tuple(f"x{k}" for k in range(1, n + m + 5)),
               family="T", n=n, m=m)


def bmf_t1m(m: int) -> BMF:
    """T_{1,m}: the published list is the n = 1 instance of the general table."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return bmf_tnm(1, m)


# --------------------------------------------------------------------------
# audits
# --------------------------------------------------------------------------

def expected_counts(family: str, n: int | None, m: int | None) -> dict[str, int] | None:
    if family == "C" and n is not None:
        return {"branch": 2, "tangency": n, "node": n * (n - 1) // 2}
    if family == "T" and n is not None and m is not None:
        return {"branch": 4, "tangency": n + m + 2,
                "node": 2 * n + 2 * m + n * m + n * (n - 1) // 2 + m * (m - 1) // 2}
    return None


@dataclass(frozen=True)
class AuditCheck:
    """One named check of an audit or a certificate report."""
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    """Its JSON is `dataclasses.asdict` plus `passed`."""
    strand_count: int
    exponent_sum: int
    expected_exponent_sum: int
    counts: dict[str, int]
    expected_counts: dict[str, int] | None
    checks: tuple[AuditCheck, ...]
    provisional_factors: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def audit(b: BMF) -> AuditReport:
    """Degree and purity audit; failures are report entries, not exceptions."""
    N = b.strand_count
    checks = []
    total = sum(f.twist.power for f in b.factors)
    expected_total = N * (N - 1)
    checks.append(AuditCheck("exponent_sum", total == expected_total,
                             f"{total} vs N(N-1) = {expected_total}"))
    counts = b.counts()
    exp = expected_counts(b.family, b.n, b.m)
    if exp is not None:
        checks.append(AuditCheck("singularity_counts", counts == exp,
                                 f"{counts} vs {exp}"))
    identity = tuple(range(1, N + 1))
    impure = []
    prod = identity
    exps_ok = True
    for f in b.factors:
        compiled = compile_factor(f.twist, N)
        exps_ok = exps_ok and exponent_sum(compiled) == f.twist.power
        perm = permutation(compiled)
        want = identity
        if f.twist.power == 1:
            i, j = f.twist.endpoints()
            want = tuple(j if k == i else i if k == j else k for k in identity)
            prod = tuple(perm[k - 1] for k in prod)
        if perm != want:
            impure.append(f.origin or str(f.twist.endpoints()))
    checks.append(AuditCheck("factor_purity", not impure,
                             "all even factors pure, branches transpose their endpoints"
                             if not impure else f"violations: {impure}"))
    checks.append(AuditCheck("branch_product_identity", prod == identity,
                             "branch transpositions multiply to the identity"))
    checks.append(AuditCheck("conjugation_exponent_free", exps_ok,
                             "exponent sum of each compiled factor equals its power"))
    provisional = tuple(f.origin for f in b.factors if f.provisional)
    return AuditReport(N, total, expected_total, counts, exp, tuple(checks), provisional)


# --------------------------------------------------------------------------
# JSON export / import
# --------------------------------------------------------------------------

def bmf_to_json(b: BMF) -> dict:
    return {
        "family": b.family, "n": b.n, "m": b.m, "N": b.strand_count,
        "labels": list(b.labels),
        "factors": [{
            "base": {"i": f.twist.base.i, "j": f.twist.base.j, "side": f.twist.base.side},
            "power": f.twist.power,
            "conjugators": [{"i": s.i, "j": s.j, "side": s.side, "power": p}
                            for s, p in f.twist.conjugators],
            "sing_type": f.sing_type,
            "origin": f.origin,
            "provisional": f.provisional,
        } for f in b.factors],
    }


def _read_skeleton(d, N: int, k: int | None = None) -> Skeleton:
    """The one reader of JSON skeletons: a base {"i", "j", "side"} if `k` is
    None, else conjugator k, with "power" too. i, j, power are ints (not bool),
    1 <= i < j <= N, side defaults to below; no other key is allowed."""
    ints = ("i", "j") if k is None else ("i", "j", "power")
    if not isinstance(d, dict) or any(type(d.get(key)) is not int for key in ints):
        problem = f"needs integer {', '.join(map(repr, ints[:-1]))} and {ints[-1]!r}, got {d!r}"
    elif not 1 <= d["i"] < d["j"] <= N:
        problem = f"endpoints ({d['i']}, {d['j']}) must satisfy 1 <= i < j <= N = {N}"
    elif not d.keys() <= {"side", *ints}:
        problem = f"has unknown keys {sorted(d.keys() - {'side', *ints})}"
    else:
        return Skeleton(d["i"], d["j"], d.get("side", BELOW))
    raise ValueError(f"{'base' if k is None else f'conjugator {k}'} {problem}")


def _read_conjugators(items, N: int) -> tuple[tuple[Skeleton, int], ...]:
    if not isinstance(items, list):
        raise ValueError(f"expected a 'conjugators' list, got {items!r}")
    return tuple((_read_skeleton(c, N, k), c["power"]) for k, c in enumerate(items))


def bmf_from_json(d: dict) -> BMF:
    """Inverse of `bmf_to_json`. Input it could not have written, such as a
    sing_type that contradicts the power, is a ValueError naming the factor."""
    if not (isinstance(d, dict) and type(d.get("N")) is int
            and isinstance(d.get("labels"), list) and isinstance(d.get("factors"), list)):
        raise ValueError("a factorization must be a JSON object with an integer 'N' "
                         "and lists 'labels' and 'factors'")
    N, family, n, m = d["N"], d.get("family", ""), d.get("n"), d.get("m")
    if not isinstance(family, str):
        raise ValueError(f"'family' must be a string, got {family!r}")
    if not all(isinstance(x, str) for x in d["labels"]):
        raise ValueError(f"'labels' must be a list of strings, got {d['labels']!r}")
    for key, value in (("n", n), ("m", m)):
        if value is not None and type(value) is not int:
            raise ValueError(f"{key!r} must be an integer or null, got {value!r}")
    factors = []
    for k, fd in enumerate(d["factors"]):
        try:
            if not isinstance(fd, dict):
                raise ValueError(f"expected an object, got {fd!r}")
            origin, provisional = fd.get("origin", ""), fd.get("provisional", False)
            if not isinstance(origin, str):
                raise ValueError(f"'origin' must be a string, got {origin!r}")
            if type(provisional) is not bool:
                raise ValueError(f"'provisional' must be true or false, got {provisional!r}")
            power = fd.get("power")
            if type(power) is not int or power not in SING_TYPES:
                raise ValueError(f"power must be one of 1, 2, 4, got {power!r}")
            twist = ConjugatedTwist(_read_skeleton(fd.get("base"), N), power,
                                    _read_conjugators(fd.get("conjugators", []), N))
            name = SING_TYPES[power]
            if fd.get("sing_type", name) != name:
                raise ValueError(f"sing_type {fd['sing_type']!r} does not match power {power}")
        except ValueError as exc:
            raise ValueError(f"factor {k}: {exc}") from None
        factors.append(BMFactor(twist, origin, provisional))
    return BMF(N, tuple(factors), tuple(d["labels"]), family=family, n=n, m=m)


def apply_overrides(bmf: BMF, overrides: dict) -> BMF:
    """`bmf` with provisional (tilde) factors rebuilt from `overrides`, which
    maps their origins to {"base_side": side, "conjugators": [...]}, read
    against bmf's strand count. An omitted key keeps the factor's own side
    or conjugator list; "conjugators": [] clears the list. Overrides that
    are not a dict (null among them; the error names their JSON type), a
    bad origin or a bad spec are a ValueError naming it."""
    if not isinstance(overrides, dict):
        kind = {type(None): "null", bool: "boolean", str: "string", list: "array",
                int: "number", float: "number"}.get(type(overrides), type(overrides).__name__)
        raise ValueError("overrides must be a JSON object mapping factor origins "
                         f"to specs, got {kind}")
    valid = [f.origin for f in bmf.factors if f.provisional]
    unknown = [origin for origin in overrides if origin not in valid]
    if unknown:
        raise ValueError(f"override origins name no provisional factor: {unknown} "
                         f"(valid origins: {valid or 'none'})")
    factors = []
    for f in bmf.factors:
        if f.provisional and f.origin in overrides:
            spec = overrides[f.origin]
            try:
                if not (isinstance(spec, dict) and spec.keys() <= {"base_side", "conjugators"}):
                    raise ValueError("expected an object with an optional 'base_side' and "
                                     f"an optional 'conjugators' list, got {spec!r}")
                base = replace(f.twist.base, side=spec.get("base_side", f.twist.base.side))
                conjugators = (_read_conjugators(spec["conjugators"], bmf.strand_count)
                               if "conjugators" in spec else f.twist.conjugators)
                f = replace(f, twist=ConjugatedTwist(base, f.twist.power, conjugators))
            except ValueError as exc:
                raise ValueError(f"override for {f.origin!r}: {exc}") from None
        factors.append(f)
    return replace(bmf, factors=tuple(factors))

