"""Parametric constructors for the braid monodromy factorizations of the
conic-line arrangements C_n (one conic, n tangent lines), T_{n,0} (two
tangent conics, n lines tangent to one of them) and T_{n,m} (lines tangent
to both), with combinatorial audits.

Each factor is a conjugated half-twist power tagged with its singularity
type: branch points have exponent 1, nodes 2, tangencies 4. The factor
lists are transcribed from the source computations; a handful of factors
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

import enum
import re
from dataclasses import dataclass, replace

from .braid import (ABOVE, BELOW, ConjugatedTwist, Skeleton, compile_factor,
                    exponent_sum, identity_permutation, permutation)


class SingType(enum.Enum):
    BRANCH = 1
    NODE = 2
    TANGENCY = 4

    @property
    def exponent(self) -> int:
        return self.value


_BY_EXPONENT = {t.exponent: t for t in SingType}


@dataclass(frozen=True)
class BMFactor:
    twist: ConjugatedTwist
    sing_type: SingType
    origin: str = ""
    provisional: bool = False

    def __post_init__(self):
        if self.twist.power != self.sing_type.exponent:
            raise ValueError(
                f"factor power {self.twist.power} does not match "
                f"singularity type {self.sing_type.name}")


@dataclass(frozen=True)
class BMF:
    """An ordered braid monodromy factorization of Delta^2 in B_N."""
    strand_count: int
    factors: tuple[BMFactor, ...]
    labels: tuple[str, ...]
    family: str = ""
    n: int | None = None
    m: int | None = None

    def __post_init__(self):
        if len(self.labels) != self.strand_count:
            raise ValueError("labels must name every fiber point")

    def counts(self) -> dict[str, int]:
        out = {"branch": 0, "node": 0, "tangency": 0}
        for f in self.factors:
            out[f.sing_type.name.lower()] += 1
        return out


def _skel(i: int, j: int, side: str = BELOW) -> Skeleton:
    return Skeleton(min(i, j), max(i, j), side)


def _factor(i, j, power, conjs=(), side=BELOW, origin="", provisional=False) -> BMFactor:
    twist = ConjugatedTwist(_skel(i, j, side), power,
                            tuple((_skel(a, b, sd), p) for (a, b, sd, p) in conjs))
    return BMFactor(twist, _BY_EXPONENT[power], origin, provisional)


# --------------------------------------------------------------------------
# C_n: one conic, n tangent lines (B_{n+2})
# --------------------------------------------------------------------------

def bmf_cn(n: int) -> BMF:
    """Delta^2 of C_n = Q + L_1 + ... + L_n.

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
    """Delta^2 of T_{n,0}. The factor for the second crossing of L_{n-1}
    with the conic (n, n+1) is restored (the general display drops it; the
    explicit n = 2 list shows it as a duplicated factor)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        fixed = bmf_t10()
        return BMF(5, fixed.factors, fixed.labels, family="T", n=1, m=0)
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
    """Delta^2 of T_{n,m}, n >= 1, m >= 1, from the twelve-row factor table.

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

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class AuditReport:
    strand_count: int
    exponent_sum: int
    expected_exponent_sum: int
    counts: dict[str, int]
    expected: dict[str, int] | None
    checks: tuple[AuditCheck, ...]
    provisional_factors: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "strand_count": self.strand_count,
            "exponent_sum": self.exponent_sum,
            "expected_exponent_sum": self.expected_exponent_sum,
            "counts": dict(self.counts),
            "expected_counts": dict(self.expected) if self.expected else None,
            "checks": [c.to_json() for c in self.checks],
            "provisional_factors": list(self.provisional_factors),
            "passed": self.passed,
        }


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
    impure = []
    branch_perms = []
    exps_ok = True
    for f in b.factors:
        compiled = compile_factor(f.twist, N)
        exps_ok = exps_ok and exponent_sum(compiled) == f.twist.power
        perm = permutation(compiled)
        if f.sing_type is SingType.BRANCH:
            i, j = f.twist.endpoints()
            want = list(range(1, N + 1))
            want[i - 1], want[j - 1] = j, i
            if perm.images != tuple(want):
                impure.append(f.origin or str(f.twist.endpoints()))
            branch_perms.append(perm)
        elif not perm.is_identity():
            impure.append(f.origin or str(f.twist.endpoints()))
    checks.append(AuditCheck("factor_purity", not impure,
                             "all even factors pure, branches transpose their endpoints"
                             if not impure else f"violations: {impure}"))
    prod = identity_permutation(N)
    for perm in branch_perms:
        prod = prod * perm
    checks.append(AuditCheck("branch_product_identity", prod.is_identity(),
                             "branch transpositions multiply to the identity"))
    checks.append(AuditCheck("conjugation_exponent_free", exps_ok,
                             "exponent sum of each compiled factor equals its power"))
    provisional = tuple(f.origin for f in b.factors if f.provisional)
    return AuditReport(N, total, expected_total, counts, exp, tuple(checks), provisional)


# --------------------------------------------------------------------------
# shorthand expansion (Z^2_{i,j j'} and Z^2_{i i',j j'})
# --------------------------------------------------------------------------

class ShorthandError(ValueError):
    pass


_TOKEN = re.compile(r"^Z\^?2_\{([^,}]+),([^,}]+)\}$")


def _parse_point_group(text: str) -> list[str]:
    text = text.strip()
    if " " in text:
        return text.split()
    m = re.fullmatch(r"(\d+)\1'", text)  # compact pair like 22'
    if m:
        return [m.group(1), m.group(1) + "'"]
    if re.fullmatch(r"\d+'?", text):
        return [text]
    raise ShorthandError(f"cannot parse point group {text!r}")


def expand_shorthand(token: str, names: dict[str, int] | None = None) -> list[ConjugatedTwist]:
    """Expand Z^2_{i,j j'} -> [Z^2_{i j'}, Z^2_{i j}] and
    Z^2_{i i',j j'} -> [Z^2_{i' j'}, Z^2_{i' j}, Z^2_{i j'}, Z^2_{i j}].

    Point names resolve to fiber indices through `names`; unprimed names
    default to their own integer value.
    """
    m = _TOKEN.match(token.strip())
    if not m:
        raise ShorthandError(f"not a recognized shorthand: {token!r}")
    left = _parse_point_group(m.group(1))
    right = _parse_point_group(m.group(2))
    if len(right) != 2 or right[1] != right[0] + "'":
        raise ShorthandError(f"right group must be a pair j j': {token!r}")
    if not (len(left) == 1 or (len(left) == 2 and left[1] == left[0] + "'")):
        raise ShorthandError(f"left group must be i or i i': {token!r}")

    def resolve(name: str) -> int:
        if names and name in names:
            return names[name]
        if name.endswith("'"):
            raise ShorthandError(f"primed point {name!r} needs a names mapping")
        return int(name)

    j, jp = resolve(right[0]), resolve(right[1])
    sources = [resolve(nm) for nm in left]
    out = []
    for a in reversed(sources):  # i' part first when present
        for b in (jp, j):
            out.append(ConjugatedTwist(_skel(a, b), 2))
    return out


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
            "sing_type": f.sing_type.name.lower(),
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
    N = d["N"]
    factors = []
    for k, fd in enumerate(d["factors"]):
        try:
            if not isinstance(fd, dict):
                raise ValueError(f"expected an object, got {fd!r}")
            power = fd.get("power")
            if type(power) is not int or power not in _BY_EXPONENT:
                raise ValueError(f"power must be one of 1, 2, 4, got {power!r}")
            twist = ConjugatedTwist(_read_skeleton(fd.get("base"), N), power,
                                    _read_conjugators(fd.get("conjugators", []), N))
            sing_type = _BY_EXPONENT[power]
            if fd.get("sing_type", sing_type.name.lower()) != sing_type.name.lower():
                raise ValueError(f"sing_type {fd['sing_type']!r} does not match power {power}")
        except ValueError as exc:
            raise ValueError(f"factor {k}: {exc}") from None
        factors.append(BMFactor(twist, sing_type, fd.get("origin", ""),
                                fd.get("provisional", False)))
    return BMF(N, tuple(factors), tuple(d["labels"]),
               family=d.get("family", ""), n=d.get("n"), m=d.get("m"))


def apply_overrides(bmf: BMF, overrides: dict | None) -> BMF:
    """`bmf` with provisional (tilde) factors rebuilt from `overrides`, which
    maps their origins to {"base_side": side, "conjugators": [...]} (omitted:
    the factor's side, no conjugators), read against bmf's strand count. A
    bad origin or spec is a ValueError naming it."""
    if overrides is None:
        return bmf
    if not isinstance(overrides, dict):
        raise ValueError("overrides must be a JSON object mapping factor origins "
                         f"to specs, got {type(overrides).__name__}")
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
                    raise ValueError("expected an object with a 'conjugators' list and an "
                                     f"optional 'base_side', got {spec!r}")
                base = replace(f.twist.base, side=spec.get("base_side", f.twist.base.side))
                f = replace(f, twist=ConjugatedTwist(base, f.twist.power, _read_conjugators(
                    spec.get("conjugators", []), bmf.strand_count)))
            except ValueError as exc:
                raise ValueError(f"override for {f.origin!r}: {exc}") from None
        factors.append(f)
    return replace(bmf, factors=tuple(factors))


# --------------------------------------------------------------------------
# singularity tables for the two smallest arrangements
# --------------------------------------------------------------------------

def singularity_table_c1() -> list[dict]:
    return [
        {"point": "P1", "exponent": 1, "diffeomorphism": "half-twist R.I2 <1>"},
        {"point": "<2,3>", "exponent": 4, "diffeomorphism": "Delta^2 <2,3>"},
        {"point": "<1,2>", "exponent": 1, "diffeomorphism": "half-twist I2.R <1>"},
    ]


def singularity_table_c2() -> list[dict]:
    return [
        {"point": "P1", "exponent": 1, "diffeomorphism": "half-twist R.I2 <1>"},
        {"point": "<2,3>", "exponent": 4, "diffeomorphism": "Delta^2 <2,3>"},
        {"point": "<3,4>", "exponent": 2, "diffeomorphism": "Delta <3,4>"},
        {"point": "<2,3>", "exponent": 4, "diffeomorphism": "Delta^2 <2,3>"},
        {"point": "<1,2>", "exponent": 1, "diffeomorphism": "half-twist I2.R <1>"},
    ]
