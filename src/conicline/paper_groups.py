"""The stated (simplified) fundamental-group presentations for each
arrangement family, transcribed with the original generator names.

The relators are written with the shapes of `words`: sq(a, b) is the
tangency relator (ab)^2 ((ba)^2)^-1, commutator(a, b) is a b a^-1 b^-1, and
every relation "lhs = rhs" is stored as the relator eq(lhs, rhs) = lhs rhs^-1.
"""

from __future__ import annotations

from .vankampen import Presentation, presentation
from .words import Word, commutator, eq, gen, invert, multiply, sq


def _x(k: int) -> Word:
    return gen(f"x{k}")


def _labels(ks) -> list[str]:
    return [f"x{k}" for k in ks]


# ---------------------------------------------------------------- C family

def presentation_c2_proj() -> Presentation:
    return presentation(_labels([1, 2]), [sq(_x(1), _x(2))])


def _cn_relators(n: int) -> list[Word]:
    """The relators both C_n presentations share: sq(x1, x_i), [x_j, x1^-1 x_i x1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x1 = _x(1)
    rels = [sq(x1, _x(i)) for i in range(2, n + 2)]
    rels += [commutator(_x(j), multiply(invert(x1), _x(i), x1))
             for i in range(2, n + 2) for j in range(i + 1, n + 2)]
    return rels


def presentation_cn_affine(n: int) -> Presentation:
    """Conic generator x1, line generators x2..x_{n+1}."""
    rels = _cn_relators(n)
    rels.append(commutator(multiply(*[_x(k) for k in range(n + 1, 1, -1)]), _x(1)))
    return presentation(_labels(range(1, n + 2)), rels)


def presentation_cn_proj(n: int) -> Presentation:
    rels = _cn_relators(n)
    rels.append(multiply(*[_x(k) for k in range(n + 1, 1, -1)], _x(1), _x(1)))
    return presentation(_labels(range(1, n + 2)), rels)


# ---------------------------------------------------------------- T family

def presentation_t00() -> Presentation:
    x1, x2 = _x(1), _x(2)
    ab = multiply(x1, x2)
    ba = multiply(x2, x1)
    return presentation(_labels([1, 2]), [multiply(ab, ab), multiply(ba, ba)])


def presentation_tn0(n: int) -> Presentation:
    """Lines x1..x_{n-1}; conics x_n and x_{n+2} (projective group)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xc = _x(n + 2)
    rels = [sq(_x(i), xc) for i in range(1, n + 1)]
    rels += [commutator(_x(i), _x(n)) for i in range(1, n)]
    rels += [commutator(_x(i), multiply(xc, _x(j), invert(xc)))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return presentation(_labels(list(range(1, n + 1)) + [n + 2]), rels)


def presentation_tnm(n: int, m: int) -> Presentation:
    """The general statement: x2 for Q1, x5 for Q2, x6..x_{n+4} for
    L_2..L_n, x_{n+5}..x_{n+m+4} for L'_1..L'_m (projective group).

    m = 0 is accepted for the specialization check against the T_{n,0}
    presentation (every family touching an L' generator becomes vacuous).
    """
    if n < 1 or m < 0:
        raise ValueError("n must be >= 1 and m >= 0")
    x2, x5 = _x(2), _x(5)
    lines = list(range(6, n + 5))
    primes = list(range(n + 5, n + m + 5))
    rels: list[Word] = []
    origins: list[str] = []

    def add(tag, w):
        rels.append(w)
        origins.append(tag)

    if m >= 1:
        lhs = multiply(invert(_x(n + 5)), x5, _x(n + 5))
        inner = multiply(*[invert(_x(i)) for i in range(n + 6, n + m + 5)], x5,
                         *[_x(i) for i in range(n + m + 4, n + 5, -1)])
        add("(1)", eq(lhs, inner))
    for i in [5] + lines:
        add("(2)", sq(x2, _x(i)))
    for i in primes:
        add("(3)", sq(x5, _x(i)))
    for i in lines:
        for j in [5] + primes:
            add("(4)", commutator(_x(i), _x(j)))
    for i in lines:
        add("(5)", commutator(_x(i), multiply(x2, x5, invert(x2))))
    for i in lines:
        for j in lines:
            if i < j:
                add("(6)", commutator(multiply(invert(x2), _x(i), x2), _x(j)))
    for i in range(n + 6, n + m + 5):
        add("(7)", commutator(x2, _x(i)))
    for i in primes:
        add("(8)", commutator(multiply(x5, x2, invert(x5)), _x(i)))
    if m >= 1:
        for i in [2] + list(range(n + 6, n + m + 5)):
            add("(9)", commutator(_x(n + 5), _x(i)))
    for i in range(n + 6, n + m + 5):
        for j in range(i + 1, n + m + 5):
            add("(10)", commutator(multiply(invert(x5), _x(i), x5), _x(j)))
    return presentation(_labels([2, 5] + lines + primes), rels, origins)
