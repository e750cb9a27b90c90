"""Test-only oracles and input generators: a brute-force hom counter, an
exact integer determinant, and random presentations."""

import itertools
import random
from fractions import Fraction

from conicline.finite_groups import FiniteGroup
from conicline.vankampen import Presentation, presentation
from conicline.words import Word


def det_int(matrix) -> int:
    """Determinant by Gaussian elimination over `Fraction`; exact for integer
    matrices."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    out = Fraction(sign)
    for k in range(n):
        out *= m[k][k]
    assert out.denominator == 1
    return int(out)


def count_homs_bruteforce(p: Presentation, target: FiniteGroup) -> int:
    """Plain |G|^g enumeration; the oracle count_homs must agree with."""
    labels = [g.label for g in p.generators]
    mult, inv, ident = target.mult, target.inv, target.identity
    total = 0
    for combo in itertools.product(range(target.order), repeat=len(labels)):
        assign = dict(zip(labels, combo))
        ok = True
        for r in p.relators:
            acc = ident
            for lab, sign in r.letters:
                e = assign[lab]
                acc = mult[acc][e if sign > 0 else inv[e]]
            if acc != ident:
                ok = False
                break
        if ok:
            total += 1
    return total


def random_presentation(rng: random.Random, max_gens: int = 3,
                        max_relators: int = 3, max_len: int = 6) -> Presentation:
    k = rng.randint(1, max_gens)
    labels = [f"g{i}" for i in range(1, k + 1)]
    rels = []
    for _ in range(rng.randint(0, max_relators)):
        letters = tuple((rng.choice(labels), rng.choice((1, -1)))
                        for _ in range(rng.randint(1, max_len)))
        rels.append(Word(letters))
    return presentation(labels, rels)
