"""The Artin-action kernel against the letter-by-letter oracle, which has its
own sigma_i table: the half-twist images that the kernel derives from each
band word and the endpoint loops of every band, seeded random braid words
with cancelling pairs and repeated conjugated blocks, and every factor of
the benchmark grid's relation pairs and compiled words."""

import random

import pytest

import oracles
from conicline import vankampen, words
from conicline.arrangement import Arrangement
from conicline.braid import (ABOVE, BELOW, ArtinWord, Skeleton, apply_braid, artin_action,
                             band_transport, compile_factor, compile_skeleton,
                             endpoint_loops, exponent_sum, permutation, twist)
from conicline.words import Word, _reduce, gen

from test_arrangement import BUILD_GRID


def _random_letters(rng, n, count):
    return [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(count)]


def _random_braid(rng, n):
    """Random letters, cancelling pairs s s^-1 and blocks (D s D^-1)^p, in
    random order, so that the free reduction has work to do."""
    letters = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            letters += _random_letters(rng, n, rng.randint(0, 3))
        elif kind == 1:
            i, s = _random_letters(rng, n, 1)[0]
            letters += [(i, s), (i, -s)]
        else:
            d = _random_letters(rng, n, rng.randint(0, 2))
            core = _random_letters(rng, n, 1)
            d_inv = [(i, -s) for i, s in reversed(d)]
            letters += (d + core + d_inv) * rng.randint(1, 3)
    return ArtinWord(n, tuple(letters))


def _random_word(rng, n):
    return Word(tuple((f"x{rng.randint(1, n)}", rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 8))))


@pytest.mark.parametrize("n", range(2, 9))
def test_half_twists_agree_with_oracle(n):
    """For every band 1 <= i < j <= n, on both sides: one pass of H^power,
    for the half-twist (power +-1) and the full twist (power +-2), sends
    each generator of F_n where the letter-by-letter action of the compiled
    band word to that power does, and the base's endpoint loops are the
    oracle's (x_c, x_{c+1}) acted on by D^-1."""
    gens = [gen(f"x{k}") for k in range(1, n + 1)]
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            for side in (BELOW, ABOVE):
                s = Skeleton(i, j, side)
                for power in (1, -1, 2, -2):
                    band = oracles.braid_power(compile_skeleton(s, n), power)
                    for x in gens:
                        assert twist(x.letters, (i, j, side, power)) == \
                            oracles.apply_braid(band, x).letters, (s, power, x)
                d, core = band_transport(s)
                d_inverse = oracles.braid_inverse(ArtinWord(n, d))
                assert endpoint_loops(s) == tuple(
                    oracles.apply_braid(d_inverse, gen(f"x{k}")).letters
                    for k in (core, core + 1)), s


@pytest.mark.parametrize("n", range(2, 9))
def test_random_braids_agree_with_oracle(n):
    rng = random.Random(1000 + n)
    cancelled = 0
    for _ in range(40):
        b = _random_braid(rng, n)
        cancelled += len(b.letters) - len(_reduce(b.letters))
        assert permutation(b) == oracles.permutation(b)
        words = [gen(f"x{k}") for k in range(1, n + 1)]
        words += [_random_word(rng, n) for _ in range(3)]
        for w in words:
            assert apply_braid(b, w) == oracles.apply_braid(b, w), (b, w)
    assert cancelled > 0


def test_kernel_reduces_after_every_letter(monkeypatch):
    """One reduction per braid letter (the one in `words.substitute`) and
    one as the result becomes a Word, and no letter more than triples the
    word it acts on."""
    calls = []

    def spy(letters):
        letters = list(letters)
        out = _reduce(letters)
        calls.append((len(letters), len(out)))
        return out

    x1 = gen("x1")
    monkeypatch.setattr(words, "_reduce", spy)
    b = ArtinWord(3, ((1, 1), (2, 1), (2, -1)) + ((1, 1), (2, -1)) * 6)
    apply_braid(b, x1)
    assert len(calls) == 1 + len(b.letters)
    for (_, before), (size, _) in zip([(1, len(x1))] + calls, calls):
        assert size <= 3 * before


@pytest.mark.parametrize("family,n,m", BUILD_GRID)
def test_grid_relation_pairs_agree_with_oracle(family, n, m):
    bmf = Arrangement(family, n, m).bmf()
    rename = oracles.fiber_rename(bmf.labels)
    for f in bmf.factors:
        assert vankampen.relation_pair(f, bmf.strand_count, rename) == tuple(
            w.letters for w in oracles.relation_pair(f, bmf.strand_count, bmf.labels)), f.origin


@pytest.mark.parametrize("family,n,m", BUILD_GRID)
def test_grid_compiled_factors_equal_conjugated_band_powers(family, n, m):
    """`compile_factor`'s e^-1 s_c^p e is V^-1 band^p V as a braid: the Artin
    action is faithful, so equal images of every generator mean equal
    braids. Only powers 2 and 4 may change the letters (D^-1 D no longer
    sits between repeated bands), and never lengthen them."""
    bmf = Arrangement(family, n, m).bmf()
    N = bmf.strand_count
    for f in bmf.factors:
        t = f.twist
        v = oracles.conjugator_braid(t, N)
        old = oracles.braid_product(oracles.braid_inverse(v),
                                    oracles.braid_power(compile_skeleton(t.base, N), t.power), v)
        new = compile_factor(t, N)
        assert artin_action(new) == artin_action(old), f.origin
        assert permutation(new) == permutation(old), f.origin
        assert exponent_sum(new) == exponent_sum(old) == t.power, f.origin
        assert len(new.letters) <= len(old.letters), f.origin
        if t.power == 1:
            assert new.letters == old.letters, f.origin
