import random

import pytest

from conicline.braid import (ABOVE, BELOW, ArtinWord, ConjugatedTwist,
                             Skeleton, apply_braid, artin_action,
                             braid_text, compile_factor, compile_skeleton,
                             exponent_sum, full_twist, permutation)
from conicline.words import gen, invert, multiply

from oracles import braid_inverse, braid_power, braid_product, transposition


def test_skeleton_validation():
    with pytest.raises(ValueError):
        Skeleton(3, 2)
    with pytest.raises(ValueError):
        Skeleton(1, 2, "sideways")
    with pytest.raises(ValueError):
        compile_skeleton(Skeleton(1, 5), 4)
    with pytest.raises(ValueError, match="exceeds strand count"):
        compile_factor(ConjugatedTwist(Skeleton(1, 5)), 4)
    # the base lies in B_4 and only a conjugator does not; B_5 holds both
    for conjugators in (((Skeleton(2, 5), 2),),
                        ((Skeleton(1, 3, ABOVE), -2), (Skeleton(3, 5, ABOVE), 2))):
        t = ConjugatedTwist(Skeleton(1, 2), 1, conjugators)
        with pytest.raises(ValueError, match="exceeds strand count 4"):
            compile_factor(t, 4)
        assert exponent_sum(compile_factor(t, 5)) == 1


def test_adjacent_skeletons_compile_to_single_letter():
    for side in (BELOW, ABOVE):
        b = compile_skeleton(Skeleton(1, 2, side), 3)
        assert b.letters == ((1, 1),)


def test_band_is_conjugate_of_core_and_transposes_endpoints():
    # oracle: a band on (i, j) is some conjugate of a single positive letter
    # whose permutation is exactly the transposition (i j)
    for n in (3, 4, 6):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                for side in (BELOW, ABOVE):
                    b = compile_skeleton(Skeleton(i, j, side), n)
                    assert exponent_sum(b) == 1
                    assert permutation(b) == transposition(n, i, j)
                    k = len(b.letters) // 2
                    conj, core, back = b.letters[:k], b.letters[k], b.letters[k + 1:]
                    assert core[1] == 1
                    assert back == tuple((x, -s) for x, s in reversed(conj))


def test_below_and_above_differ_as_braids():
    below = compile_skeleton(Skeleton(1, 3, BELOW), 3)
    above = compile_skeleton(Skeleton(1, 3, ABOVE), 3)
    assert artin_action(below) != artin_action(above)


def test_compile_factor_example_2a():
    # Z_34 conjugated by the full twist of the above path (1,3), in B_4
    t = ConjugatedTwist(Skeleton(3, 4), 1, ((Skeleton(1, 3, ABOVE), 2),))
    b = compile_factor(t, 4)
    conj = braid_power(compile_skeleton(Skeleton(1, 3, ABOVE), 4), 2)
    expected = braid_product(braid_inverse(conj), compile_skeleton(Skeleton(3, 4), 4), conj)
    assert b.letters == expected.letters


def test_compile_factor_example_2b():
    # conjugate first by Z_23^2 and then by Z_13^2
    t = ConjugatedTwist(Skeleton(3, 4), 1,
                        ((Skeleton(2, 3), 2), (Skeleton(1, 3), 2)))
    b = compile_factor(t, 4)
    c1 = braid_power(compile_skeleton(Skeleton(2, 3), 4), 2)
    c2 = braid_power(compile_skeleton(Skeleton(1, 3), 4), 2)
    expected = braid_product(braid_inverse(c2), braid_inverse(c1),
                             compile_skeleton(Skeleton(3, 4), 4), c1, c2)
    assert b.letters == expected.letters


def test_compile_factor_negative_power_inverts_positive():
    """s_c^power is s_c^sign(power) repeated |power| times, so a negative
    power gives the inverse braid, not e^-1 e."""
    for t, n in ((ConjugatedTwist(Skeleton(1, 3)), 3),
                 (ConjugatedTwist(Skeleton(1, 4, ABOVE), 2, ((Skeleton(2, 4), -2),)), 4)):
        positive = compile_factor(t, n)
        negative = compile_factor(ConjugatedTwist(t.base, -t.power, t.conjugators), n)
        assert exponent_sum(negative) == -t.power
        assert negative.letters == braid_inverse(positive).letters


def test_conjugator_powers_must_be_even():
    for p in (1, 0, 4, -4, 10**12):
        with pytest.raises(ValueError, match="must be 2 or -2"):
            ConjugatedTwist(Skeleton(1, 2), 1, ((Skeleton(2, 3), p),))


def test_artin_action_identity_and_inverse():
    ident = artin_action(ArtinWord(3))
    assert all(ident[f"x{k}"] == gen(f"x{k}") for k in (1, 2, 3))
    b = ArtinWord(3, ((1, 1), (1, -1)))
    assert artin_action(b) == ident


def test_artin_action_letter_rule():
    # the calibrated convention: s_1 sends x1 -> x2, x2 -> x2 x1 x2^-1
    act = artin_action(ArtinWord(3, ((1, 1),)))
    assert act["x1"] == gen("x2")
    assert act["x2"] == multiply(gen("x2"), gen("x1"), invert(gen("x2")))
    assert act["x3"] == gen("x3")


def test_braid_relations_hold_in_action():
    n = 4
    for i in (1, 2):
        lhs = artin_action(ArtinWord(n, ((i, 1), (i + 1, 1), (i, 1))))
        rhs = artin_action(ArtinWord(n, ((i + 1, 1), (i, 1), (i + 1, 1))))
        assert lhs == rhs
    far = artin_action(ArtinWord(n, ((1, 1), (3, 1))))
    raf = artin_action(ArtinWord(n, ((3, 1), (1, 1))))
    assert far == raf


def test_action_preserves_descending_product():
    rng = random.Random(23)
    for n in range(2, 9):
        product = multiply(*[gen(f"x{k}") for k in range(n, 0, -1)])
        for _ in range(20):
            letters = tuple((rng.randint(1, n - 1), rng.choice((1, -1)))
                            for _ in range(rng.randint(0, 12)))
            b = ArtinWord(n, letters)
            assert apply_braid(b, product) == product


def test_full_twist_properties():
    b = full_twist(2)
    assert b.letters == ((1, 1), (1, 1))
    assert exponent_sum(b) == 2
    assert permutation(b) == (1, 2)
    assert exponent_sum(full_twist(4)) == 12
    for n in (2, 3, 5):
        assert permutation(full_twist(n)) == tuple(range(1, n + 1))


def test_full_twist_is_central_conjugation():
    # Delta^2 acts as conjugation by the descending product x_N ... x_1
    for n in range(2, 6):
        act = artin_action(full_twist(n))
        p = multiply(*[gen(f"x{k}") for k in range(n, 0, -1)])
        for k in range(1, n + 1):
            assert act[f"x{k}"] == multiply(p, gen(f"x{k}"), invert(p))


def test_permutation_of_band():
    b = compile_skeleton(Skeleton(1, 3, BELOW), 3)
    assert permutation(b) == transposition(3, 1, 3)
    # any conjugate of s_1 by s_2^±1 transposes (1 3): compose (2 3)(1 2)(2 3)
    assert permutation(ArtinWord(3, ((2, 1), (1, 1), (2, -1)))) == \
        transposition(3, 1, 3)


def test_even_powers_are_pure():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        side = rng.choice((BELOW, ABOVE))
        p = rng.choice((2, -2, 4))
        b = braid_power(compile_skeleton(Skeleton(i, j, side), n), p)
        assert permutation(b) == tuple(range(1, n + 1))


def test_exponent_sum_of_factor_equals_power():
    t = ConjugatedTwist(Skeleton(1, 4), 4,
                        ((Skeleton(2, 4, ABOVE), -2), (Skeleton(1, 2), 2)))
    assert exponent_sum(compile_factor(t, 5)) == 4


def test_braid_text_roundtrip():
    b = ArtinWord(4, ((1, 1), (2, -1), (1, 1)))
    assert braid_text(b) == "s1 s2^-1 s1"
    assert braid_text(ArtinWord(4)) == "1"
