import random
import pytest

from conicline.catalog import bmf_cn
from conicline.finite_groups import A4, BATTERY, D4, S3, S4
from conicline.fpgroup import (abelianization, compare, count_homs,
                               fingerprint, smith_normal_form, tietze_simplify)
from conicline.paper_groups import (presentation_c2_proj, presentation_cn_affine,
                                    presentation_cn_proj, presentation_t00,
                                    presentation_tn0, presentation_tnm)
from conicline.vankampen import presentation, raw_presentation
from conicline.words import Word, gen, invert, multiply, parse_word
from oracles import count_homs_bruteforce, det_int, random_presentation

GROUPS = (S3, D4, A4, S4)


def test_group_tables():
    for g in GROUPS:
        n = g.order
        assert g.mult[g.identity] == tuple(range(n))
        for a in range(n):
            assert g.mult[a][g.inv[a]] == g.identity
    assert (S3.order, D4.order, A4.order, S4.order) == (6, 8, 12, 24)


def test_conjugacy_classes_and_centralizer_orbits():
    sizes = {g.name: sorted(g.conjugacy_classes.values()) for g in GROUPS}
    assert sizes == {"S3": [1, 2, 3], "D4": [1, 1, 2, 2, 2],
                     "A4": [1, 3, 4, 4], "S4": [1, 3, 6, 6, 8]}
    for g in GROUPS:
        mult = g.mult
        for a, orbits in g.centralizer_orbits.items():
            assert sum(orbits.values()) == g.order
            centralizer = sum(1 for c in range(g.order) if mult[c][a] == mult[a][c])
            assert centralizer * g.conjugacy_classes[a] == g.order
        assert g.centralizer_orbits[g.identity] == g.conjugacy_classes


def test_snf_examples():
    s, u, v = smith_normal_form([[2, 2], [2, 2]])
    assert [s[0][0], s[1][1]] == [2, 0]
    p = presentation(["a", "b"], [parse_word("a b a b"), parse_word("b a b a")])
    res = abelianization(p)
    assert res.rank_free == 1 and res.torsion == (2,)
    q = presentation(["a", "b"],
                     [multiply(parse_word("a b a b"), invert(parse_word("b a b a")))])
    res = abelianization(q)
    assert res.rank_free == 2 and res.torsion == ()


def test_snf_replay_random():
    rng = random.Random(31)
    for _ in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        s, u, v = smith_normal_form(m)
        # replay: U M V == S
        um = [[sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)]
              for i in range(rows)]
        umv = [[sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
               for i in range(rows)]
        assert umv == s
        assert abs(det_int(u)) == 1
        assert abs(det_int(v)) == 1
        # divisibility chain
        diag = [s[i][i] for i in range(min(rows, cols)) if s[i][i]]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_snf_against_sympy_when_available():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(37)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        s, _, _ = smith_normal_form(m)
        ours = [s[i][i] for i in range(min(rows, cols)) if s[i][i]]
        theirs = [int(d) for d in invariant_factors(sympy.Matrix(m)) if d != 0]
        assert ours == theirs, (m, ours, theirs)


def test_tietze_examples():
    p = presentation(["a"], [multiply(gen("a"), invert(gen("a")))])
    out = tietze_simplify(p).presentation
    assert out.labels() == ("a",) and out.relators == ()
    # raw projective C_1 collapses to a single free generator
    raw = raw_presentation(bmf_cn(1), projective=True)
    out = tietze_simplify(raw).presentation
    assert len(out.generators) == 1
    assert out.relators == ()


def test_tietze_eliminates_primed_generator_first():
    raw = raw_presentation(bmf_cn(2))
    out = tietze_simplify(raw, max_passes=1).presentation
    assert "x1p" not in out.labels()


def test_tietze_budget_flag():
    raw = raw_presentation(bmf_cn(3), projective=True)
    res = tietze_simplify(raw, max_passes=1)
    assert res.exhausted
    full = tietze_simplify(raw)
    assert not full.exhausted


def test_count_homs_examples():
    free1 = presentation(["a"], [])
    assert count_homs(free1, S3) == 6
    p = presentation(["a", "b"],
                     [multiply(parse_word("a b a b"), invert(parse_word("b a b a"))),
                      parse_word("a b a b")])
    # Z * Z/2: 6 choices for the free factor times 4 elements of order <= 2
    assert count_homs(p, S3) == 24
    assert count_homs(p, S3) == count_homs_bruteforce(p, S3)


def test_count_homs_matches_bruteforce_random():
    rng = random.Random(41)
    for _ in range(40):
        p = random_presentation(rng, max_gens=3, max_relators=3, max_len=6)
        for g in GROUPS:
            assert count_homs(p, g) == count_homs_bruteforce(p, g), (g, p)


def _random_word(rng, labels, max_len=6):
    return Word(tuple((rng.choice(labels), rng.choice((1, -1)))
                      for _ in range(rng.randint(1, max_len))))


def _power(label, exponent):
    return Word(((label, 1 if exponent > 0 else -1),) * abs(exponent))


def _edge_presentations(rng):
    """Inputs that exercise the class and centralizer-orbit weights at the
    boundaries of the search."""
    for _ in range(4):
        # one generator, with powers such as a^3
        rels = [_power("a", rng.choice((2, 3, -3, 4, 6)))]
        rels += [_random_word(rng, ["a"]) for _ in range(rng.randint(0, 2))]
        yield presentation(["a"], rels)
    for k in (1, 2, 3):
        # no relators at all
        yield presentation([f"g{i}" for i in range(k)], [])
    for _ in range(4):
        # g2 appears in no relator
        labels = ["g0", "g1", "g2"]
        rels = [_random_word(rng, labels[:2]) for _ in range(rng.randint(1, 3))]
        yield presentation(labels, rels)
    for _ in range(4):
        # a relator in one generator alone, which the search order puts
        # first; other relators mix in powers of it
        labels = ["g0", "g1", "g2"]
        lone = rng.choice(labels)
        other = rng.choice([lab for lab in labels if lab != lone])
        rels = [_power(lone, rng.choice((2, 3, -3))),
                multiply(_power(other, 3), _random_word(rng, labels)),
                _random_word(rng, labels)]
        yield presentation(labels, rels)


def test_count_homs_matches_bruteforce_edge_cases():
    rng = random.Random(47)
    for p in _edge_presentations(rng):
        for g in GROUPS:
            assert count_homs(p, g) == count_homs_bruteforce(p, g), (g, p)


def test_count_homs_matches_bruteforce_on_catalog():
    for p in (presentation_c2_proj(), presentation_t00()):
        for g in GROUPS:
            assert count_homs(p, g) == count_homs_bruteforce(p, g), (g, p)


def test_count_homs_pinned_stated_counts():
    """Counts too large for the brute-force oracle, pinned from the plain
    backtracking search; a wrong class or orbit weight changes them."""
    cases = [(presentation_cn_proj(6), {"S4": 71256, "D4": 24064}),
             (presentation_cn_affine(5), {"S4": 50400}),
             (presentation_tn0(5), {"S4": 70872}),
             (presentation_tnm(2, 3), {"D4": 15616, "S4": 42432})]
    for p, expected in cases:
        assert {name: count_homs(p, BATTERY[name]) for name in expected} == expected


def test_fingerprint_free_group():
    fp = fingerprint(presentation(["a"], []), ("S3",))
    assert fp.counts == {"S3": 6}
    fp2 = fingerprint(presentation(["a", "b"], []), ("S3",))
    assert fp2.counts == {"S3": 36}


def test_empty_battery_is_rejected():
    p = presentation(["a"], [parse_word("a a")])
    with pytest.raises(ValueError, match="empty fingerprint battery"):
        fingerprint(p, ())
    with pytest.raises(ValueError, match="empty fingerprint battery"):
        compare(p, p, [])
    assert set(fingerprint(p).counts) == set(BATTERY)


def test_tietze_preserves_fingerprints_random():
    rng = random.Random(43)
    for _ in range(200):
        p = random_presentation(rng, max_gens=3, max_relators=3, max_len=5)
        simplified = tietze_simplify(p).presentation
        assert count_homs(p, S3) == count_homs(simplified, S3)
        a1, a2 = abelianization(p), abelianization(simplified)
        assert (a1.rank_free, a1.torsion) == (a2.rank_free, a2.torsion)


def test_compare_distinguishes():
    z2 = presentation(["a"], [parse_word("a a")])
    z3 = presentation(["a"], [parse_word("a a a")])
    rep = compare(z2, z3, ("S3",))
    assert rep.verdict == "distinguished"
    assert rep.per_target["S3"] == (4, 3)


def test_compare_t00_vs_free_group():
    free2 = presentation(["a", "b"], [])
    rep = compare(presentation_t00(), free2, ("S3",))
    assert rep.verdict == "distinguished"
    assert rep.per_target["S3"] == (24, 36)


def test_s4_skip_rule():
    many = presentation([f"g{i}" for i in range(1, 8)], [])
    fp = fingerprint(many, ("S3", "S4"))
    assert "S4" in fp.skipped
    assert "S4" not in fp.counts
