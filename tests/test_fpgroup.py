import hashlib
import random
import sys
import tracemalloc

import pytest

from conicline.arrangement import Arrangement
from conicline.catalog import bmf_cn, bmf_tn0, bmf_tnm
from conicline.finite_groups import A4, BATTERY, D4, S3, S4
from conicline.fpgroup import (_bigram_index, _rotations, _shorten_with,
                               abelianization, compare, count_homs,
                               fingerprint, smith_normal_form, tietze_simplify)
from conicline.paper_groups import (presentation_c2_proj, presentation_cn_affine,
                                    presentation_cn_proj, presentation_t00,
                                    presentation_tn0, presentation_tnm)
from conicline.vankampen import (Presentation, presentation, presentation_text,
                                 raw_presentation)
from conicline.words import Word, gen, invert, multiply
from oracles import (count_homs_backtrack, count_homs_bruteforce, det_int,
                     parse_word, random_presentation, shorten_with_naive)

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


def checked_snf(m):
    """The nonzero diagonal of smith_normal_form(m), after checking the
    replay U M V = S, unimodular U and V, a positive divisibility chain and
    transform entries under 128 bits."""
    rows, cols = len(m), len(m[0])
    s, u, v = smith_normal_form(m)
    um = [[sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)]
          for i in range(rows)]
    assert [[sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
            for i in range(rows)] == s
    assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
    assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = [s[i][i] for i in range(min(rows, cols)) if s[i][i]]
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert max(abs(x).bit_length() for r in u + v for x in r) < 128
    return diag


def test_snf_transforms_stay_bounded():
    m = [[-12, 5, -7, 7, 0], [-12, 12, -10, -10, -9], [-11, -9, 5, 9, -4],
         [8, -9, -11, 3, -5], [-10, 11, 6, 10, -6]]
    assert checked_snf(m) == [1, 1, 1, 1, 961500]


def test_abelianization_of_a_dense_6x5_exponent_matrix():
    m = [[-7, -4, 8, 5, 9], [5, 2, 6, -12, 3], [-4, 5, -1, 5, -9],
         [1, 11, -12, 5, 6], [4, 9, 5, 1, 1], [6, 0, 11, 4, 7]]
    labels = [f"x{k}" for k in range(1, 6)]
    relators = [Word(tuple((labels[j], 1 if e > 0 else -1)
                           for j, e in enumerate(row) for _ in range(abs(e))))
                for row in m]
    res = abelianization(presentation(labels, relators))
    assert res.diagonal == (1, 1, 1, 1, 1) and res.rank_free == 0
    assert checked_snf(m) == [1, 1, 1, 1, 1]


def test_snf_seeded_stress():
    try:
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors
    except ImportError:
        invariant_factors = None
    rng = random.Random(53)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        diag = checked_snf(m)
        if invariant_factors is not None:
            assert diag == [int(d) for d in invariant_factors(Matrix(m)) if d], m


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


def _reduced_word(rng, labels, max_len):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        lab = rng.choice(labels)
        sign = rng.choice((1, -1))
        if letters and letters[-1] == (lab, -sign):
            sign = -sign
        letters.append((lab, sign))
    return Word(tuple(letters))


def _criterion_06_raw():
    for n in range(1, 5):
        yield raw_presentation(bmf_cn(n))
        yield raw_presentation(bmf_cn(n), projective=True)
    for n in range(1, 4):
        yield raw_presentation(bmf_tn0(n), projective=True)
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        yield raw_presentation(bmf_tnm(n, m), projective=True)


def test_shorten_with_matches_naive_scan():
    """The indexed shortening returns the naive window scan's word on random
    reduced words, at caps around |r|, and on every ordered relator pair of
    the criterion-06 raw presentations at the cap Tietze uses."""
    rng = random.Random(53)
    cases = []
    for _ in range(1000):
        labels = ["a", "b", "c"][:rng.randint(2, 3)]
        s = _reduced_word(rng, labels, 8)
        r = _reduced_word(rng, labels, 30)
        cases += [(r, s, cap) for cap in (0, 4, len(r) - 1, len(r), 10 ** 6)]
    for p in _criterion_06_raw():
        rels = p.relators
        cap = max(4, 4 * max(len(r) for r in rels))
        cases += [(r, s, cap) for i, r in enumerate(rels)
                  for j, s in enumerate(rels) if i != j]
    # dict.fromkeys drops repeated triples, e.g. the affine C_n pairs, which
    # recur in the projective presentation at the same cap
    cases = list(dict.fromkeys(cases))
    shortened = 0
    for r, s, cap in cases:
        want = shorten_with_naive(r, s, cap)
        got = _shorten_with(r, _bigram_index(r.letters), _rotations(s), cap)
        assert got == want, (r, s, cap)
        shortened += len(want) < len(r)
    assert shortened > len(cases) // 10


def test_tietze_pinned_raw_outputs():
    """SHA-256 of `presentation_text`, passes and exhausted flag of the
    simplified raw projective presentations, pinned from the naive
    shortening scan."""
    cases = [
        (bmf_tnm(2, 2), 8,
         "74882c214c8d7bd3aace078b3be8fe6c7f8049fcc5ca4b0c1b6be05eefec6cf7"),
        (bmf_tnm(2, 1), 8,
         "197159e619e39af48072ac80fd386b76e40d4cdeb422b8956f1dd5917aa596e3"),
        (bmf_cn(5), 6,
         "06e60ec59cd980ed25af5331961104dd0f1aa84a88cc6ba9ce9fd7d18b39d22d"),
    ]
    for b, passes, digest in cases:
        res = tietze_simplify(raw_presentation(b, projective=True))
        text = presentation_text(res.presentation)
        assert (hashlib.sha256(text.encode()).hexdigest(), res.passes,
                res.exhausted) == (digest, passes, False)


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


def _search_branches(p, g):
    """count_homs(p, g), and the branches of the mask search it ran, seen
    through the profiler hook:
    - 'before-search': a relator in one generator ANDed in before the search;
    - 'hoisted-0', 'hoisted-1', 'hoisted-2+': the depth of a mask lookup in
      `narrow`, and 'last-two-popcount': a lookup in the popcount over the
      last two depths;
    - 'value-hit': a lookup answered by the value-keyed memo;
      'value-miss-part-hit': a value-key miss answered by the memo keyed on
      part values; 'part-value-only': a lookup of a relator that reads more
      than VALUE_KEY_GENERATORS generators and has no value-keyed memo;
    - 'forward-prune': a subtree cut because the mask of a depth beyond the
      next one emptied."""
    seen = set()
    missed = []  # per open lookup(): whether it called allowed()

    def hook(frame, event, arg):
        name = frame.f_code.co_name
        caller = frame.f_back
        if name == "lookup":
            has_value_key = frame.f_locals["rel"][1] is not None
            if event == "call":
                missed.append(False)
                if not has_value_key:
                    seen.add("part-value-only")
                if caller.f_code.co_name == "below":
                    seen.add("last-two-popcount")
                else:
                    depth = caller.f_locals["depth"]
                    seen.add(f"hoisted-{depth}" if depth < 2 else "hoisted-2+")
            elif event == "return" and not missed.pop() and has_value_key:
                seen.add("value-hit")
        elif name == "allowed":
            if event == "call" and caller.f_code.co_name == "count_homs":
                seen.add("before-search")
            elif event == "call" and caller.f_code.co_name == "lookup":
                missed[-1] = True
            elif (event == "return" and "steps" not in frame.f_locals
                  and caller.f_code.co_name == "lookup"
                  and caller.f_locals["reads"] is not None):
                seen.add("value-miss-part-hit")
        elif event == "return" and name == "narrow" and arg is None:
            if frame.f_locals["d"] > frame.f_locals["depth"] + 1:
                seen.add("forward-prune")

    sys.setprofile(hook)
    try:
        count = count_homs(p, g)
    finally:
        sys.setprofile(None)
    return count, seen


def _mask_presentations(rng):
    """Presentations in which every branch of the mask search occurs.

    Four generators: a power of g0 is ANDed in before the search; random
    relators tie g1 to g0 and g2 to g1, so the greedy order is g0, g1, g2,
    g3 unless a word happens to miss a letter; and g3 v and g3^2 w, where v
    and w read a random prefix of g0, g1, g2, are hoisted to the last depth
    of that prefix and empty the mask of g3 whenever v^-2 differs from
    w^-1. Distinct values of the prefix that give w one value miss the
    value key of g3^2 w and hit its part-value key.

    Five generators: the same relators, and g4 u with u reading each of
    g0 .. g3, which is hoisted to depth 3, the last but one, and keyed on
    its part values alone."""
    labels = ["g0", "g1", "g2", "g3", "g4"]
    for five in [False] * 16 + [True] * 6:
        prefix = labels[:rng.randint(1, 3)]
        relators = [
            _power("g0", rng.choice((2, 3, 4))),
            _random_word(rng, labels[:2]), _random_word(rng, labels[:2]),
            _random_word(rng, labels[1:3]), _random_word(rng, labels[1:3]),
            multiply(gen("g3"), _random_word(rng, prefix)),
            multiply(_power("g3", 2), _random_word(rng, prefix))]
        if five:
            every = labels[:4]
            rng.shuffle(every)
            u = multiply(Word(tuple((lab, rng.choice((1, -1))) for lab in every)),
                         _random_word(rng, labels[:4]))
            relators.append(multiply(gen("g4"), u))
        yield presentation(labels if five else labels[:4], relators)


def test_count_homs_mask_branches_match_bruteforce():
    """On seeded random presentations the mask search agrees with the
    brute-force count, and together they reach every branch of it. A4 is
    left out on five generators, where brute force takes 12^5 steps."""
    rng = random.Random(61)
    reached = set()
    for p in _mask_presentations(rng):
        for g in (S3, D4, A4) if len(p.generators) < 5 else (S3, D4):
            count, seen = _search_branches(p, g)
            assert count == count_homs_bruteforce(p, g), (g, p)
            reached |= seen
    assert reached == {"before-search", "hoisted-0", "hoisted-1", "hoisted-2+",
                       "last-two-popcount", "value-hit", "value-miss-part-hit",
                       "part-value-only", "forward-prune"}


# The stated presentations of the `homcount-stated` benchmark workload, as
# (arrangement, projective).
HOMCOUNT_STATED = (
    [(Arrangement("C", n), True) for n in range(2, 7)]
    + [(Arrangement("C", n), False) for n in range(2, 6)]
    + [(Arrangement("T", n, 0), True) for n in range(2, 6)]
    + [(Arrangement("T", n, m), True)
       for n in range(1, 5) for m in range(1, 6) if n + m <= 5])


def _scramble(p, rng):
    """Shuffle the relators, rotate each one and invert some; same group."""
    relators = list(p.relators)
    rng.shuffle(relators)
    out = []
    for r in relators:
        cut = rng.randrange(len(r)) if r else 0
        w = Word(r.letters[cut:] + r.letters[:cut])
        out.append(invert(w) if rng.random() < 0.5 else w)
    return Presentation(p.generators, tuple(out))


def test_count_homs_matches_backtracking_on_stated_presentations():
    """The mask search agrees with the leaf-visiting search it replaced on
    every `homcount-stated` presentation after Tietze, and on three seeded
    scrambles of each."""
    rng = random.Random(67)
    for a, projective in HOMCOUNT_STATED:
        q = tietze_simplify(a.stated(projective)).presentation
        for p in [q] + [_scramble(q, rng) for _ in range(3)]:
            for g in GROUPS:
                assert count_homs(p, g) == count_homs_backtrack(p, g), \
                    (a, projective, g.name, p)


def test_count_homs_memory_stays_bounded():
    """The peak memory tracemalloc sees in one `count_homs` call, over the
    `homcount-stated` presentations after Tietze into S3/D4/A4/S4. Measured
    on Python 3.11: 0.07 MB with part-value memos alone, 0.12 MB with value
    keys bounded by VALUE_KEY_GENERATORS, 0.54 MB (C_5 affine into S4) with
    every relator keyed on its values. The bound fails the unbounded memos."""
    presentations = [tietze_simplify(a.stated(projective)).presentation
                     for a, projective in HOMCOUNT_STATED]
    peaks = {}
    tracemalloc.start()
    try:
        for q in presentations:
            for g in GROUPS:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                count_homs(q, g)
                peaks[q, g.name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 250_000, max(peaks.items(), key=lambda kv: kv[1])


def test_count_homs_pinned_stated_counts():
    """Counts too large for the brute-force oracle, pinned from the plain
    backtracking search; a wrong class or orbit weight changes them."""
    cases = [(presentation_cn_proj(6), {"S4": 71256, "D4": 24064}),
             (presentation_cn_affine(5), {"S4": 50400}),
             (presentation_tn0(5), {"S4": 70872}),
             (presentation_tnm(2, 3), {"D4": 15616, "S4": 42432}),
             (presentation_tnm(4, 4), {"S3": 21768, "D4": 874496, "A4": 341184,
                                       "S4": 2181072})]
    for p, expected in cases:
        assert {name: count_homs(p, BATTERY[name]) for name in expected} == expected


def test_count_homs_keeps_no_memo_between_calls():
    """Calls interleaved over presentations and targets, with repeats, return
    the counts of the memo-free backtracking search: no mask outlives its
    call."""
    rng = random.Random(71)
    cases = [(tietze_simplify(a.stated()).presentation, g)
             for a in (Arrangement("C", 4), Arrangement("T", 2, 2), Arrangement("T", 3, 0))
             for g in GROUPS]
    expected = [count_homs_backtrack(p, g) for p, g in cases]
    order = list(range(len(cases))) * 2
    rng.shuffle(order)
    for i in order:
        p, g = cases[i]
        assert count_homs(p, g) == expected[i], (i, g.name)


def test_fingerprint_free_group():
    fp = fingerprint(presentation(["a"], []), ("S3",))
    assert fp.counts == {"S3": 6}
    fp2 = fingerprint(presentation(["a", "b"], []), ("S3",))
    assert fp2.counts == {"S3": 36}


def test_empty_battery_is_rejected():
    p = presentation(["a"], [parse_word("a a")])
    valid = r"\(valid groups: S3, D4, A4, S4\)"
    with pytest.raises(ValueError, match=f"^empty battery {valid}$"):
        fingerprint(p, ())
    with pytest.raises(ValueError, match=f"^empty battery {valid}$"):
        compare(p, p, [])
    with pytest.raises(ValueError, match=f"^unknown battery groups: S5 {valid}$"):
        fingerprint(p, ("S5",))
    with pytest.raises(ValueError, match=f"^unknown battery groups: S5, Z2 {valid}$"):
        compare(p, p, ["S3", "S5", "Z2"])
    with pytest.raises(ValueError, match=f"not the string 'S3' {valid}$"):
        fingerprint(p, "S3")
    with pytest.raises(ValueError, match=rf"^unknown battery groups: \['S3'\] {valid}$"):
        fingerprint(p, [["S3"]])
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
