import gc
import hashlib
import itertools
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from conicline import fpgroup
from conicline.arrangement import Arrangement
from conicline.catalog import bmf_cn, bmf_tn0, bmf_tnm
from conicline.finite_groups import A4, BATTERY, D4, S3, S4
from conicline.fpgroup import (_alphabet, _rotations, _shorten_with,
                               abelianization, compare, count_homs, fingerprint,
                               smith_normal_form, tietze_simplify)
from conicline.paper_groups import (presentation_c2_proj, presentation_cn_affine,
                                    presentation_cn_proj, presentation_t00,
                                    presentation_tn0, presentation_tnm)
from conicline.vankampen import (Presentation, presentation, presentation_text,
                                 raw_presentation)
from conicline.words import Word, gen, invert, multiply
from oracles import (centralizer_orbits, conjugacy_classes, count_homs_backtrack,
                     count_homs_bruteforce, invariant_factors_by_minors, parse_word,
                     random_presentation, shorten_with_naive, tietze_reference)
from test_arrangement import BUILD_GRID

GROUPS = (S3, D4, A4, S4)


def test_group_tables():
    for g in GROUPS:
        n = g.order
        assert g.mult[g.identity] == tuple(range(n))
        for a in range(n):
            assert g.mult[a][g.inv[a]] == g.identity
    assert (S3.order, D4.order, A4.order, S4.order) == (6, 8, 12, 24)


def test_conjugacy_classes_and_centralizer_orbits():
    sizes = {g.name: sorted(conjugacy_classes(g).values()) for g in GROUPS}
    assert sizes == {"S3": [1, 2, 3], "D4": [1, 1, 2, 2, 2],
                     "A4": [1, 3, 4, 4], "S4": [1, 3, 6, 6, 8]}
    for g in GROUPS:
        mult = g.mult
        for a, orbits in centralizer_orbits(g).items():
            assert sum(orbits.values()) == g.order
            centralizer = sum(1 for c in range(g.order) if mult[c][a] == mult[a][c])
            assert centralizer * conjugacy_classes(g)[a] == g.order
        assert centralizer_orbits(g)[g.identity] == conjugacy_classes(g)


def _element_order(g, x):
    n, y = 1, x
    while y != g.identity:
        n, y = n + 1, g.mult[y][x]
    return n


def _bits(mask):
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _whole_orbits(g):
    """The orbits of the whole of Aut(g), as {representative: orbit size}."""
    reps, sizes, _ = g.orbits[(1 << len(g.automorphisms)) - 1]
    return {x: sizes[x] for x in _bits(reps)}


def test_automorphism_tables():
    """Aut(G) as element permutations, the stabilizer bitmasks and the orbit
    table `count_homs` walks: |Aut| is 6, 8, 24 and 24; every automorphism
    is a bijection that preserves `mult`; the orbits of every stabilizer in
    the table partition G; and the orbits of the whole of Aut are the
    conjugacy classes on S3 and S4, while on D4 they merge the two classes
    of reflections and on A4 the two classes of 3-cycles."""
    assert [len(g.automorphisms) for g in GROUPS] == [6, 8, 24, 24]
    for g in GROUPS:
        n, mult, auts = g.order, g.mult, g.automorphisms
        assert auts[0] == tuple(range(n))
        for a in auts:
            assert sorted(a) == list(range(n))
            assert all(a[mult[x][y]] == mult[a[x]][a[y]] for x in range(n) for y in range(n))
        assert g.stabilizers == tuple(sum(1 << i for i, a in enumerate(auts) if a[x] == x)
                                      for x in range(n))
        assert (1 << len(auts)) - 1 in g.orbits
        assert g.orbits[1] == ((1 << n) - 1, (1,) * n, ((1, ((1 << n) - 1) * g.rep),))
        for stab, (reps, sizes, _) in g.orbits.items():
            members = [a for i, a in enumerate(auts) if stab >> i & 1]
            orbits = [{a[x] for a in members} for x in range(n)]
            assert sizes == tuple(map(len, orbits))
            assert reps == sum(1 << x for x in range(n) if x == min(orbits[x]))
            assert sum(sizes[x] for x in _bits(reps)) == n
            assert all(stab & g.stabilizers[x] in g.orbits for x in _bits(reps))
    for g in (S3, S4):
        assert _whole_orbits(g) == conjugacy_classes(g)

    def merged(g):
        """The whole of Aut's orbits that are not conjugacy classes."""
        classes = conjugacy_classes(g)
        return [{a[rep] for a in g.automorphisms}
                for rep, size in _whole_orbits(g).items() if classes.get(rep) != size]

    center = [x for x in range(D4.order)
              if all(D4.mult[x][y] == D4.mult[y][x] for y in range(D4.order))]
    assert merged(D4) == [{x for x in range(D4.order)
                           if _element_order(D4, x) == 2 and x not in center}]
    assert merged(A4) == [{x for x in range(A4.order) if _element_order(A4, x) == 3}]


def test_orbit_size_classes():
    """For every stabilizer in the orbit table, its size classes, sizes
    ascending and distinct, hold each element's `rep` block in exactly one
    class, the class of that element's orbit size under the stabilizer."""
    for g in GROUPS:
        n = g.order
        for stab, (_, sizes, classes) in g.orbits.items():
            assert [size for size, _ in classes] == sorted({size for size, _ in classes})
            for e in range(n):
                block = ((1 << n) - 1) << e * (n + 1)
                holding = [size for size, of_size in classes if of_size & block]
                assert holding == [sizes[e]], (g, stab, e)
                assert all(of_size & block in (0, block) for _, of_size in classes)


def test_subgroup_copy_tables():
    """`copies`: S4 has exactly 4, 3 and 1 subgroups isomorphic to S3, D4
    and A4; none of S3, D4 and A4 embeds in another; each group is its own
    one copy. Every copy is a subgroup of the right order, the set of a
    group's copies is Aut-stable, and `element_orders` agrees with a walk
    of powers."""
    assert [len(S4.copies(h)) for h in (S3, D4, A4)] == [4, 3, 1]
    for g in (S3, D4, A4):
        assert [h.name for h in (S3, D4, A4) if g.copies(h)] == [g.name]
    for g in GROUPS:
        assert g.copies(g) == ((1 << g.order) - 1,)
        assert g.element_orders == tuple(_element_order(g, x) for x in range(g.order))
        for h in GROUPS:
            found = g.copies(h)
            for m in found:
                members = _bits(m)
                assert len(members) == h.order
                assert all(g.mult[x][y] in members for x in members for y in members)
            assert {sum(1 << a[x] for x in _bits(m)) for a in g.automorphisms
                    for m in found} == set(found)


def test_snf_examples():
    assert checked_snf([[2, 2], [2, 2]]) == (2,)
    p = presentation(["a", "b"], [parse_word("a b a b"), parse_word("b a b a")])
    res = abelianization(p)
    assert res.rank_free == 1 and res.torsion == (2,)
    q = presentation(["a", "b"],
                     [multiply(parse_word("a b a b"), invert(parse_word("b a b a")))])
    res = abelianization(q)
    assert res.rank_free == 2 and res.torsion == ()


def test_snf_random_against_minors():
    rng = random.Random(31)
    for _ in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        checked_snf([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])


def test_snf_against_sympy_when_available():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(37)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        ours = smith_normal_form(m)
        theirs = tuple(int(d) for d in invariant_factors(sympy.Matrix(m)) if d != 0)
        assert ours == theirs, (m, ours, theirs)


def checked_snf(m):
    """smith_normal_form(m), after checking that it equals the invariant
    factors computed from the minors of m."""
    ours = smith_normal_form(m)
    assert ours == invariant_factors_by_minors(m), m
    return ours


def test_snf_of_a_5x5_matrix_that_once_hung():
    m = [[-12, 5, -7, 7, 0], [-12, 12, -10, -10, -9], [-11, -9, 5, 9, -4],
         [8, -9, -11, 3, -5], [-10, 11, 6, 10, -6]]
    assert checked_snf(m) == (1, 1, 1, 1, 961500)


def test_abelianization_of_a_dense_6x5_exponent_matrix():
    m = [[-7, -4, 8, 5, 9], [5, 2, 6, -12, 3], [-4, 5, -1, 5, -9],
         [1, 11, -12, 5, 6], [4, 9, 5, 1, 1], [6, 0, 11, 4, 7]]
    labels = [f"x{k}" for k in range(1, 6)]
    relators = [Word(tuple((labels[j], 1 if e > 0 else -1)
                           for j, e in enumerate(row) for _ in range(abs(e))))
                for row in m]
    res = abelianization(presentation(labels, relators))
    assert res.diagonal == (1, 1, 1, 1, 1) and res.rank_free == 0
    assert checked_snf(m) == (1, 1, 1, 1, 1)


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
            assert diag == tuple(int(d) for d in invariant_factors(Matrix(m)) if d), m


def test_tietze_examples():
    p = presentation(["a"], [multiply(gen("a"), invert(gen("a")))])
    out = tietze_simplify(p).presentation
    assert out.generators == ("a",) and out.relators == ()
    # raw projective C_1 collapses to a single free generator
    raw = raw_presentation(bmf_cn(1), projective=True)
    out = tietze_simplify(raw).presentation
    assert len(out.generators) == 1
    assert out.relators == ()


def test_tietze_eliminates_primed_generator_first(monkeypatch):
    raw = raw_presentation(bmf_cn(2))
    monkeypatch.setattr(fpgroup, "TIETZE_PASSES", 1)
    out = tietze_simplify(raw).presentation
    assert "x1p" not in out.generators


def test_tietze_budget_flag(monkeypatch):
    raw = raw_presentation(bmf_cn(3), projective=True)
    full = tietze_simplify(raw)
    assert not full.exhausted
    monkeypatch.setattr(fpgroup, "TIETZE_PASSES", 1)
    res = tietze_simplify(raw)
    assert res.exhausted


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
    """`_shorten_with` returns the naive window scan's word on random
    reduced words and on every ordered relator pair of the criterion-06 raw
    presentations, for every s with |s| >= 3, its precondition; for a
    shorter s, and for an r shorter than the head of s (|r| < |s| // 2 + 1
    letters), the naive scan leaves r unchanged, as Tietze's skips of such
    pairs assume. The words go through Tietze's string encoding
    (`_alphabet`) over every label of the cases, and the result is decoded
    back into a Word. More than a tenth of the cases shorten r and more
    than a tenth leave it unchanged, so both outcomes are exercised, and
    more than a twentieth have an r shorter than the head of s."""
    rng = random.Random(53)
    cases = []
    for _ in range(1000):
        labels = ["a", "b", "c"][:rng.randint(2, 3)]
        s = _reduced_word(rng, labels, 8)
        r = _reduced_word(rng, labels, 30)
        cases.append((r, s))
    for p in _criterion_06_raw():
        rels = p.relators
        cases += [(r, s) for i, r in enumerate(rels)
                  for j, s in enumerate(rels) if i != j]
    # dict.fromkeys drops repeated pairs, e.g. the affine C_n pairs, which
    # recur in the projective presentation
    cases = list(dict.fromkeys(cases))
    letters, code, flip = _alphabet(sorted({lab for pair in cases for w in pair
                                            for lab in w.labels()}))

    def encode(w):
        return "".join(code[letter] for letter in w.letters)

    shortened = unchanged = short = 0
    for r, s in cases:
        want = shorten_with_naive(r, s)
        if len(r) < len(s) // 2 + 1:
            # no piece of more than half of s fits in r
            assert want == r, (r, s)
            short += 1
        if len(s) < 3:
            assert want == r, (r, s)
            continue
        got = _shorten_with(encode(r), _rotations(encode(s), flip), flip)
        assert Word(tuple(letters[ord(c)] for c in got)) == want, (r, s)
        shortened += len(want) < len(r)
        unchanged += want == r
    assert shortened > len(cases) // 10
    assert unchanged > len(cases) // 10
    assert short > len(cases) // 20


def test_tietze_does_not_retry_an_unchanged_pair(monkeypatch):
    """Within one `tietze_simplify` call, pass (c) hands `_shorten_with` a
    pair of strings (r, s) it already returned unchanged only when another
    relator record holds the same string r: a record keeps the strings s
    that left it unchanged. Duplicates arise when pass (c) turns a relator
    into the empty word or into another relator, until the next pass (a)
    drops them. Checked on each criterion-06 raw presentation and each
    `homcount-stated` stated one; at least one pair comes back unchanged,
    so the memo is exercised."""
    shorten_with = fpgroup._shorten_with
    records: Counter = Counter()
    unchanged: set = set()

    class Relator(fpgroup._Relator):
        __slots__ = ()

        def __init__(self, s):
            super().__init__(s)
            records[s] += 1

    def spy(r, rotations, flip):
        _, doubled, _ = rotations[0]
        pair = (r, doubled[:len(rotations) // 2])
        assert pair not in unchanged or records[r] > 1, pair
        out = shorten_with(r, rotations, flip)
        if out == r:
            unchanged.add(pair)
        return out

    monkeypatch.setattr(fpgroup, "_Relator", Relator)
    monkeypatch.setattr(fpgroup, "_shorten_with", spy)
    inputs = list(_criterion_06_raw()) + [a.stated(projective)
                                          for a, projective in HOMCOUNT_STATED]
    seen = 0
    for p in inputs:
        records.clear()
        unchanged.clear()
        tietze_simplify(p)
        seen += len(unchanged)
    assert seen > 0


def test_tietze_skips_only_work_that_cannot_change_its_output(monkeypatch):
    """Pass (c) never hands `_shorten_with` an empty r, nor an r shorter
    than the head of s (|s| // 2 + 1 letters), which `_shorten_with` would
    return unchanged; and pass (a) runs its rotation test, which inverts r,
    on fewer than a fifth of the `_Relator` records, as only a relator
    whose bag an earlier kept relator shares needs it. Checked on each
    criterion-06 raw presentation, each `homcount-stated` stated one and
    raw projective T_{3,3} and T_{8,0}."""
    shorten_with = fpgroup._shorten_with
    invert = fpgroup._invert
    records = []
    calls = 0
    tested = 0

    class Relator(fpgroup._Relator):
        __slots__ = ()

        def __init__(self, s):
            super().__init__(s)
            records.append(self)

    def spy(r, rotations, flip):
        nonlocal calls
        calls += 1
        n = len(rotations) // 2
        assert r and len(r) >= n // 2 + 1, (r, n)
        return shorten_with(r, rotations, flip)

    def invert_spy(s, flip):
        nonlocal tested
        tested += sys._getframe(1).f_code is fpgroup._distinct.__code__
        return invert(s, flip)

    monkeypatch.setattr(fpgroup, "_Relator", Relator)
    monkeypatch.setattr(fpgroup, "_shorten_with", spy)
    monkeypatch.setattr(fpgroup, "_invert", invert_spy)
    inputs = (list(_criterion_06_raw())
              + [a.stated(projective) for a, projective in HOMCOUNT_STATED]
              + [raw_presentation(b, projective=True) for b in (bmf_tnm(3, 3), bmf_tn0(8))])
    for p in inputs:
        tietze_simplify(p)
    assert calls > 0 and 0 < tested < len(records) / 5, (calls, tested, len(records))


# The raw grid of the north star: C_1..C_10, T_{0,0}, T_{n,0} for n <= 8 and
# T_{n,m} for n, m <= 5, each affine and projective.
RAW_GRID = [(Arrangement(*a), projective) for a in BUILD_GRID for projective in (False, True)]


def test_tietze_pinned_raw_grid_outputs():
    """One SHA-256 over the `presentation_text`, passes and exhausted flag
    of Tietze's output on each of the 88 raw grid presentations, in grid
    order, taken from the Tietze of commit c517c8d, before pass (c)'s
    length test and pass (a)'s bag test. No input needs more than 12
    passes, the claim of the `TIETZE_PASSES` comment."""
    digest = hashlib.sha256()
    most = 0
    for a, projective in RAW_GRID:
        res = tietze_simplify(raw_presentation(a.bmf(), projective=projective))
        text = presentation_text(res.presentation)
        digest.update(f"{text}\n{res.passes} {res.exhausted}\n".encode())
        most = max(most, res.passes)
    assert len(RAW_GRID) == 88
    assert most <= 12
    assert digest.hexdigest() == (
        "5f453c22f6feb8e3c15217b159fde5d0ac309d1fee7fe967b38578ab6a69f9d9")


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
        (bmf_tnm(5, 5), 11,
         "89f657a4c1834366caf860694be72ca7ddc4ac8bec0ca45bceb0a98d6570e184"),
        (bmf_cn(10), 6,
         "873dbb4fd932412970cfa7a22e3503d1a2363ff4daf14bd08f666967771e1cf7"),
    ]
    for b, passes, digest in cases:
        res = tietze_simplify(raw_presentation(b, projective=True))
        text = presentation_text(res.presentation)
        assert (hashlib.sha256(text.encode()).hexdigest(), res.passes,
                res.exhausted) == (digest, passes, False)


def _criterion_06_stated():
    for n in range(1, 5):
        yield presentation_cn_affine(n)
        yield presentation_cn_proj(n)
    for n in range(1, 4):
        yield presentation_tn0(n)
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        yield presentation_tnm(n, m)


def _relabel(p, rename, generators=None):
    """p with generator g written rename[g], over `generators` (default:
    the renamed generators of p, in their order)."""
    relators = tuple(Word(tuple((rename[lab], sign) for lab, sign in r.letters))
                     for r in p.relators)
    return Presentation(tuple(generators or map(rename.get, p.generators)), relators)


def _words(rng, labels, count, max_len):
    return [_reduced_word(rng, labels, max_len) for _ in range(count)]


def _encoding_edge_presentations(rng):
    """Inputs at the edges of Tietze's string encoding.

    - 300 generators, so code points run to 599, past the 1-byte `str`
      range: raw projective T_{2,2} with its generators renamed to labels
      whose string order is not their code-point order (g3 sorts last and
      has the least code point), and random relators over high labels;
      most of the 300 generators are unused.
    - Labels that are prefixes of one another (x1, x11, x1p, x110): raw
      C_3 renamed, and random relators over them.
    - A primed and an unprimed label, each once in a relator of the same
      length, and the primed one in a longer relator than the unprimed.
    - Relators with the same bag (letters, signs aside) that are not equal
      up to rotation and inversion, a a b b, a b a b and a b a^-1 b^-1,
      beside rotations and inverted rotations of each, which pass (a)
      drops.
    - Empty relators, no relators, and unused generators."""
    wide = [f"g{k}" for k in range(300)]
    t22 = raw_presentation(bmf_tnm(2, 2), projective=True)
    high = ("g299", "g298", "g297", "g200", "g150", "g130", "g129", "g3")
    yield _relabel(t22, dict(zip(t22.generators, high)), wide)
    for _ in range(3):
        yield Presentation(tuple(wide), tuple(_words(rng, high[:5], 6, 9)))
    c3 = raw_presentation(bmf_cn(3))
    prefixes = ("x11", "x1p", "x1", "x110", "x11p")
    yield _relabel(c3, dict(zip(c3.generators, prefixes)))
    yield _relabel(c3, dict(zip(c3.generators, reversed(prefixes))))
    for _ in range(6):
        yield Presentation(prefixes, tuple(_words(rng, prefixes, 5, 7)))
    for labels in (("a", "bp", "c"), ("bp", "c", "a")):
        yield presentation(labels, [parse_word("a c c"), parse_word("bp c^-1 c^-1")])
        yield presentation(labels, [parse_word("a c c"), parse_word("bp c c c")])
        yield presentation(labels, [parse_word("bp c c c"), parse_word("a c c")])
    for labels in (("a", "b"), ("b", "a")):
        yield presentation(labels, [parse_word(w) for w in (
            "a a b b", "a b a b", "a b a^-1 b^-1", "b b a a", "b^-1 a^-1 a^-1 b^-1",
            "b a b a", "a^-1 b^-1 a^-1 b^-1", "a b^-1 a^-1 b")])
    yield presentation(["a", "b"], [Word(), parse_word("a a"), Word(), parse_word("b a b")])
    yield presentation(["a", "b", "c"], [])
    yield presentation([], [])
    yield presentation(["a", "b", "c", "d"], [parse_word("a b a^-1 b^-1")])


def _assert_tietze_matches_reference(monkeypatch, inputs, rng, scrambles=3):
    """tietze_simplify equals the tuple reference, presentation, passes and
    budget flag, on each input and `scrambles` scrambles of it, under the
    pass budget as shipped and cut to 1 and 2."""
    cases = [q for p in inputs for q in [p] + [_scramble(p, rng) for _ in range(scrambles)]]
    for budget in (fpgroup.TIETZE_PASSES, 1, 2):
        monkeypatch.setattr(fpgroup, "TIETZE_PASSES", budget)
        for q in cases:
            assert tietze_simplify(q) == tietze_reference(q), (budget, q)


def test_tietze_matches_the_tuple_reference_on_criterion_06(monkeypatch):
    """The string-encoded Tietze gives the tuple-based one's results on the
    criterion-06 raw and stated presentations."""
    inputs = [*_criterion_06_raw(), *_criterion_06_stated()]
    _assert_tietze_matches_reference(monkeypatch, inputs, random.Random(73))


def test_tietze_matches_the_tuple_reference_at_the_encoding_edges(monkeypatch):
    """Equal results where the string encoding could part from the tuples:
    code points past the 1-byte range, labels that are prefixes of one
    another or whose string order is not their code-point order, primed
    ties, and empty or missing relators."""
    rng = random.Random(79)
    _assert_tietze_matches_reference(monkeypatch, list(_encoding_edge_presentations(rng)), rng)


def test_tietze_matches_the_tuple_reference_on_large_raw_presentations(monkeypatch):
    """Equal results on large raw projective presentations, where pass (c)
    runs longest and the relators' derived data is kept over the most
    passes: T_{3,3}, T_{5,5}, C_10 and T_{8,0}, as given (no scrambles, so
    the tuple reference stays near a second), under the pass budget as
    shipped and cut to 1 and 2."""
    inputs = [raw_presentation(b, projective=True)
              for b in (bmf_tnm(3, 3), bmf_tnm(5, 5), bmf_cn(10), bmf_tn0(8))]
    _assert_tietze_matches_reference(monkeypatch, inputs, None, scrambles=0)


def test_tietze_memory_stays_bounded():
    """The peak memory tracemalloc sees in one `tietze_simplify` call on raw
    projective T_{5,5}, measured from a base as in
    `test_count_homs_memory_stays_bounded`. Measured on Python 3.11:
    1.21 MB with the derived data, each relator's bag included, held per
    current relator, under pytest for this test alone and in a fresh
    process alike, and 1.08–1.21 MB when the whole file runs; 1.43 and
    1.30 MB before pass (c) skipped an r shorter than the head of s, which
    builds fewer rotation tables. With pass (c)'s window sets, 1.82 and 1.69 MB;
    1.84 and 1.71 MB when every pass rebuilt the derived data, and 6.30 MB
    when it was cached in dicts keyed on every relator string seen in the
    call, pair tests included. Such peaks move by about 20 % with what
    else ran in the process, so the bound, about 1.3 times the rebuilding
    peak, keeps that margin and fails the string-keyed cache."""
    p = raw_presentation(bmf_tnm(5, 5), projective=True)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        tietze_simplify(p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2_400_000, peak


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


def _search_branches(p, g, subgroups=None):
    """count_homs(p, g, subgroups=subgroups), and the branches of the mask
    search it ran, seen through the profiler hook. The recursion `below`
    walks the depths before k - 2 and looks masks up inline, so the hook
    follows the candidates of each such `below` frame: a candidate starts
    at the `bit_length` call that picks it and ends at the next one or at
    the frame's return. A row hit is a list index, which the hook does not
    see: at the start of a candidate it reads the node's rows (`rels`, one
    (d, row, shape) per relator hoisted there, in the order the candidate
    looks them up) and the plan entries they were fetched for (`hoisted`);
    any other lookup is an `allowed` call. A `below` frame at depth k - 2
    runs the matrix step, read at its call and at its return.
    - 'before-search': a relator in one generator ANDed in before the search;
    - 'hoisted-0', 'hoisted-1', 'hoisted-2+': the depth of a mask lookup;
    - 'value-hit': a `below` node fetching by its value key a row that an
      earlier node filled; 'row-hit': a candidate whose first lookup its row
      answers; 'row-miss': a lookup whose row slot is empty;
      'value-miss-part-hit': a row miss, or a block fill, answered by the
      shared memo keyed on signs and part values; 'part-value-only': a
      lookup of a relator without a row in `below`; 'cross-relator-hit': a
      lookup answered by a mask of the shared memo that another relator
      computed;
    - 'run-keyed': a lookup of a relator whose parts read a run slot
      (from 2k on) and that has a row, keyed through the run slots it
      reads; 'run-unkeyed': a lookup of one whose parts read a run slot and
      that has no row;
    - 'forward-prune': a candidate of `below` cut before its subtree
      because the mask of a depth beyond the next one emptied;
    - 'orbit-weighted-2+': a `below` depth of two or more that walks a
      candidate orbit of more than one element, its stabilizer in Aut(g)
      being larger than the identity (for example when x_0 and x_1 are
      trivial);
    - at depth k - 2: 'block-filled', a matrix block filled through
      `allowed`; 'block-reused', a candidate block of the node's first row
      that an earlier node filled; 'block-extended', a candidate block the
      node fills in a first row that an earlier node began;
      'block-checked', a relator without a row checked on a surviving
      block; 'size-class-2+', a surviving block weighted by an orbit size above 1;
      'copy-tally', a copy's part of the count, read through its
      replicated mask."""
    k = len(p.generators)
    seen = set()
    owner = {}  # shared-memo key -> the shape whose lookup computed it
    # per open `below` frame above k - 2, whether its current candidate was
    # counted or entered its subtree (None before its first candidate)
    candidate = {}
    # per open `below` frame at k - 2: the copies inside, its candidates,
    # and the blocks its first row had filled
    entry = {}

    def depth_label(depth):
        return f"hoisted-{depth}" if depth < 2 else "hoisted-2+"

    def has_row(frame, shape):
        if frame.f_locals["depth"] < k - 2:
            return frame.f_locals["row"] is not None
        return not any(shape is s for s in frame.f_locals["unrowed"])

    def start(frame):
        depth, rels = frame.f_locals["depth"], frame.f_locals["rels"]
        e = frame.f_locals["low"].bit_length() - 1
        if candidate[frame] is None:
            plan = frame.f_locals["hoisted"][depth]
            if any(callable(key) and any(x is not None for x in row)
                   for (_, key, _, _), (_, row, _) in zip(plan, rels)):
                seen.add("value-hit")
        if rels:
            seen.add(depth_label(depth))
            row = rels[0][1]
            if row is not None and row[e] is not None:
                seen.add("row-hit")
        candidate[frame] = False

    def finish(frame):
        # pruned: `d` is the closing depth of the mask that emptied
        f = frame.f_locals
        if candidate.get(frame) is False and f["d"] > f["depth"] + 1:
            seen.add("forward-prune")

    def enter_matrix(frame):
        f = frame.f_locals
        rowed = f["rowed"]
        first = {rk: row[1] for rk, row in rowed[0][1].items()} if rowed else {}
        cands = f["pending"][-2] & g.orbits[f["stab"]][0]
        entry[frame] = (f["inside"], cands, first)

    def leave_matrix(frame):
        f = frame.f_locals
        inside, cands, first = entry.pop(frame)
        acc, rowed = f["acc"], f["rowed"]
        before = first.get(rowed[0][0](f["vals"]), 0) if rowed else 0
        if before & cands:
            seen.add("block-reused")
        if before and cands & ~before:
            seen.add("block-extended")
        if any(size > 1 and acc & of_size for size, of_size in f["classes"]):
            seen.add("size-class-2+")
        if any(acc & f["paired"][c] for c in _bits(inside)):
            seen.add("copy-tally")

    def hook(frame, event, arg):
        name = frame.f_code.co_name
        caller = frame.f_back
        if name == "below":
            depth = frame.f_locals["depth"]
            if event == "call":
                if caller.f_code.co_name == "below":
                    candidate[caller] = True
                if depth == k - 2:
                    enter_matrix(frame)
                    return
                candidate[frame] = None
                pending = frame.f_locals["pending"]
                sizes = g.orbits[frame.f_locals["stab"]][1]
                if depth >= 2 and any(sizes[x] > 1 for x in _bits(pending[depth])):
                    seen.add("orbit-weighted-2+")
            elif depth == k - 2:
                if event == "return":
                    leave_matrix(frame)
            elif event == "return":
                finish(frame)
                del candidate[frame]
            elif event == "c_call" and arg.__name__ == "bit_length":
                finish(frame)
                start(frame)
        elif name == "allowed":
            if event == "call" and caller.f_code.co_name == "count_homs":
                seen.add("before-search")
            elif event == "call":
                shape = caller.f_locals["shape"]
                row = has_row(caller, shape)
                if caller.f_locals["depth"] < k - 2:
                    seen.add(depth_label(caller.f_locals["depth"]))
                    seen.add("row-miss" if row else "part-value-only")
                else:
                    seen.add(depth_label(k - 2))
                    seen.add("block-filled" if row else "block-checked")
                if any(slot >= 2 * k for part in shape[0] for slot in part):
                    seen.add("run-keyed" if row else "run-unkeyed")
            elif event == "return":
                shape, key = frame.f_locals["shape"], frame.f_locals["key"]
                if "steps" in frame.f_locals:
                    owner[key] = shape
                elif caller.f_code.co_name != "count_homs":
                    if owner[key] is not shape:
                        seen.add("cross-relator-hit")
                    if has_row(caller, shape):
                        seen.add("value-miss-part-hit")

    sys.setprofile(hook)
    try:
        count = count_homs(p, g, subgroups=subgroups)
    finally:
        sys.setprofile(None)
    return count, seen


def _mask_presentations(rng):
    """Presentations in which every branch of the mask search occurs.

    Four generators: a power of g0 is ANDed in before the search; random
    relators tie g1 to g0 and g2 to g1; and g3 v and g3^2 w, where v and w
    read a random prefix of g0, g1, g2, empty the mask of g3 whenever v^-2
    differs from w^-1. The greedy order varies: at seed 61 it starts from
    g0 on 18 of the 26 inputs (elsewhere a word in g1 or g2 alone ties the
    power of g0 and has more letters), and g3 comes before g2 on 19, as its
    relators close as soon as their prefix is placed. Distinct values of
    a prefix that give w one value miss the row of g3^2 w, or find it has
    none when w reads the whole prefix, and hit its part-value key; where
    w misses a generator of the prefix, a later node reuses its row.

    Five generators: the same relators, and g4 u with u reading each of
    g0 .. g3, so g4 comes last and g4 u is hoisted to depth 3, the last
    but one. Each run of two or more letters between its letters of the
    generator at depth 3 is a run slot: u has a row, keyed through them,
    when those letters split it into at most two stretches, and none
    otherwise.

    Four generators again, with v and w ending in g2: g3 v and g3^2 w read
    all four generators, so they are hoisted to depth 2, the last but one,
    whichever of g2 and g3 comes last, and empty the mask of depth 3
    there."""
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
    for _ in range(4):
        v, w = (multiply(_random_word(rng, labels[:2]), gen("g2")) for _ in range(2))
        yield presentation(labels[:4], [
            _power("g0", rng.choice((2, 3, 4))),
            _random_word(rng, labels[:2]), _random_word(rng, labels[1:3]),
            multiply(gen("g3"), v), multiply(_power("g3", 2), w)])


def _covering_presentations(rng):
    """Two and three generators, a power of g0 and random words, counted
    into S4 with S3, D4 and A4 as subgroups: depth k - 2 is depth 0 or 1,
    where the stabilizer is large enough to give orbits of several sizes,
    and every copy of a subgroup holds some values.

    Then two fixed inputs whose order is g0, g1, g2 and whose relator
    [g1, g2] is hoisted to depth 1 with one row per call. With g0^2 alone
    besides, each x_0 outside the centre has more orbit representatives
    for x_1 than x_0 = 1, so the row gains blocks that count. With g0^3,
    g1 inverting g0 and g2 = g0, the row empties the matrix of every node
    whose x_0 has order 3."""
    for k in (2, 2, 3, 3, 3):
        labels = [f"g{i}" for i in range(k)]
        yield presentation(labels, [_power("g0", rng.choice((2, 3, 4))),
                                    _random_word(rng, labels[1:]), _random_word(rng, labels)])
    yield presentation(["g0", "g1", "g2"], [_power("g0", 2), parse_word("g1 g2 g1^-1 g2^-1")])
    yield presentation(["g0", "g1", "g2"], [
        _power("g0", 3), parse_word("g1 g0 g1^-1 g0"), parse_word("g2 g0^-1"),
        parse_word("g2 g1 g2^-1 g1^-1")])


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
    for p in _covering_presentations(rng):
        counts, seen = _search_branches(p, S4, (S3, D4, A4))
        assert counts == {h.name: count_homs_bruteforce(p, h) for h in GROUPS}, p
        reached |= seen
    assert reached == {"before-search", "hoisted-0", "hoisted-1", "hoisted-2+",
                       "value-hit", "row-hit", "row-miss", "value-miss-part-hit",
                       "part-value-only", "cross-relator-hit", "run-keyed", "run-unkeyed",
                       "forward-prune", "orbit-weighted-2+", "block-filled", "block-reused",
                       "block-extended", "block-checked", "size-class-2+", "copy-tally"}


def test_hom_order_breaks_a_tie_in_relators_closed_by_letters():
    """Where two unplaced generators close equally many relators,
    `_hom_order` places the one with more letters in the relators first,
    and at equal letters the first in `p.generators`; at depth 0, where
    nothing closes, it starts from the generator the relators read most."""
    order = fpgroup._hom_order
    assert order(presentation(["a", "b", "c"], [_power("a", 2), parse_word("a b a b"),
                                                parse_word("a c c c")])) == ["a", "c", "b"]
    assert order(presentation(["a", "b", "c"], [_power("a", 2), parse_word("a b a b"),
                                                parse_word("a c a c")])) == ["a", "b", "c"]
    assert order(presentation(["a", "b", "c"], [parse_word("a b c b"),
                                                parse_word("b c^-1 b")])) == ["b", "c", "a"]


def test_count_homs_does_not_depend_on_the_generator_order():
    """For k <= 4, every permutation of `p.generators` gives the
    backtracking oracle's count into S3/D4/A4/S4, and into S4 with S3, D4
    and A4 as subgroups. Ties in `_hom_order` fall to the label order, so
    on most of these inputs the permutations search in several orders: the
    Coxeter presentation of S5 and two commutators with a dihedral
    relator are symmetric enough to tie at most depths."""
    rng = random.Random(61)
    inputs = [p for p in _mask_presentations(rng) if len(p.generators) == 4][:4]
    inputs += list(_covering_presentations(rng))
    inputs.append(tietze_simplify(Arrangement("T", 1, 1).stated()).presentation)
    inputs.append(presentation("abcd", [_power(x, 2) for x in "abcd"] + [
        parse_word(w) for w in ("a b a b a b", "b c b c b c", "c d c d c d",
                                "a c a c", "a d a d", "b d b d")]))
    inputs.append(presentation("abcd", [parse_word("a b a^-1 b^-1"),
                                        parse_word("c d c^-1 d^-1"), parse_word("a c a c")]))
    several = 0
    for p in inputs:
        counts = {g.name: count_homs_backtrack(p, g) for g in GROUPS}
        orders = set()
        for labels in itertools.permutations(p.generators):
            q = Presentation(labels, p.relators)
            orders.add(tuple(fpgroup._hom_order(q)))
            assert {g.name: count_homs(q, g) for g in GROUPS} == counts, q
            assert count_homs(q, S4, subgroups=(S3, D4, A4)) == counts, q
        several += len(orders) > 1
    assert several >= 6, several


def _wide_presentations(rng, count):
    """Five generators, each of order 2 or 3, and one or two relators that
    read every generator plus up to five more letters, shuffled: their
    head and segments read four or five generators, more than
    VALUE_KEY_GENERATORS, so whether they get a row depends on how their
    runs group those generators."""
    labels = [f"g{i}" for i in range(5)]
    for _ in range(count):
        relators = [_power(lab, rng.choice((2, 3))) for lab in labels]
        for _ in range(rng.randint(1, 2)):
            letters = labels + [rng.choice(labels) for _ in range(rng.randint(1, 5))]
            rng.shuffle(letters)
            relators.append(Word(tuple((lab, rng.choice((1, -1))) for lab in letters)))
        yield presentation(labels, relators)


def _run_slots(shape, k):
    return {slot for part in shape[0] for slot in part if slot >= 2 * k}


def test_count_homs_through_runs_matches_backtracking():
    """Runs are exact. On seeded presentations with wide relators, and on
    raw projective C_4, C_5 and T_{2,2} after Tietze, the search into
    S3/D4/A4/S4, and the one S4 search that counts the others too, equal
    the backtracking oracle. In every plan a run is two or more letters of
    generators placed before its depth, and a relator reads only the runs
    of the depth it is hoisted to; some relators that read runs are keyed
    through them and some are not, and raw projective T_{5,5}'s plan gives
    rows to some of them. Narrow relators split into runs too: in the plans
    of the `homcount-stated` presentations after Tietze, some relator whose
    parts read at most VALUE_KEY_GENERATORS generators reads a run slot."""
    rng = random.Random(89)
    inputs = list(_wide_presentations(rng, 30))
    inputs += [tietze_simplify(raw_presentation(Arrangement("C", n).bmf(), projective=True))
               .presentation for n in (4, 5)]
    inputs.append(tietze_simplify(raw_presentation(bmf_tnm(2, 2), projective=True)).presentation)
    wide = Counter()
    for p in inputs:
        k, _, hoisted, runs = fpgroup._hom_plan(p)
        slots = [{slot for slot, _ in entries} for entries in runs]
        for h, entries in enumerate(runs):
            for slot, run in entries:
                assert slot >= 2 * k and len(run) > 1, (p, h, slot, run)
                assert all(s < 2 * k and s >> 1 < h for s in run), (p, h, slot, run)
            for _, key, shape in hoisted[h]:
                assert _run_slots(shape, k) <= slots[h], (p, h, shape)
                if _run_slots(shape, k):
                    wide["keyed" if key is not None else "unkeyed"] += 1
        counts = {g.name: count_homs_backtrack(p, g) for g in GROUPS}
        assert {g.name: count_homs(p, g) for g in GROUPS} == counts, p
        assert count_homs(p, S4, subgroups=(S3, D4, A4)) == counts, p
    assert wide["keyed"] >= 10 and wide["unkeyed"] >= 5, wide
    q = tietze_simplify(raw_presentation(bmf_tnm(5, 5), projective=True)).presentation
    k, _, hoisted, _ = fpgroup._hom_plan(q)
    assert any(key is not None and _run_slots(shape, k)
               for rels in hoisted for _, key, shape in rels)
    narrow_with_runs = 0
    for a, projective in HOMCOUNT_STATED:
        q = tietze_simplify(a.stated(projective)).presentation
        k, _, hoisted, runs = fpgroup._hom_plan(q)
        for h, rels in enumerate(hoisted):
            run_of = dict(runs[h])
            for _, _, shape in rels:
                # the generators the parts read, through their runs
                read = {s >> 1 for part in shape[0] for slot in part
                        for s in run_of.get(slot, (slot,))}
                if len(read) <= fpgroup.VALUE_KEY_GENERATORS and _run_slots(shape, k):
                    narrow_with_runs += 1
    assert narrow_with_runs, narrow_with_runs


# The stated presentations of the `homcount-stated` benchmark workload, as
# (arrangement, projective).
HOMCOUNT_STATED = (
    [(Arrangement("C", n), True) for n in range(2, 7)]
    + [(Arrangement("C", n), False) for n in range(2, 6)]
    + [(Arrangement("T", n, 0), True) for n in range(2, 6)]
    + [(Arrangement("T", n, m), True)
       for n in range(1, 5) for m in range(1, 6) if n + m <= 5])

# The raw presentations of the `fingerprint-raw` benchmark workload, the
# raw side of acceptance criterion 06, as (arrangement, projective).
FINGERPRINT_RAW = (
    [(Arrangement("C", n), False) for n in range(1, 5)]
    + [(Arrangement("C", n), True) for n in range(1, 6)]
    + [(Arrangement("T", n, 0), True) for n in range(1, 4)]
    + [(Arrangement("T", n, m), True) for n, m in ((1, 1), (1, 2), (2, 1), (2, 2))])


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
    scrambles of each; there the default-battery `fingerprint`, and the
    one S4 search that counts S3, D4 and A4 too, equal the per-group
    counts."""
    rng = random.Random(67)
    for a, projective in HOMCOUNT_STATED:
        q = tietze_simplify(a.stated(projective)).presentation
        for p in [q] + [_scramble(q, rng) for _ in range(3)]:
            counts = {g.name: count_homs(p, g) for g in GROUPS}
            assert counts == {g.name: count_homs_backtrack(p, g) for g in GROUPS}, \
                (a, projective, p)
            assert fingerprint(p).counts == counts, (a, projective, p)
            assert count_homs(p, S4, subgroups=(S3, D4, A4)) == counts, (a, projective, p)


def test_count_homs_memory_stays_bounded():
    """The peak memory tracemalloc sees in one `count_homs` call, over the
    `homcount-stated` presentations after Tietze into S3/D4/A4/S4 and in
    the one S4 search that counts S3, D4 and A4 too, and over the raw
    `fingerprint-raw` presentations after Tietze into S3/D4/A4. Measured
    on Python 3.11, this test's loop alone in a fresh process, the largest
    peak is 31,576 bytes with rows bounded by VALUE_KEY_GENERATORS (raw
    T_{2,1} into D4; 23,684 on the stated set alone) and 63,444 with every
    row keyed on all its sources (VALUE_KEY_GENERATORS = 99; raw T_{2,2}
    into D4; 31,704 on the stated set alone, which would pass the bound);
    with the shared part-value memo alone (VALUE_KEY_GENERATORS = 0) it is
    30,028. Under pytest they read 31,640, 63,444 and 30,092. Readings
    move by about 20 % with what else runs in the process. The bound sits
    42 % above the bounded peak and 29 % below the unbounded one, so it
    fails the unbounded value keys."""
    stated_searches = [(g, None) for g in GROUPS] + [(S4, (S3, D4, A4))]
    raw_searches = [(g, None) for g in (S3, D4, A4)]
    presentations = [(tietze_simplify(a.stated(projective)).presentation, stated_searches)
                     for a, projective in HOMCOUNT_STATED]
    presentations += [(tietze_simplify(raw_presentation(a.bmf(), projective=projective))
                       .presentation, raw_searches)
                      for a, projective in FINGERPRINT_RAW]
    peaks = {}
    tracemalloc.start()
    try:
        for q, searches in presentations:
            for g, subgroups in searches:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                count_homs(q, g, subgroups=subgroups)
                peaks[q, g.name, bool(subgroups)] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 45_000, max(peaks.items(), key=lambda kv: kv[1])


def _plan_presentations(rng):
    """Random presentations and the edge cases of a shared hom plan: no
    generators, one generator, a relator in one generator, an empty
    relator, a generator in no relator, and seven involutions, which
    Tietze keeps, so that `fingerprint` skips S4."""
    for _ in range(20):
        yield random_presentation(rng, max_gens=4, max_relators=4, max_len=6)
    yield presentation([], [])
    yield presentation([], [Word()])
    yield presentation(["a"], [_power("a", 3), _power("a", -2)])
    yield presentation(["a", "b"], [_power("a", 2), parse_word("a b a b^-1")])
    yield presentation(["a", "b"], [Word(), parse_word("a b a^-1 b^-1")])
    yield presentation(["a", "b", "c"], [parse_word("a b a b"), _power("b", 3)])
    labels = [f"g{i}" for i in range(7)]
    yield presentation(labels, [_power(lab, 2) for lab in labels]
                       + [parse_word("g0 g1 g0^-1 g1^-1")])


def test_fingerprint_shares_one_plan_across_the_battery(monkeypatch):
    """`fingerprint` builds one `_hom_plan` per simplified presentation q
    and passes it to its `count_homs` calls; its counts equal those of
    `count_homs(q, g)` with no plan, for S3/D4/A4 and S4 unless skipped.
    Counting every group twice on one plan, in both orders, gives the
    plan-free counts each time, so no call changes the plan; so does the
    one S4 search that counts the others too, with no generators, with one,
    and with more. Seven generators skip S4."""
    built = []
    plan_of = fpgroup._hom_plan

    def spy(q):
        built.append(q)
        return plan_of(q)

    rng = random.Random(83)
    sizes = set()
    for p in _plan_presentations(rng):
        q = tietze_simplify(p).presentation
        sizes.add(len(q.generators))
        groups = GROUPS if len(q.generators) <= fpgroup.S4_GENERATOR_LIMIT else GROUPS[:3]
        with monkeypatch.context() as m:
            m.setattr(fpgroup, "_hom_plan", spy)
            built.clear()
            fp = fingerprint(p, [g.name for g in GROUPS])
            assert built == [q]
        assert fp.skipped == tuple(g.name for g in GROUPS if g not in groups)
        for x in (p, q):
            expected = {g.name: count_homs(x, g) for g in groups}
            plan = fpgroup._hom_plan(x)
            for order in (groups, groups[::-1], groups):
                assert {g.name: count_homs(x, g, plan=plan) for g in order} == expected, x
                inner = [g for g in order if g is not S4]
                if S4 in groups:
                    covered = count_homs(x, S4, plan=plan, subgroups=inner)
                    assert list(covered) == ["S4"] + [g.name for g in inner], x
                    assert covered == expected, x
        assert fp.counts == expected
    assert {0, 1, 7} <= sizes


def test_fingerprint_leaves_no_reference_cycle():
    """Tietze, the plan and the hom search, plain and covering, leave no
    cyclic garbage, so each call's memos are freed when it returns, not at
    the next collection."""
    inputs = [raw_presentation(bmf_tnm(2, 2), projective=True), presentation_tnm(2, 2),
              presentation_cn_affine(3)]
    gc.collect()
    gc.disable()
    try:
        for p in inputs:
            for battery in (("S3", "D4"), None):
                fingerprint(p, battery)
                assert gc.collect() == 0, (p, battery)
    finally:
        gc.enable()


def test_fingerprint_cover_rule(monkeypatch):
    """The groups that run, largest first, count the not yet counted ones
    that embed in them in their own search, and the counts come out in
    battery order: the default battery takes one `count_homs` call, on S4;
    S3, D4 and A4 alone take three, and so does the default battery when
    S4 is skipped."""
    calls = []
    plain = fpgroup.count_homs

    def spy(q, target, **kwargs):
        calls.append((target.name, tuple(h.name for h in kwargs["subgroups"])))
        return plain(q, target, **kwargs)

    monkeypatch.setattr(fpgroup, "count_homs", spy)
    small = presentation_tnm(2, 2)
    seven = presentation([f"g{i}" for i in range(7)],
                         [_power(f"g{i}", 2) for i in range(7)])
    cases = [(small, None, [("S4", ("A4", "D4", "S3"))]),
             (small, ("S3", "D4", "A4"), [("A4", ()), ("D4", ()), ("S3", ())]),
             (seven, None, [("A4", ()), ("D4", ()), ("S3", ())]),
             (small, ("S4", "S3"), [("S4", ("S3",))]),
             (small, ("S3", "S4"), [("S4", ("S3",))]),
             (small, ("A4", "S4", "D4"), [("S4", ("A4", "D4"))])]
    for p, battery, want in cases:
        calls.clear()
        fp = fingerprint(p, battery)
        assert calls == want, battery
        names = fpgroup.battery_names(battery)
        assert list(fp.counts) == [name for name in names if name not in fp.skipped]
        q = tietze_simplify(p).presentation
        assert fp.counts == {name: plain(q, BATTERY[name]) for name in fp.counts}, battery


def test_count_homs_rejects_a_repeated_subgroup():
    """A group named twice in `subgroups` would be counted twice over: with
    P = <a, b | [a, b]>, S3 once counts 18, twice it read 36. It raises
    ValueError naming the group, as `battery_names` does."""
    p = presentation(["a", "b"], [parse_word("a b a^-1 b^-1")])
    assert count_homs(p, S4, subgroups=[S3]) == {"S4": 120, "S3": 18}
    with pytest.raises(ValueError, match="repeated subgroups: S3$"):
        count_homs(p, S4, subgroups=[S3, D4, S3])


def test_count_homs_rejects_a_subgroup_with_no_copy():
    """A group with no copy in the target has no count to divide by its
    number of copies (zero): it raises ValueError naming it, not
    ZeroDivisionError."""
    p = presentation(["a", "b"], [parse_word("a b a^-1 b^-1")])
    with pytest.raises(ValueError, match="no copy in S3: S4$"):
        count_homs(p, S3, subgroups=[S4])
    with pytest.raises(ValueError, match="no copy in A4: S3, D4$"):
        count_homs(p, A4, subgroups=[S3, D4])


def test_count_homs_rejects_the_target_as_its_own_subgroup():
    """The result is keyed by group name, target first, so the target named
    again as a subgroup would leave one key for two names (it read
    {'S4': 120}). It raises ValueError naming it."""
    p = presentation(["a", "b"], [parse_word("a b a^-1 b^-1")])
    with pytest.raises(ValueError, match="subgroups named as the target: S4$"):
        count_homs(p, S4, subgroups=[S4])
    with pytest.raises(ValueError, match="subgroups named as the target: S3$"):
        count_homs(p, S3, subgroups=[S3])


def test_count_homs_below_two_generators():
    """With one generator or none the search walks nothing: the count is
    the mask of x_0, or the one empty assignment, and so is each subgroup's
    tally, here for <a | a^2> (the involutions and the identity) and for the
    presentation with no generators."""
    groups = [D4, A4, S3]
    for p, want in [(presentation(["a"], [parse_word("a a")]),
                     {"S4": 10, "D4": 6, "A4": 4, "S3": 4}),
                    (presentation([], []), {"S4": 1, "D4": 1, "A4": 1, "S3": 1})]:
        assert count_homs(p, S4, subgroups=groups) == want
        assert {g.name: count_homs_bruteforce(p, g) for g in [S4, *groups]} == want
        assert count_homs(p, S4) == want["S4"]


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
    with pytest.raises(ValueError, match="^repeated battery groups: S3, A4$"):
        compare(p, p, ["S3", "A4", "S3", "A4", "S3"])
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


def test_compare_with_every_target_skipped_is_inconclusive():
    many = presentation([f"g{i}" for i in range(1, 8)], [])
    rep = compare(many, many, ("S4",))
    assert rep.per_target == {} and rep.skipped == ("S4",)
    assert rep.verdict == "inconclusive" and not rep.consistent
    assert compare(many, many, ("S3", "S4")).verdict == "consistent"


def test_s4_skip_rule():
    many = presentation([f"g{i}" for i in range(1, 8)], [])
    fp = fingerprint(many, ("S3", "S4"))
    assert "S4" in fp.skipped
    assert "S4" not in fp.counts
