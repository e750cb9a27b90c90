import pytest

import golden
from conicline import vankampen
from conicline.braid import ABOVE, BELOW, ConjugatedTwist, Skeleton
from conicline.catalog import (BMF, BMFactor, apply_overrides, bmf_cn, bmf_tn0, bmf_tnm,
                               bmf_to_json)
from conicline.vankampen import (RELATOR_SHAPES, cyclic_reduce, presentation,
                                 presentation_to_json, projective_relator, raw_presentation,
                                 relation_pair)
from conicline.words import Word, gen, invert, multiply
from oracles import cyclic_canonical, fiber_rename, parse_word


def letter_pairs(b):
    rename = fiber_rename(b.labels)
    return [relation_pair(f, b.strand_count, rename) for f in b.factors]


def letters(*texts):
    return tuple(parse_word(text).letters for text in texts)


def rel_words(bmf):
    p = raw_presentation(bmf)
    return list(zip(p.origins, p.relators))


def assert_matches(bmf, relations, allowed_unmatched=()):
    got = rel_words(bmf)
    want = golden.relator_words(relations)
    uw, ug = golden.match_relators(got, want)
    assert not uw, f"paper relations not produced: {uw}"
    stray = [tag for tag in ug
             if not any(key in tag for key in allowed_unmatched)]
    assert not stray, f"engine relators with no paper counterpart: {stray}"


def test_relator_for_shapes():
    a, b = gen("a"), gen("b")
    assert RELATOR_SHAPES.keys() == {1, 2, 4}
    assert RELATOR_SHAPES[1](a, b) == multiply(a, invert(b))
    assert RELATOR_SHAPES[2](a, b) == parse_word("a b a^-1 b^-1")
    assert RELATOR_SHAPES[4](a, b) == parse_word("a b a b a^-1 b^-1 a^-1 b^-1")


def test_relation_pair_c1_verbatim():
    pairs = letter_pairs(bmf_cn(1))
    assert pairs[0] == letters("x1", "x1p")
    assert pairs[1] == letters("x1p x1 x1p^-1", "x2")
    assert pairs[2] == letters("x1", "x1p^-1 x2^-1 x1p x2 x1p")


def test_relation_pair_c2_verbatim():
    pairs = letter_pairs(bmf_cn(2))
    assert pairs[0] == letters("x1", "x1p")
    assert pairs[1] == letters("x1p x1 x1p^-1", "x2")
    assert pairs[2] == letters("x2 x1p x1 x1p^-1 x2 x1p x1^-1 x1p^-1 x2^-1", "x3")
    assert pairs[3] == letters("x2 x1p x1 x1p^-1 x2^-1", "x3")
    assert pairs[4] == letters("x1", "x1p^-1 x2^-1 x3^-1 x1p x3 x2 x1p")


def test_c1_raw_presentation_golden():
    assert_matches(bmf_cn(1), golden.c1_relations())


def test_c2_raw_presentation_golden():
    assert_matches(bmf_cn(2), golden.c2_relations())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cn_raw_presentation_golden(n):
    assert_matches(bmf_cn(n), golden.cn_relations(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tn0_raw_presentation_golden(n):
    assert_matches(bmf_tn0(n), golden.tn0_relations(n))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2),
                                 (2, 3), (3, 3)])
def test_tnm_raw_presentation_golden(n, m):
    assert_matches(bmf_tnm(n, m), golden.tnm_relations(n, m))


def test_endpoint_abelianization_of_pairs():
    # A and B abelianize to the base endpoints' generators
    for bmf in (bmf_cn(3), bmf_tnm(2, 2)):
        for f, (a, b) in zip(bmf.factors, letter_pairs(bmf)):
            i, j = f.twist.endpoints()
            for w, endpoint in ((a, i), (b, j)):
                sums = {}
                for lab, sign in w:
                    sums[lab] = sums.get(lab, 0) + sign
                nonzero = {lab for lab, v in sums.items() if v}
                assert nonzero == {bmf.labels[endpoint - 1]}, (f.origin, w)


def test_raw_presentation_counts():
    p = raw_presentation(bmf_tnm(2, 2), projective=True)
    assert len(p.relators) == 25
    assert p.origins[-1] == "projective"
    assert p.relators[-1] == parse_word(
        "x8 x7 x6 x5 x4 x3 x2 x1")


def test_projective_relator_for_c1():
    p = raw_presentation(bmf_cn(1), projective=True)
    assert p.relators[-1] == parse_word("x2 x1p x1")


def test_relator_equal_up_to_cyc():
    def same(a, b):
        return cyclic_canonical(parse_word(a)) == cyclic_canonical(parse_word(b))
    assert same("x1 x2 x1^-1 x2^-1", "x2 x1^-1 x2^-1 x1")
    assert same("x1 x2^-1", "x2 x1^-1")
    assert not same("x1 x2", "x1 x2^-1")
    assert cyclic_canonical(Word()) == ()


def test_cyclic_reduce_keeps_reduced_words():
    """A cyclically reduced word comes back as the same object; cancelling
    ends are stripped."""
    for text in ("", "x1", "x1 x2 x1", "x1 x2 x1^-1 x2^-1"):
        w = parse_word(text)
        assert cyclic_reduce(w) is w
    assert cyclic_reduce(parse_word("x1 x2 x3 x1^-1")) == parse_word("x2 x3")
    assert cyclic_reduce(parse_word("x1^-1 x2 x3 x2^-1 x1")) == parse_word("x3")
    assert cyclic_reduce(parse_word("x1 x2 x2 x1^-1")) == parse_word("x2 x2")


def test_presentation_invariants():
    with pytest.raises(ValueError):
        presentation(["x1"], [gen("x2")])
    p = presentation(["x1", "x2"], [multiply(gen("x1"), gen("x2"), invert(gen("x1")))])
    # cyclically reduced on construction
    assert p.relators[0] == gen("x2")


def test_presentation_text_roundtrip():
    p = raw_presentation(bmf_cn(1), projective=True)
    d = presentation_to_json(p)
    assert [g["label"] for g in d["generators"]] == list(p.generators)
    assert [g["index"] for g in d["generators"]] == list(range(1, len(p.generators) + 1))
    assert tuple(parse_word(t) for t in d["relators"]) == p.relators
    assert tuple(d["origins"]) == p.origins


def test_raw_presentation_rejects_skeletons_beyond_strand_count():
    """A base or conjugator skeleton that ends past B_n's last strand is a
    ValueError, not a relator over a generator the presentation lacks."""
    for twist in (ConjugatedTwist(Skeleton(1, 4)),
                  ConjugatedTwist(Skeleton(1, 2), 1, ((Skeleton(2, 4), 2),))):
        bmf = BMF(3, (BMFactor(twist),), ("x1", "x2", "x3"))
        with pytest.raises(ValueError, match="exceeds strand count 3"):
            raw_presentation(bmf)


@pytest.fixture
def pair_calls(monkeypatch):
    """The calls of `vankampen.relation_pair` made while the test runs."""
    calls = []
    plain = vankampen.relation_pair

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(vankampen, "relation_pair", counted)
    return calls


def test_raw_presentations_share_one_pass_per_bmf_object(pair_calls):
    """Both complements of one BMF read its factor relators, built once:
    the projective presentation is the affine one plus the projective
    relator. An equal BMF built anew makes its own calls."""
    b = bmf_tnm(2, 1)
    affine = raw_presentation(b)
    projective = raw_presentation(b, projective=True)
    assert len(pair_calls) == len(b.factors)
    assert projective.relators == affine.relators + (projective_relator(b.labels),)
    assert projective.origins == affine.origins + ("projective",)
    again = bmf_tnm(2, 1)
    assert raw_presentation(again, projective=True) == projective
    assert len(pair_calls) == 2 * len(b.factors)


def test_raw_presentation_leaves_the_bmf_as_it_was():
    """Building the relators changes nothing a caller of the BMF reads."""
    b = bmf_tnm(2, 1)
    raw_presentation(b)
    fresh = bmf_tnm(2, 1)
    assert b == fresh and hash(b) == hash(fresh) and repr(b) == repr(fresh)
    assert bmf_to_json(b) == bmf_to_json(fresh)


def test_overrides_on_a_built_bmf_give_the_override_relators(pair_calls):
    """`apply_overrides` returns a fresh BMF, which builds the relators of
    its own factors rather than reading the ones built for its source."""
    b = bmf_tnm(1, 1)
    origin = next(f.origin for f in b.factors if f.provisional)
    override = {origin: {"base_side": ABOVE, "conjugators": [
        {"i": 1, "j": 2, "side": BELOW, "power": 2}]}}
    before = raw_presentation(b)
    changed = raw_presentation(apply_overrides(b, override))
    assert changed == raw_presentation(apply_overrides(bmf_tnm(1, 1), override))
    assert changed != before
    assert len(pair_calls) == 3 * len(b.factors)
