import pytest

import golden
import oracles
from conicline.arrangement import Arrangement
from conicline.braid import (ABOVE, BELOW, ArtinWord, ConjugatedTwist, Skeleton,
                             artin_action, compile_factor, full_twist)
from conicline.catalog import (BMFactor, apply_overrides, audit, bmf_cn, bmf_from_json,
                               bmf_t00, bmf_t10, bmf_t11, bmf_t1m, bmf_t20,
                               bmf_t21, bmf_t22, bmf_tn0, bmf_tnm, bmf_to_json)
from conicline.words import gen


def endpoints_multiset(b):
    return sorted((f.twist.power,) + f.twist.endpoints() for f in b.factors)


def test_bmf_c1_matches_explicit_list():
    b = bmf_cn(1)
    assert b.strand_count == 3
    assert [f.sing_type for f in b.factors] == ["branch", "tangency", "branch"]
    f1, f2, f3 = b.factors
    assert f1.twist == ConjugatedTwist(Skeleton(1, 2), 1)
    assert f2.twist == ConjugatedTwist(Skeleton(1, 3), 4, ((Skeleton(1, 2), 2),))
    assert f3.twist == ConjugatedTwist(Skeleton(1, 2), 1, ((Skeleton(2, 3), -2),))


def test_a_factor_power_other_than_1_2_or_4_is_rejected():
    with pytest.raises(ValueError, match="^factor power must be 1, 2 or 4, got 3$"):
        BMFactor(ConjugatedTwist(Skeleton(1, 2), 3))


def test_bmf_c2_matches_explicit_list():
    b = bmf_cn(2)
    twists = [f.twist for f in b.factors]
    assert twists == [
        ConjugatedTwist(Skeleton(1, 2), 1),
        ConjugatedTwist(Skeleton(1, 3), 4, ((Skeleton(1, 2), 2),)),
        ConjugatedTwist(Skeleton(3, 4), 2, ((Skeleton(1, 3, ABOVE), 2),)),
        ConjugatedTwist(Skeleton(1, 4, ABOVE), 4),
        ConjugatedTwist(Skeleton(1, 2), 1,
                        ((Skeleton(2, 3), -2), (Skeleton(2, 4), -2))),
    ]


def test_bmf_c3_exponent_sum():
    b = bmf_cn(3)
    assert sum(f.twist.power for f in b.factors) == 20


NOT_DELTA_SQUARED = pytest.mark.xfail(
    strict=True, reason="no T list multiplies to Delta^2 (ROADMAP item 2)")


@pytest.mark.parametrize("build, args", [
    *(pytest.param(bmf_cn, (n,), id=f"C{n}") for n in range(1, 6)),
    pytest.param(bmf_t00, (), id="T00", marks=NOT_DELTA_SQUARED),
    pytest.param(bmf_tn0, (1,), id="T10", marks=NOT_DELTA_SQUARED),
])
def test_factor_product_is_the_full_twist(build, args):
    """The compiled factors, concatenated in list order, act on F_N as
    Delta^2 does. Artin's representation of B_N in Aut(F_N) is faithful, so
    this decides that the list multiplies to Delta^2 in B_N. Up to six
    strands the letter-by-letter oracle action gives the same verdict."""
    b = build(*args)
    n = b.strand_count
    product = ArtinWord(n, tuple(letter for f in b.factors
                                 for letter in compile_factor(f.twist, n).letters))
    assert artin_action(product) == artin_action(full_twist(n))
    if n <= 6:
        for k in range(1, n + 1):
            x = gen(f"x{k}")
            assert oracles.apply_braid(product, x) == oracles.apply_braid(full_twist(n), x)


def test_cn_audits():
    for n in range(1, 11):
        report = audit(bmf_cn(n))
        assert report.passed, report
        assert report.counts == {"branch": 2, "tangency": n, "node": n * (n - 1) // 2}


def test_fixed_case_audits():
    for fn, counts in [
        (bmf_t00, (4, 2, 0)), (bmf_t10, (4, 3, 2)), (bmf_t20, (4, 4, 5)),
        (bmf_t11, (4, 4, 5)), (bmf_t21, (4, 5, 9)), (bmf_t22, (4, 6, 14)),
    ]:
        report = audit(fn())
        assert report.passed, (fn.__name__, report)
        br, tg, nd = counts
        assert report.counts == {"branch": br, "tangency": tg, "node": nd}


def test_t00_exact_factors():
    b = bmf_t00()
    assert len(b.factors) == 6
    assert sum(f.twist.power for f in b.factors) == 12
    assert [f.twist.endpoints() for f in b.factors] == [
        (3, 4), (2, 4), (1, 2), (1, 2), (2, 3), (3, 4)]


def test_t22_counts():
    b = bmf_t22()
    assert len(b.factors) == 24
    assert sum(f.twist.power for f in b.factors) == 56


def test_t21_keeps_duplicated_factor():
    b = bmf_t21()
    dup = ConjugatedTwist(Skeleton(1, 5), 2, ((Skeleton(1, 3), 2),))
    assert sum(1 for f in b.factors if f.twist == dup) == 2


def test_tn0_audits():
    for n in range(1, 9):
        report = audit(bmf_tn0(n))
        assert report.passed, (n, report)


def test_tnm_audits():
    for n in range(1, 6):
        for m in range(1, 6):
            report = audit(bmf_tnm(n, m))
            assert report.passed, (n, m, report)
            N = n + m + 4
            assert report.exponent_sum == N * (N - 1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        bmf_cn(0)
    with pytest.raises(ValueError):
        bmf_tn0(0)
    with pytest.raises(ValueError):
        bmf_tnm(0, 3)
    with pytest.raises(ValueError):
        bmf_tnm(2, 0)


def test_t1m_is_tnm_at_n1():
    a, b = bmf_t1m(3), bmf_tnm(1, 3)
    assert [f.twist for f in a.factors] == [f.twist for f in b.factors]


def test_tnm22_agrees_with_fixed_t22_up_to_conjugators():
    # same multiset of (exponent, base endpoints); conjugator-level
    # differences are confined to the tilde defaults and one row-12 node
    assert endpoints_multiset(bmf_tnm(2, 2)) == endpoints_multiset(bmf_t22())


def test_audit_catches_missing_factor():
    b = bmf_tnm(2, 2)
    broken = type(b)(b.strand_count, b.factors[:-1], b.labels,
                     family=b.family, n=b.n, m=b.m)
    report = audit(broken)
    assert not report.passed
    assert any(c.name == "exponent_sum" and not c.passed for c in report.checks)


def test_provisional_factors_are_flagged():
    report = audit(bmf_tnm(2, 2))
    assert any("tilde" in origin for origin in report.provisional_factors)


def test_ztilde_override_is_applied():
    b = bmf_tnm(1, 1)
    origin = next(f.origin for f in b.factors if f.provisional)
    override = {origin: {"base_side": ABOVE, "conjugators": [
        {"i": 1, "j": 2, "side": BELOW, "power": 2}]}}
    b2 = apply_overrides(Arrangement("T", 1, 1).bmf(), override)
    f2 = next(f for f in b2.factors if f.origin == origin)
    assert f2.twist.base.side == ABOVE
    assert f2.twist.conjugators == ((Skeleton(1, 2), 2),)


def test_json_roundtrip():
    for b in (bmf_cn(3), bmf_tnm(2, 2), bmf_tn0(3)):
        again = bmf_from_json(bmf_to_json(b))
        assert again == b
        assert audit(again) == audit(b)


@pytest.mark.parametrize("where, i, j", [
    ("base", 0, 2), ("base", 3, 2), ("base", 2, 2), ("base", 1, 5),
    ("conjugator", 1, 5), ("conjugator", 0, 3), ("conjugator", 4, 3)])
def test_json_import_rejects_bad_endpoints(where, i, j):
    d = bmf_to_json(bmf_cn(2))
    assert d["N"] == 4
    k = next(k for k, fd in enumerate(d["factors"]) if fd["conjugators"])
    part = d["factors"][k]["base"] if where == "base" else \
        d["factors"][k]["conjugators"][-1]
    part["i"], part["j"] = i, j
    with pytest.raises(ValueError, match=f"factor {k}: .*N = 4"):
        bmf_from_json(d)


@pytest.mark.parametrize("edit, message", [
    (lambda f: f["conjugators"][0].update(i="1"), "conjugator 0 needs integer"),
    (lambda f: f["base"].update(i=1.0), "base needs integer"),
    (lambda f: f.update(power=1.0), "power must be"),
    (lambda f: f.update(power=True), "power must be"),
    (lambda f: f["conjugators"][0].pop("j"), "conjugator 0 needs integer"),
    (lambda f: f.update(sing_type="node"), "sing_type 'node' does not match power 1"),
    (lambda f: f["base"].update(power=1), r"base has unknown keys \['power'\]"),
    (lambda f: f.update(conjugators={}), "expected a 'conjugators' list"),
    (lambda f: f["conjugators"][0].update(power=4), "conjugator powers must be 2 or -2"),
    (lambda f: f["conjugators"][0].update(power=10**12), "conjugator powers must be 2 or -2"),
], ids=["i-str", "i-float", "power-float", "power-bool", "j-missing",
        "sing_type-contradicts", "base-extra-key", "conjugators-object",
        "conjugator-power-4", "conjugator-power-huge"])
def test_json_import_rejects_malformed_factors(edit, message):
    d = bmf_to_json(bmf_cn(2))
    k = len(d["factors"]) - 1
    assert d["factors"][k]["power"] == 1 and d["factors"][k]["conjugators"]
    edit(d["factors"][k])
    with pytest.raises(ValueError, match=f"factor {k}: {message}"):
        bmf_from_json(d)


@pytest.mark.parametrize("edit", [lambda d: [d], lambda d: {**d, "N": 4.0}],
                         ids=["list", "N-float"])
def test_json_import_rejects_a_malformed_top_level(edit):
    with pytest.raises(ValueError, match="object with an integer 'N'"):
        bmf_from_json(edit(bmf_to_json(bmf_cn(2))))


@pytest.mark.parametrize("key, value, message", [
    ("n", "2", "'n' must be an integer or null, got '2'"),
    ("m", 2.0, "'m' must be an integer or null, got 2.0"),
    ("n", True, "'n' must be an integer or null, got True"),
    ("family", 7, "'family' must be a string, got 7"),
    ("labels", ["x1", 2], r"'labels' must be a list of strings, got \['x1', 2\]"),
], ids=["n-str", "m-float", "n-bool", "family-int", "label-int"])
def test_json_import_rejects_bad_arrangement_fields(key, value, message):
    d = bmf_to_json(bmf_tnm(2, 2))
    d[key] = value
    with pytest.raises(ValueError, match=message):
        bmf_from_json(d)


@pytest.mark.parametrize("key, value, message", [
    ("provisional", "yes", "'provisional' must be true or false, got 'yes'"),
    ("provisional", 1, "'provisional' must be true or false, got 1"),
    ("origin", 7, "'origin' must be a string, got 7"),
], ids=["provisional-str", "provisional-int", "origin-int"])
def test_json_import_rejects_bad_factor_fields(key, value, message):
    d = bmf_to_json(bmf_tnm(2, 2))
    k = next(k for k, fd in enumerate(d["factors"]) if fd["provisional"])
    d["factors"][k][key] = value
    with pytest.raises(ValueError, match=f"factor {k}: {message}"):
        bmf_from_json(d)


def test_singularity_tables_align_with_factor_counts():
    assert len(golden.singularity_table_c1()) == len(bmf_cn(1).factors)
    assert len(golden.singularity_table_c2()) == len(bmf_cn(2).factors)
    assert [r["exponent"] for r in golden.singularity_table_c1()] == [1, 4, 1]
    assert sorted(r["exponent"] for r in golden.singularity_table_c2()) == \
        sorted(f.twist.power for f in bmf_cn(2).factors)
