import pytest

from conicline.arrangement import Arrangement
from conicline.braid import ABOVE, BELOW, ConjugatedTwist, Skeleton
from conicline.catalog import (SingType, audit, bmf_cn, bmf_from_json,
                               bmf_t00, bmf_t10, bmf_t11, bmf_t1m, bmf_t20,
                               bmf_t21, bmf_t22, bmf_tn0, bmf_tnm, bmf_to_json,
                               expand_shorthand, ShorthandError,
                               singularity_table_c1, singularity_table_c2)


def endpoints_multiset(b):
    return sorted((f.twist.power,) + f.twist.endpoints() for f in b.factors)


def test_bmf_c1_matches_explicit_list():
    b = bmf_cn(1)
    assert b.strand_count == 3
    assert [f.sing_type for f in b.factors] == [
        SingType.BRANCH, SingType.TANGENCY, SingType.BRANCH]
    f1, f2, f3 = b.factors
    assert f1.twist == ConjugatedTwist(Skeleton(1, 2), 1)
    assert f2.twist == ConjugatedTwist(Skeleton(1, 3), 4, ((Skeleton(1, 2), 2),))
    assert f3.twist == ConjugatedTwist(Skeleton(1, 2), 1, ((Skeleton(2, 3), -2),))


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


def test_cn_audits():
    for n in range(1, 11):
        report = audit(bmf_cn(n))
        assert report.passed, report.to_json()
        assert report.counts == {"branch": 2, "tangency": n, "node": n * (n - 1) // 2}


def test_fixed_case_audits():
    for fn, counts in [
        (bmf_t00, (4, 2, 0)), (bmf_t10, (4, 3, 2)), (bmf_t20, (4, 4, 5)),
        (bmf_t11, (4, 4, 5)), (bmf_t21, (4, 5, 9)), (bmf_t22, (4, 6, 14)),
    ]:
        report = audit(fn())
        assert report.passed, (fn.__name__, report.to_json())
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
        assert report.passed, (n, report.to_json())


def test_tnm_audits():
    for n in range(1, 6):
        for m in range(1, 6):
            report = audit(bmf_tnm(n, m))
            assert report.passed, (n, m, report.to_json())
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
    b2 = Arrangement("T", 1, 1).bmf(override)
    f2 = next(f for f in b2.factors if f.origin == origin)
    assert f2.twist.base.side == ABOVE
    assert f2.twist.conjugators == ((Skeleton(1, 2), 2),)


def test_expand_shorthand():
    names = {"1": 1, "1'": 2, "2": 3, "2'": 4}
    out = expand_shorthand("Z^2_{1,2 2'}", names)
    assert out == [ConjugatedTwist(Skeleton(1, 4), 2),
                   ConjugatedTwist(Skeleton(1, 3), 2)]
    out = expand_shorthand("Z^2_{1 1',2 2'}", names)
    assert out == [ConjugatedTwist(Skeleton(2, 4), 2),
                   ConjugatedTwist(Skeleton(2, 3), 2),
                   ConjugatedTwist(Skeleton(1, 4), 2),
                   ConjugatedTwist(Skeleton(1, 3), 2)]
    with pytest.raises(ShorthandError):
        expand_shorthand("Z^4_{1 3}")
    with pytest.raises(ShorthandError):
        expand_shorthand("Z^2_{1,2 3}", names)


def test_json_roundtrip():
    for b in (bmf_cn(3), bmf_tnm(2, 2), bmf_tn0(3)):
        again = bmf_from_json(bmf_to_json(b))
        assert again == b
        assert audit(again).to_json() == audit(b).to_json()


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
    (lambda f: f["conjugators"][0].pop("j"), "conjugator 0 needs integer"),
    (lambda f: f.update(sing_type="node"), "sing_type 'node' does not match power 1"),
    (lambda f: f["base"].update(power=1), r"base has unknown keys \['power'\]"),
    (lambda f: f.update(conjugators={}), "expected a 'conjugators' list"),
], ids=["i-str", "i-float", "power-float", "j-missing", "sing_type-contradicts",
        "base-extra-key", "conjugators-object"])
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


def test_singularity_tables_align_with_factor_counts():
    assert len(singularity_table_c1()) == len(bmf_cn(1).factors)
    assert len(singularity_table_c2()) == len(bmf_cn(2).factors)
    assert [r["exponent"] for r in singularity_table_c1()] == [1, 4, 1]
    assert sorted(r["exponent"] for r in singularity_table_c2()) == \
        sorted(f.twist.power for f in bmf_cn(2).factors)
