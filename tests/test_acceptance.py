"""Acceptance suite: every criterion is exercised at its stated scope and
prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`)."""

import random

import golden
from conicline.bigness import (FP_IDENTITY, S, certify, certify_certificate,
                               nf, standard_certificate)
from conicline.catalog import (audit, bmf_cn, bmf_t00, bmf_t10, bmf_t11,
                               bmf_t20, bmf_t21, bmf_t22, bmf_tn0, bmf_tnm)
from conicline.finite_groups import S3
from conicline.fpgroup import (abelianization, compare, count_homs,
                               fingerprint, tietze_simplify)
from conicline.paper_groups import (presentation_cn_affine, presentation_cn_proj,
                                    presentation_t00, presentation_t11,
                                    presentation_tn0, presentation_tnm)
from conicline.vankampen import (raw_presentation, relator_equal_up_to_cyc)
from conicline.words import gen, multiply
from oracles import count_homs_bruteforce, random_presentation


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, detail


def test_criterion_01_degree_audit_c_family():
    ok = True
    for n in range(1, 11):
        report = audit(bmf_cn(n))
        ok = ok and report.passed
        ok = ok and report.exponent_sum == (n + 2) * (n + 1)
        ok = ok and report.counts == {"branch": 2, "tangency": n,
                                      "node": n * (n - 1) // 2}
    _report(1, "degree audit, C family (n=1..10)", ok)


def test_criterion_02_degree_audit_t_family():
    ok = True
    for n in range(1, 6):
        for m in range(1, 6):
            report = audit(bmf_tnm(n, m))
            N = n + m + 4
            ok = ok and report.passed and report.exponent_sum == N * (N - 1)
            ok = ok and report.counts == {
                "branch": 4, "tangency": n + m + 2,
                "node": 2 * n + 2 * m + n * m + n * (n - 1) // 2 + m * (m - 1) // 2}
    for n in range(1, 9):
        report = audit(bmf_tn0(n))
        ok = ok and report.passed
    for fn in (bmf_t00, bmf_t10, bmf_t20, bmf_t11, bmf_t21, bmf_t22):
        ok = ok and audit(fn()).passed
    t22 = audit(bmf_t22())
    ok = ok and t22.exponent_sum == 56
    ok = ok and t22.counts == {"branch": 4, "tangency": 6, "node": 14}
    _report(2, "degree audit, T family (n,m<=5; T_{n,0} n<=8; fixed cases)", ok)


def test_criterion_03_golden_van_kampen_c1():
    p = raw_presentation(bmf_cn(1))
    want = golden.relator_words(golden.c1_relations())
    got = list(zip(p.origins, p.relators))
    uw, ug = golden.match_relators(got, want, relator_equal_up_to_cyc)
    ok = len(p.relators) == 3 and not uw and not ug
    _report(3, "golden van Kampen, C_1 (three relators, verbatim lists)", ok,
            f"unmatched paper={uw} engine={ug}")


def test_criterion_04_golden_van_kampen_c2_and_tnm():
    problems = []
    p = raw_presentation(bmf_cn(2))
    uw, ug = golden.match_relators(list(zip(p.origins, p.relators)),
                                   golden.relator_words(golden.c2_relations()),
                                   relator_equal_up_to_cyc)
    if uw or ug:
        problems.append(f"C2: {uw} {ug}")
    p = raw_presentation(bmf_tnm(2, 2), projective=True)
    assert len(p.relators) == 25  # 24 monodromy relators + projective
    monodromy = list(zip(p.origins[:-1], p.relators[:-1]))
    uw, ug = golden.match_relators(monodromy,
                                   golden.relator_words(golden.tnm_relations(2, 2)),
                                   relator_equal_up_to_cyc)
    tilde_only = [tag for tag in ug if "tilde" not in tag]
    if uw or tilde_only:
        problems.append(f"T(2,2): paper={uw} engine(non-tilde)={tilde_only}")
    if ug and not tilde_only:
        print("  note: tilde-default mismatches reported per factor:", ug)
    _report(4, "golden van Kampen, C_2 and T_{2,2} raw lists", not problems,
            "; ".join(problems))


def test_criterion_05_abelianization_ranks():
    ok = True
    for n in range(1, 11):
        res = abelianization(raw_presentation(bmf_cn(n), projective=True))
        ok = ok and (res.rank_free, res.torsion) == (n, ())
    for n in range(1, 9):
        res = abelianization(raw_presentation(bmf_tn0(n), projective=True))
        ok = ok and (res.rank_free, res.torsion) == (n + 1, ())
    for n in range(1, 6):
        for m in range(1, 6):
            res = abelianization(raw_presentation(bmf_tnm(n, m), projective=True))
            ok = ok and (res.rank_free, res.torsion) == (n + m + 1, ())
    # identical invariants for the stated presentations
    for n in range(1, 5):
        res = abelianization(presentation_cn_proj(n))
        ok = ok and (res.rank_free, res.torsion) == (n, ())
    for n in range(1, 4):
        res = abelianization(presentation_tn0(n))
        ok = ok and (res.rank_free, res.torsion) == (n + 1, ())
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3)):
        res = abelianization(presentation_tnm(n, m))
        ok = ok and (res.rank_free, res.torsion) == (n + m + 1, ())
    _report(5, "abelianization ranks, raw vs stated (no torsion)", ok)


def test_criterion_06_fingerprint_consistency():
    battery = ("S3", "D4", "A4")
    failures = []

    def check(tag, raw, paper, targets):
        rep = compare(raw, paper, targets)
        if not rep.consistent:
            failures.append(f"{tag}: {rep.per_target}")

    for n in range(1, 5):
        check(f"C{n} affine", raw_presentation(bmf_cn(n)),
              presentation_cn_affine(n), battery)
        check(f"C{n} projective", raw_presentation(bmf_cn(n), projective=True),
              presentation_cn_proj(n), battery)
    for n in range(1, 4):
        check(f"T({n},0)", raw_presentation(bmf_tn0(n), projective=True),
              presentation_tn0(n), battery)
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        check(f"T({n},{m})", raw_presentation(bmf_tnm(n, m), projective=True),
              presentation_tnm(n, m), battery)
    # S4 added where the generator count permits (auto-skip otherwise)
    for n, m in ((1, 1), (2, 2)):
        check(f"T({n},{m}) S4", raw_presentation(bmf_tnm(n, m), projective=True),
              presentation_tnm(n, m), ("S3", "S4"))
    _report(6, "fingerprint consistency raw vs stated ({S3,D4,A4}, +S4)",
            not failures, "; ".join(failures))


def test_criterion_07_known_small_groups():
    simplified = tietze_simplify(raw_presentation(bmf_cn(1), projective=True))
    p = simplified.presentation
    ok = len(p.generators) == 1 and not p.relators
    res = abelianization(raw_presentation(bmf_cn(1), projective=True))
    ok = ok and (res.rank_free, res.torsion) == (1, ())
    # Z * Z/2 into S3: |S3| * #{elements of order dividing 2}
    involutions = sum(1 for e in range(S3.order) if S3.mult[e][e] == S3.identity)
    independent = S3.order * involutions
    fp = fingerprint(presentation_t00(), ("S3",))
    ok = ok and independent == 24 and fp.counts["S3"] == independent
    _report(7, "known small groups: projective C_1 is Z; T_{0,0} hits Z*Z/2 count",
            ok)


def test_criterion_08_remark_m0_specialization():
    failures = []
    for n in (1, 2, 3):
        rep = compare(presentation_tnm(n, 0), presentation_tn0(n),
                      ("S3", "D4", "A4"))
        if not rep.consistent:
            failures.append(f"n={n}: {rep.per_target}")
    _report(8, "closing remark: T_{n,m}|_{m=0} matches T_{n,0} (n<=3)",
            not failures, "; ".join(failures))


def test_criterion_09_t11_cross_check():
    rep = compare(presentation_t11(), presentation_tnm(1, 1),
                  ("S3", "D4", "A4", "S4"))
    _report(9, "T_{1,1} stated presentation vs general statement at (1,1)",
            rep.consistent and not rep.skipped, str(rep.per_target))


def test_criterion_10_bigness_certificates():
    failures = []
    cases = [("C", n, None) for n in range(2, 6)]
    cases += [("T00", None, None)]
    cases += [("Tn0", n, None) for n in range(1, 6)]
    cases += [("T", n, m) for n in range(1, 6) for m in range(1, 6)]
    for fam, n, m in cases:
        report = certify_certificate(standard_certificate(fam, n, m))
        if not report.passed:
            failures.append(f"{fam} n={n} m={m}")
    # negative controls
    from conicline.paper_groups import presentation_c2_proj
    p = presentation_c2_proj()
    witnesses = {"s": multiply(gen("x1"), gen("x2")), "t": gen("x2")}
    if certify(p, {"x1": FP_IDENTITY, "x2": FP_IDENTITY}, witnesses).passed:
        failures.append("identity control unexpectedly passed")
    if certify(p, {"x1": S, "x2": S}, witnesses).passed:
        failures.append("s,s control unexpectedly passed")
    _report(10, "bigness certificates pass; negative controls fail",
            not failures, "; ".join(failures))


def test_criterion_11_toolkit_self_tests():
    ok = True
    rng = random.Random(2024)
    for _ in range(60):
        p = random_presentation(rng, max_gens=3, max_relators=3, max_len=6)
        if count_homs(p, S3) != count_homs_bruteforce(p, S3):
            ok = False
    for _ in range(200):
        p = random_presentation(rng, max_gens=3, max_relators=3, max_len=5)
        q = tietze_simplify(p).presentation
        if count_homs(p, S3) != count_homs(q, S3):
            ok = False
        a1, a2 = abelianization(p), abelianization(q)
        if (a1.rank_free, a1.torsion) != (a2.rank_free, a2.torsion):
            ok = False
    for _ in range(1000):
        raw1 = [(rng.choice("st"), rng.choice((1, -1, 2)))
                for _ in range(rng.randint(0, 8))]
        raw2 = [(rng.choice("st"), rng.choice((1, -1, 2)))
                for _ in range(rng.randint(0, 8))]
        if nf(raw1 + raw2) != nf(raw1) * nf(raw2):
            ok = False
    _report(11, "toolkit self-tests: hom-count oracle, Tietze preservation, "
                "free-product normal form", ok)
