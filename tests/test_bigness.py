import random

import pytest

from conicline.bigness import (FP_IDENTITY, S, T, certify,
                               certify_certificate, fp_parse, fp_text, nf,
                               standard_certificate)
from conicline.paper_groups import presentation_c2_proj
from conicline.vankampen import presentation
from conicline.words import gen, multiply


def syl(*items):
    return tuple(items)


def test_nf_torsion_collapse():
    assert nf(syl(("s", 1), ("t", 1), ("t", 1), ("t", 1), ("s", 1), ("s", 1))) == S
    assert nf(syl(("s", 1), ("t", 1), ("s", 1), ("t", -1))).syllables == \
        (("s", 1), ("t", 1), ("s", 1), ("t", -1))
    assert nf(syl(("t", 1), ("t", 1))) == ~T
    assert nf(syl(("s", 1), ("s", 1))) == FP_IDENTITY


def test_nf_multiplicative_random():
    rng = random.Random(3)
    for _ in range(1000):
        raw1 = [(rng.choice("st"), rng.choice((1, -1, 2))) for _ in range(rng.randint(0, 8))]
        raw2 = [(rng.choice("st"), rng.choice((1, -1, 2))) for _ in range(rng.randint(0, 8))]
        assert nf(raw1 + raw2) == nf(raw1) * nf(raw2)


def test_fp_inverse_and_identity():
    w = nf(syl(("s", 1), ("t", 1)))
    assert w * ~w == FP_IDENTITY
    assert FP_IDENTITY * w == w
    assert fp_parse(fp_text(w)) == w
    assert fp_text(FP_IDENTITY) == "1"


def test_c2_certificate_by_hand():
    # a -> s t^-1, b -> t kills (ab)^2 = (ba)^2 and hits both generators
    p = presentation_c2_proj()
    images = {"x1": S * ~T, "x2": T}
    witnesses = {"s": multiply(gen("x1"), gen("x2")), "t": gen("x2")}
    report = certify(p, images, witnesses)
    assert report.passed, report.to_json()
    ab = images["x1"] * images["x2"]
    assert ab * ab == FP_IDENTITY


def test_negative_controls():
    p = presentation_c2_proj()
    witnesses = {"s": multiply(gen("x1"), gen("x2")), "t": gen("x2")}
    all_trivial = certify(p, {"x1": FP_IDENTITY, "x2": FP_IDENTITY}, witnesses)
    assert not all_trivial.passed
    assert all(c.passed for c in all_trivial.checks if c.name.startswith("relator"))
    assert any(not c.passed for c in all_trivial.checks if c.name.startswith("witness"))
    both_s = certify(p, {"x1": S, "x2": S}, witnesses)
    assert not both_s.passed
    assert all(c.passed for c in both_s.checks if c.name.startswith("relator"))
    t_check = next(c for c in both_s.checks if c.name == "witness_t")
    assert not t_check.passed


def test_witness_letter_without_an_image_is_a_failed_check():
    report = certify(presentation(["x1"], []), {"x1": T}, {"s": gen("y"), "t": gen("x1")})
    witness_s = next(c for c in report.checks if c.name == "witness_s")
    assert not witness_s.passed and "'y'" in witness_s.detail
    assert next(c for c in report.checks if c.name == "witness_t").passed
    assert not report.passed


def test_standard_certificates_families():
    cases = [("T00", None, None), ("T10", None, None), ("T20", None, None),
             ("T11", None, None)]
    cases += [("C", n, None) for n in range(2, 6)]
    cases += [("Tn0", n, None) for n in range(1, 6)]
    cases += [("T", n, m) for n in range(1, 6) for m in range(1, 6)]
    for fam, n, m in cases:
        cert = standard_certificate(fam, n, m)
        report = certify_certificate(cert)
        assert report.passed, (fam, n, m, report.to_json())


def test_t00_certificate_images():
    cert = standard_certificate("T00")
    assert cert.images["x1"] == S * ~T
    assert cert.images["x2"] == T
    assert certify_certificate(cert).passed


def test_tnm_certificate_images():
    cert = standard_certificate("T", 2, 2)
    assert cert.images["x2"] == S * ~T
    assert cert.images["x5"] == T
    for lab in ("x6", "x7", "x8"):
        assert cert.images[lab] == FP_IDENTITY
    assert certify_certificate(cert).passed


def test_unclaimed_families_rejected():
    with pytest.raises(ValueError):
        standard_certificate("C", 1)
    with pytest.raises(ValueError):
        standard_certificate("C", 0)
    with pytest.raises(ValueError):
        standard_certificate("Q")


def test_certificate_json():
    cert = standard_certificate("C", 2)
    data = cert.to_json()
    assert data["family"] == "C" and data["n"] == 2
    assert data["images"]["x1"] == "s t^-1"
    assert data["witnesses"]["s"] == "x1 x2"
