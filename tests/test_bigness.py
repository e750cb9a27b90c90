import random

import pytest

from conicline.bigness import (FP_IDENTITY, FPWord, S, T, certify,
                               certify_certificate, evaluate, fp_text,
                               letter_images, standard_certificate)
from conicline.paper_groups import presentation_c2_proj
from conicline.vankampen import presentation
from conicline.words import Word, _inverse, gen, multiply
from oracles import psl2z_element


def syl(*items):
    return tuple(items)


def test_nf_torsion_collapse():
    assert FPWord(syl(("s", 1), ("t", 1), ("t", 1), ("t", 1), ("s", 1), ("s", 1))) == S
    assert FPWord(syl(("s", 1), ("t", 1), ("s", 1), ("t", -1))).syllables == \
        (("s", 1), ("t", 1), ("s", 1), ("t", -1))
    assert FPWord(syl(("t", 1), ("t", 1))) == ~T
    assert FPWord(syl(("s", 1), ("s", 1))) == FP_IDENTITY


def test_nf_multiplicative_random():
    rng = random.Random(3)
    for _ in range(1000):
        raw1 = [(rng.choice("st"), rng.choice((1, -1, 2))) for _ in range(rng.randint(0, 8))]
        raw2 = [(rng.choice("st"), rng.choice((1, -1, 2))) for _ in range(rng.randint(0, 8))]
        assert FPWord(raw1 + raw2) == FPWord(raw1) * FPWord(raw2)


def test_normal_form_is_unique_against_psl2z():
    """FPWord is the identity exactly when the PSL(2, Z) image is, and two
    words have equal normal forms exactly when their images agree."""
    rng = random.Random(11)
    trivial = [(("s", 2),), (("t", 3),), (("t", 1), ("t", -1)), (("s", 1), ("s", -1)),
               (("t", 2), ("t", 1)), (("s", 1), ("t", 1), ("t", -1), ("s", 1))]

    def random_word(k):
        return [(rng.choice("st"), rng.choice((1, -1, 2))) for _ in range(rng.randint(0, k))]

    def padded(w):
        out = list(w)
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(out))
            out[at:at] = rng.choice(trivial)
        return out

    words = []
    for _ in range(300):
        u = random_word(6)
        words += [u, padded(u), padded(u + [(l, -e) for l, e in reversed(u)])]
    forms = [(w, FPWord(w), psl2z_element(w)) for w in words]
    identity = psl2z_element([])
    for w, nf, image in forms:
        assert (nf == FP_IDENTITY) == (image == identity), w
    assert sum(image == identity for _, _, image in forms) >= 300
    equal_pairs = 0
    for _ in range(20000):
        (a, nf_a, image_a), (b, nf_b, image_b) = rng.choice(forms), rng.choice(forms)
        assert (nf_a == nf_b) == (image_a == image_b), (a, b)
        equal_pairs += image_a == image_b and a != b
    assert equal_pairs >= 100


def test_evaluate_is_the_product_of_the_letter_images():
    """The one FPWord of `evaluate` is the PSL(2, Z) product of the images of
    a word's letters, an inverse letter taking the inverse image; words of
    the form u v u^-1 also reach the identity when v's image is trivial."""
    rng = random.Random(17)
    labels = ("a", "b", "c", "d")
    identity = psl2z_element([])
    trivial = 0
    for _ in range(500):
        raw = {lab: [(rng.choice("st"), rng.choice((1, -1, 2)))
                     for _ in range(rng.randint(0, 4))] for lab in labels}
        images = {lab: FPWord(w) for lab, w in raw.items()}
        u = tuple((rng.choice(labels), rng.choice((1, -1))) for _ in range(rng.randint(0, 8)))
        v = tuple((rng.choice(labels), rng.choice((1, -1))) for _ in range(rng.randint(0, 3)))
        for letters in (u, u + v + _inverse(u)):
            w = Word(letters)
            expected = psl2z_element([syl for lab, sign in w.letters for syl in (
                raw[lab] if sign > 0 else [(l, -e) for l, e in reversed(raw[lab])])])
            value = evaluate(letter_images(images), w)
            assert psl2z_element(value.syllables) == expected, (raw, w)
            assert value == FPWord(value.syllables)
            trivial += bool(w) and expected == identity
    assert trivial >= 20


def test_fp_inverse_and_identity():
    w = FPWord(syl(("s", 1), ("t", 1)))
    assert w * ~w == FP_IDENTITY
    assert FP_IDENTITY * w == w
    assert fp_text(FP_IDENTITY) == "1"


def test_c2_certificate_by_hand():
    # a -> s t^-1, b -> t kills (ab)^2 = (ba)^2 and hits both generators
    p = presentation_c2_proj()
    images = {"x1": S * ~T, "x2": T}
    witnesses = {"s": multiply(gen("x1"), gen("x2")), "t": gen("x2")}
    report = certify(p, images, witnesses)
    assert report.passed, report
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
    cases = [("T00", None, None)]
    cases += [("C", n, None) for n in range(2, 6)]
    cases += [("Tn0", n, None) for n in range(1, 6)]
    cases += [("T", n, m) for n in range(1, 6) for m in range(1, 6)]
    for fam, n, m in cases:
        cert = standard_certificate(fam, n, m)
        report = certify_certificate(cert)
        assert report.passed, (fam, n, m, report)


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
