"""`Arrangement` as the one (family, n, m) dispatcher: CLI outputs pinned
before it existed, the rejection matrix every command shares, and agreement
with the per-family constructors on the benchmark grid."""

import hashlib
import json
from pathlib import Path

import pytest

from conicline import catalog, paper_groups as pg
from conicline.arrangement import Arrangement
from conicline.bigness import certify_certificate, standard_certificate
from conicline.braid import ABOVE, BELOW
from conicline.cli import main
from conicline.vankampen import presentation_text, raw_presentation

# argv -> [exit code, SHA-256 of stdout], recorded from the CLI as it was
# before the dispatchers were folded into Arrangement.
DIGESTS = json.loads((Path(__file__).parent / "cli_digests.json").read_text())


def run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_outputs_match_pins(capsys):
    assert len(DIGESTS) == 174
    assert {k.split()[0] for k in DIGESTS} == {"bmf", "present", "abelianize", "bigness"}
    changed = []
    for argv, pinned in DIGESTS.items():
        code, out, _ = run(capsys, argv.split())
        if [code, hashlib.sha256(out.encode()).hexdigest()] != pinned:
            changed.append(argv)
    assert not changed


ALL_COMMANDS = ("bmf", "present", "abelianize", "fingerprint", "compare", "bigness")
BAD_TRIPLES = (("Q", "--n", "1"), ("C", "--n", "2", "--m", "5"),
               ("C", "--n", "2", "--m", "0"), ("T", "--m", "1"),
               ("T", "--n", "0", "--m", "2"))


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize("triple", BAD_TRIPLES)
def test_every_command_rejects_the_same_triples(capsys, command, triple):
    code, out, err = run(capsys, (command,) + triple)
    assert code == 2 and out == ""
    assert ("unknown family" in err or "takes only n" in err
            or "requires n >= 1" in err)


@pytest.mark.parametrize("command", ("present", "abelianize", "fingerprint"))
@pytest.mark.parametrize("triple", (("T",), ("T", "--n", "2"), ("T", "--n", "1", "--m", "1")))
def test_stated_t_presentations_are_projective_only(capsys, command, triple):
    code, out, err = run(capsys, (command,) + triple + ("--paper", "--affine"))
    assert code == 2 and out == ""
    assert "projective" in err


def test_compare_affine_t_is_rejected(capsys):
    code, out, err = run(capsys, ("compare", "T", "--n", "1", "--affine"))
    assert code == 2 and out == "" and "projective" in err


def test_bigness_t_certifies_t00(capsys):
    code, out, _ = run(capsys, ("bigness", "T", "--json"))
    assert code == 0
    data = json.loads(out)
    assert (data["family"], data["n"], data["m"]) == ("T00", 0, 0)
    assert data["passed"]
    assert data == json.loads(run(capsys, ("bigness", "T", "--n", "0", "--m", "0",
                                            "--json"))[1])
    expected = standard_certificate("T00").to_json()
    assert {k: data[k] for k in expected} == expected


def test_arrangement_normalizes_and_validates():
    assert Arrangement("t") == Arrangement("T", 0, 0) == Arrangement("T", None, 0)
    assert Arrangement("c", 3) == Arrangement("C", 3)
    assert Arrangement("C", 3).m is None
    for family, n, m, message in (("Q", 1, None, "unknown family"),
                                  ("C", None, None, "needs n >= 1"),
                                  ("C", 0, None, "needs n >= 1"),
                                  ("C", 2, 0, "takes only n"),
                                  ("T", 0, 1, "requires n >= 1"),
                                  ("T", -1, 0, "n >= 0 and m >= 0"),
                                  ("T", 1, -1, "n >= 0 and m >= 0")):
        with pytest.raises(ValueError, match=message):
            Arrangement(family, n, m)


BUILD_GRID = ([("C", n, None) for n in range(1, 11)] + [("T", 0, 0)]
              + [("T", n, 0) for n in range(1, 9)]
              + [("T", n, m) for n in range(1, 6) for m in range(1, 6)])


def _legacy(family, n, m):
    """The per-family constructors, dispatched by hand."""
    if family == "C":
        bmf = catalog.bmf_cn(n)
        stated = (pg.presentation_cn_proj(n), pg.presentation_cn_affine(n))
        cert = standard_certificate("C", n) if n >= 2 else None
    elif m:
        bmf = catalog.bmf_tnm(n, m)
        stated = (pg.presentation_tnm(n, m), None)
        cert = standard_certificate("T", n, m)
    elif n:
        bmf = catalog.bmf_tn0(n)
        stated = (pg.presentation_tn0(n), None)
        cert = standard_certificate("Tn0", n)
    else:
        bmf = catalog.bmf_t00()
        stated = (pg.presentation_t00(), None)
        cert = standard_certificate("T00")
    return bmf, stated, cert


@pytest.mark.parametrize("family,n,m", BUILD_GRID)
def test_arrangement_agrees_with_family_functions(family, n, m):
    a = Arrangement(family, n, m)
    bmf, (proj, affine), cert = _legacy(family, n, m)
    assert catalog.bmf_to_json(a.bmf()) == catalog.bmf_to_json(bmf)
    assert a.bmf() == bmf
    assert a.stated() == proj
    if affine is not None:
        assert a.stated(projective=False) == affine
    if cert is None:
        with pytest.raises(ValueError, match="n >= 2"):
            a.certificate()
    else:
        mine = a.certificate()
        assert mine.to_json() == cert.to_json() and mine.source == cert.source
        assert certify_certificate(mine).passed
    if family == "T" and n == 1 and m:
        assert a.bmf() == catalog.bmf_t1m(m)


def test_published_small_case_certificates_keep_their_labelings():
    for family, source in (("T10", pg.presentation_t10()), ("T20", pg.presentation_t20()),
                           ("T11", pg.presentation_t11())):
        cert = standard_certificate(family)
        assert cert.family == family and cert.source == source
        assert certify_certificate(cert).passed


@pytest.mark.parametrize("alias", ["CN", "T_N0", "TNM"])
def test_unused_certificate_aliases_are_gone(alias):
    with pytest.raises(ValueError, match="no bigness certificate"):
        standard_certificate(alias, 2, 2)


def test_override_origins_checked_in_library():
    valid = [f.origin for f in Arrangement("T", 3).bmf().factors if f.provisional]
    with pytest.raises(ValueError, match="valid origins") as info:
        Arrangement("T", 3).bmf({"no such factor": {"conjugators": []}})
    assert all(origin in str(info.value) for origin in valid)
    with pytest.raises(ValueError, match="valid origins: none"):
        Arrangement("C", 2).bmf({valid[0]: {"conjugators": []}})
    with pytest.raises(ValueError, match="JSON object"):
        Arrangement("T", 3).bmf([valid[0]])
    assert Arrangement("T", 3).bmf({}) == Arrangement("T", 3).bmf()


@pytest.mark.parametrize("i,j", [(1, 8), (7, 9), (3, 2)])
def test_override_endpoints_checked_against_strand_count(i, j):
    origin = "node L1.L3 (tilde)"
    spec = {origin: {"conjugators": [{"i": 1, "j": 2, "power": 2},
                                     {"i": i, "j": j, "power": 2}]}}
    with pytest.raises(ValueError, match=r"conjugator 1 endpoints .*N = 7") as info:
        Arrangement("T", 3).bmf(spec)
    assert repr(origin) in str(info.value)
    spec[origin]["conjugators"][1].update(i=6, j=7)
    assert Arrangement("T", 3).bmf(spec) != Arrangement("T", 3).bmf()


@pytest.mark.parametrize("spec,message", [
    ({"conjugator": []}, "'conjugators' list"),
    ({"conjugators": [{"i": 1, "j": 2, "sides": "above", "power": 2}]},
     r"conjugator 0 has unknown keys \['sides'\]"),
    ({"base_side": None}, "side must be"),
])
def test_override_spec_typos_are_rejected(spec, message):
    origin = "node L1.L3 (tilde)"
    with pytest.raises(ValueError, match=message) as info:
        Arrangement("T", 3).bmf({origin: spec})
    assert repr(origin) in str(info.value)


@pytest.mark.parametrize("spec,message", [
    ({"conjugators": [{"i": 1, "power": 2}]}, "conjugator 0 needs integer"),
    ({"conjugators": [{"i": 1, "j": 2, "power": 2.0}]}, "conjugator 0 needs integer"),
    ({"conjugators": [{"i": 1, "j": 2, "power": True}]}, "conjugator 0 needs integer"),
    ({"conjugators": [{"i": 1, "j": 2, "side": "left", "power": 2}]}, "side must be"),
    ({"base_side": "left"}, "side must be"),
    ({"conjugators": [{"i": 1, "j": 2, "power": 3}]}, "nonzero and even"),
    ({"conjugators": {"i": 1}}, "'conjugators' list"),
    ([1, 2], "'conjugators' list"),
])
def test_malformed_override_spec_names_the_origin(spec, message):
    origin = next(f.origin for f in catalog.bmf_tnm(1, 1).factors if f.provisional)
    with pytest.raises(ValueError, match=message) as info:
        Arrangement("T", 1, 1).bmf({origin: spec})
    assert repr(origin) in str(info.value)


# "T n m | origin" -> [SHA-256 of the sorted bmf_to_json dump, SHA-256 of the
# raw projective presentation_text], recorded before overrides were applied
# in one place (catalog.apply_overrides).
OVERRIDE_DIGESTS = json.loads((Path(__file__).parent / "override_digests.json").read_text())


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _changed_override(f):
    """A valid override of the provisional factor `f`: its base side flipped
    and its conjugator list with the first power negated; below-axis
    conjugators leave out `side`, which defaults to below."""
    conjugators = []
    for k, (skel, power) in enumerate(f.twist.conjugators):
        c = {"i": skel.i, "j": skel.j, "power": -power if k == 0 else power}
        if skel.side != BELOW:
            c["side"] = skel.side
        conjugators.append(c)
    return {"base_side": ABOVE if f.twist.base.side == BELOW else BELOW,
            "conjugators": conjugators}


def test_override_outputs_match_pins():
    got = {}
    for n, m in ((3, 0), (1, 1), (2, 2)):
        a = Arrangement("T", n, m)
        for f in a.bmf().factors:
            if f.provisional:
                b = a.bmf({f.origin: _changed_override(f)})
                assert b != a.bmf()
                got[f"T {n} {m} | {f.origin}"] = [
                    _sha(json.dumps(catalog.bmf_to_json(b), sort_keys=True)),
                    _sha(presentation_text(raw_presentation(b, projective=True)))]
    assert len(got) == 8
    assert got == OVERRIDE_DIGESTS
