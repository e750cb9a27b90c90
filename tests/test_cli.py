import json

from conicline.catalog import audit, bmf_from_json, bmf_to_json
from conicline.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bmf_c1(capsys):
    code, out, _ = run(capsys, "bmf", "C", "--n", "1")
    assert code == 0
    assert "3 factors" in out


def test_bmf_t22_json_roundtrip(capsys):
    code, out, _ = run(capsys, "bmf", "T", "--n", "2", "--m", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["bmf"]["factors"]) == 24
    assert data["audit"]["passed"]
    again = bmf_from_json(data["bmf"])
    assert audit(again).to_json() == data["audit"]
    assert bmf_to_json(again) == data["bmf"]


def test_bmf_usage_error(capsys):
    code, _, err = run(capsys, "bmf", "T", "--n", "0", "--m", "3")
    assert code == 2
    assert "requires n >= 1" in err


def test_unknown_family(capsys):
    code, _, _ = run(capsys, "bmf", "Q", "--n", "1")
    assert code == 2


def test_present_and_abelianize(capsys):
    code, out, _ = run(capsys, "present", "C", "--n", "1", "--raw", "--projective")
    assert code == 0
    assert out.startswith("gens: x1 x1p x2")
    code, out, _ = run(capsys, "abelianize", "C", "--n", "1", "--raw",
                       "--projective", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["free_rank"] == 1 and data["torsion"] == []


def test_present_paper(capsys):
    code, out, _ = run(capsys, "present", "T", "--n", "1", "--m", "1", "--paper")
    assert code == 0
    assert out.startswith("gens: x2 x5 x6")


def test_fingerprint(capsys):
    code, out, _ = run(capsys, "fingerprint", "T", "--paper", "--targets", "S3")
    assert code == 0
    assert "S3: 24" in out


def test_empty_targets_is_a_usage_error(capsys):
    for targets in ("", ","):
        for command in (("fingerprint", "T", "--paper"), ("compare", "C", "--n", "1")):
            code, out, err = run(capsys, *command, "--targets", targets)
            assert code == 2 and out == ""
            assert "empty battery" in err and "S3, D4, A4, S4" in err


def test_compare_consistent_exit_zero(capsys):
    code, out, _ = run(capsys, "compare", "T", "--n", "1", "--m", "1",
                       "--targets", "S3,A4")
    assert code == 0
    assert "consistent" in out


def test_bigness_pass_and_reject(capsys):
    code, out, _ = run(capsys, "bigness", "T", "--n", "2", "--m", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert data["images"]["x2"] == "s t^-1"
    code, _, err = run(capsys, "bigness", "C", "--n", "1")
    assert code == 2
    assert "n >= 2" in err


def test_ztilde_override_file(tmp_path, capsys):
    # overriding a tilde factor with a wrong conjugator breaks nothing in the
    # audit (still a node of the same endpoints) and the file is honored
    from conicline.catalog import bmf_tnm as build
    origin = next(f.origin for f in build(1, 1).factors if f.provisional)
    path = tmp_path / "zt.json"
    path.write_text(json.dumps({origin: {"conjugators": [
        {"i": 1, "j": 2, "side": "below", "power": 2}]}}))
    code, out, _ = run(capsys, "bmf", "T", "--n", "1", "--m", "1", "--json",
                       "--ztilde-override", str(path))
    assert code == 0
    data = json.loads(out)
    factor = next(f for f in data["bmf"]["factors"] if f["origin"] == origin)
    assert factor["conjugators"] == [{"i": 1, "j": 2, "side": "below", "power": 2}]
