import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import conicline
from conicline.catalog import audit, bmf_from_json, bmf_to_json
from conicline.cli import STDOUT_CLOSED, main


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
    report = audit(again)
    assert json.loads(json.dumps(dict(asdict(report), passed=report.passed))) == data["audit"]
    assert bmf_to_json(again) == data["bmf"]


def test_bmf_usage_error(capsys):
    code, _, err = run(capsys, "bmf", "T", "--n", "0", "--m", "3")
    assert code == 2
    assert "requires n >= 1" in err


def test_unknown_family(capsys):
    code, _, _ = run(capsys, "bmf", "Q", "--n", "1")
    assert code == 2


def test_present_and_abelianize(capsys):
    code, out, _ = run(capsys, "present", "C", "--n", "1")
    assert code == 0
    assert out.startswith("gens: x1 x1p x2")
    code, out, _ = run(capsys, "abelianize", "C", "--n", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["free_rank"] == 1 and data["torsion"] == []


def test_raw_and_projective_are_unrecognized_arguments(capsys):
    # the raw presentation and the projective complement are the defaults;
    # --paper and --affine are the one switch for each choice
    for command in ("present", "abelianize", "fingerprint"):
        for flag in ("--raw", "--projective"):
            with pytest.raises(SystemExit) as exc:
                main([command, "C", "--n", "1", flag])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == "", (command, flag)
            assert f"unrecognized arguments: {flag}" in captured.err


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
            assert err == "empty battery (valid groups: S3, D4, A4, S4)\n"


def test_unknown_target_is_a_usage_error(capsys):
    code, out, err = run(capsys, "fingerprint", "T", "--paper", "--targets", "S3, S5")
    assert code == 2 and out == ""
    assert err == "unknown battery groups: S5 (valid groups: S3, D4, A4, S4)\n"


def test_repeated_target_is_a_usage_error(capsys):
    for targets in ("S4,S4", "S3, S3"):
        for command in (("fingerprint", "T", "--n", "3", "--m", "3"),
                        ("fingerprint", "C", "--n", "2", "--json"),
                        ("compare", "C", "--n", "2")):
            code, out, err = run(capsys, *command, "--targets", targets)
            assert code == 2 and out == "", (command, targets)
            assert err == f"repeated battery groups: {targets[:2]}\n"


def test_compare_consistent_exit_zero(capsys):
    code, out, _ = run(capsys, "compare", "T", "--n", "1", "--m", "1",
                       "--targets", "S3,A4")
    assert code == 0
    assert "consistent" in out


def test_compare_with_every_target_skipped_is_inconclusive(capsys):
    argv = ("compare", "T", "--n", "3", "--m", "3", "--targets", "S4")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "inconclusive\n"
    assert err == "S4: skipped (too many generators)\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out) == {"per_target": {}, "verdict": "inconclusive",
                               "skipped": ["S4"]}


def test_fingerprint_with_every_target_skipped_exits_one(capsys):
    argv = ("fingerprint", "T", "--n", "3", "--m", "3", "--targets", "S4")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "S4: skipped (too many generators)\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert out == '{"counts": {}, "skipped": ["S4"]}\n'


# "fingerprint ..." or "compare ..." argv -> [exit code, SHA-256 of stdout,
# SHA-256 of stderr]
REPORT_DIGESTS = json.loads((Path(__file__).parent / "report_digests.json").read_text())


def test_fingerprint_and_compare_outputs_match_pins(capsys):
    assert len(REPORT_DIGESTS) == 30
    assert {k.split()[0] for k in REPORT_DIGESTS} == {"fingerprint", "compare"}
    changed = []
    for argv, pinned in REPORT_DIGESTS.items():
        code, out, err = run(capsys, *argv.split())
        got = [code] + [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
        if got != pinned:
            changed.append(argv)
    assert not changed


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


def _tilde_origin(n):
    from conicline.catalog import bmf_tn0
    return next(f.origin for f in bmf_tn0(n).factors if f.provisional)


def _override_file(tmp_path, data):
    path = tmp_path / "zt.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_override_unknown_origin_is_a_usage_error(tmp_path, capsys):
    path = _override_file(tmp_path, {"no such factor": {"conjugators": []}})
    code, out, err = run(capsys, "bmf", "T", "--n", "3", "--ztilde-override", path)
    assert code == 2 and out == ""
    assert "no such factor" in err and _tilde_origin(3) in err
    code, out, err = run(capsys, "bmf", "C", "--n", "2", "--ztilde-override", path)
    assert code == 2 and out == "" and "valid origins: none" in err


def test_override_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    code, out, err = run(capsys, "bmf", "T", "--n", "3", "--ztilde-override", missing)
    assert code == 2 and out == ""
    assert "cannot read override file" in err and "absent.json" in err


def test_override_file_must_hold_an_object(tmp_path, capsys):
    path = _override_file(tmp_path, [1, 2])
    code, out, err = run(capsys, "present", "T", "--n", "3", "--ztilde-override", path)
    assert code == 2 and out == "" and "JSON object" in err


def test_override_file_holding_null_is_a_usage_error(tmp_path, capsys):
    # null is not "no overrides": only leaving out the option builds without
    path = _override_file(tmp_path, None)
    code, out, err = run(capsys, "present", "T", "--n", "1", "--m", "1",
                         "--ztilde-override", path)
    assert code == 2 and out == "" and "JSON object" in err and "zt.json" in err


def test_override_file_holding_true_names_the_json_type(tmp_path, capsys):
    path = _override_file(tmp_path, True)
    code, out, err = run(capsys, "present", "T", "--n", "1", "--m", "1",
                         "--ztilde-override", path)
    assert code == 2 and out == "" and "zt.json" in err
    assert err.endswith("JSON object mapping factor origins to specs, got boolean\n")


def test_override_conjugator_without_j_is_a_usage_error(tmp_path, capsys):
    origin = _tilde_origin(3)
    path = _override_file(tmp_path, {origin: {"conjugators": [{"i": 1, "power": 2}]}})
    code, out, err = run(capsys, "bmf", "T", "--n", "3", "--ztilde-override", path)
    assert code == 2 and out == ""
    assert repr(origin) in err and "needs integer 'i', 'j' and 'power'" in err


def test_override_bad_side_names_the_origin(tmp_path, capsys):
    origin = _tilde_origin(3)
    for spec in ({"conjugators": [{"i": 1, "j": 2, "side": "sideways", "power": 2}]},
                 {"base_side": "left"}):
        path = _override_file(tmp_path, {origin: spec})
        code, out, err = run(capsys, "bmf", "T", "--n", "3", "--ztilde-override", path)
        assert code == 2 and out == ""
        assert repr(origin) in err and "side must be" in err


def test_override_power_must_be_an_int(tmp_path, capsys):
    origin = _tilde_origin(3)
    for power in (2.0, "2"):
        path = _override_file(tmp_path, {origin: {"conjugators": [
            {"i": 1, "j": 2, "power": power}]}})
        code, out, err = run(capsys, "bmf", "T", "--n", "3", "--ztilde-override", path)
        assert code == 2 and out == ""
        assert repr(origin) in err and "needs integer" in err


@pytest.mark.parametrize("argv", [
    ("bigness", "T", "--n", "2"),
    ("present", "T", "--n", "2", "--paper"),
    ("abelianize", "T", "--n", "2", "--paper"),
    ("fingerprint", "T", "--n", "2", "--paper", "--targets", "S3"),
])
def test_override_where_it_cannot_apply_is_a_usage_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, *argv, "--ztilde-override", missing)
    assert code == 2 and out == ""
    assert "applies only to raw presentations and bmf" in err


def test_override_endpoint_beyond_strand_count_names_origin_and_file(tmp_path, capsys):
    origin = "node L1.L3 (tilde)"
    path = _override_file(tmp_path, {origin: {"conjugators": [
        {"i": 1, "j": 9, "power": 2}]}})
    code, out, err = run(capsys, "bmf", "T", "--n", "3", "--ztilde-override", path)
    assert code == 2 and out == ""
    assert repr(origin) in err and "N = 7" in err and "zt.json" in err


def test_closed_stdout_exits_quietly_with_its_own_code():
    env = dict(os.environ, PYTHONPATH=str(Path(conicline.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "conicline.cli", "bmf", "T", "--n", "5", "--m", "5", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == STDOUT_CLOSED
    assert err == ""


def test_every_readme_cli_example_exits_zero(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    examples = [line.split("#", 1)[0].split() for line in block.splitlines()
                if line.startswith("conicline ")]
    assert len(examples) >= 9
    for argv in examples:
        code = main(argv[1:])
        capsys.readouterr()
        assert code == 0, " ".join(argv)


def test_readme_library_quick_start_runs_and_its_comments_hold(capsys):
    """README's "Library quick start" block runs as written, and the claims
    in its comments hold: 24 factors on 8 strands, 25 relators, free rank 5
    with no torsion, and the certificate's images of x2 and x5."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    for claim in ("# 24 factors on 8 strands", "# 25 relators", "# free rank 5, no torsion",
                  "# x2 -> s t^-1, x5 -> t"):
        assert claim in block, claim
    namespace = {}
    exec(block, namespace)
    bmf, raw, cert = namespace["bmf"], namespace["raw"], namespace["cert"]
    assert (len(bmf.factors), bmf.strand_count) == (24, 8)
    assert len(raw.relators) == 25
    snf = conicline.abelianization(raw)
    assert (snf.rank_free, snf.torsion) == (5, ())
    assert capsys.readouterr().out == f"{snf}\n"
    assert (repr(cert.images["x2"]), repr(cert.images["x5"])) == \
        ("FPWord('s t^-1')", "FPWord('t')")
