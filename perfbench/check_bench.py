"""The benchmark's own tests. Not collected by the repository's test run
(the file name does not match test_*.py); run them with

    python3 -m pytest -q perfbench/check_bench.py

They take a few minutes: every workload runs one sweep on two seeds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads(bench.EXPECTED.read_text())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_sweep_passes(workload, seed):
    run = bench.measure(workload, seed, 0, False, EXPECTED, min_sweeps=1)
    assert run.failures == []
    assert run.attempted == len(workloads.make_sweeps(workload, seed, 1)[0])


def test_seed_zero_is_the_identity_scramble():
    raw = workloads.vankampen.raw_presentation(workloads.Arrangement("T", 1, 1).bmf(),
                                               projective=True)
    (plain,) = workloads.make_sweeps("fingerprint-raw", 0, 1)
    assert [it.id for it in plain] == [c.id for c in workloads.FINGERPRINT_RAW_CASES]
    assert {it.id: it.payload[0] for it in plain}["T1,1"].relators == raw.relators
    first, second = ({it.id: it.payload[0] for it in sweep}["T1,1"]
                     for sweep in workloads.make_sweeps("fingerprint-raw", 5, 2))
    assert sorted(map(len, first.relators)) == sorted(map(len, raw.relators))
    assert first.relators != raw.relators and first.relators != second.relators


def test_corrupted_count_is_exactly_one_failure():
    corrupted = copy.deepcopy(EXPECTED)
    corrupted["compare"]["C3.aff"]["counts"]["S3"][0] += 1
    run = bench.measure("fingerprint-raw", 0, 0, False, corrupted, min_sweeps=1)
    assert [(v, m.split(":")[0]) for _, v, m in run.failures] == [("C3.aff", "counts")]


def test_exception_in_a_verdict_is_counted_not_raised():
    missing = copy.deepcopy(EXPECTED)
    del missing["arrangement"]["T2,3"]
    run = bench.measure("build", 3, 0, False, missing, min_sweeps=1)
    assert [(v, m) for _, v, m in run.failures] == [("T2,3", "KeyError: 'T2,3'")]
    assert run.attempted == len(workloads.BUILD_GRID) + len(workloads.CLI_COMMANDS)


def _result(cwd, *args):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_reports_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, lines = _result(ROOT, "--workload", "build", "--seed", "2",
                          "--seconds", "0", "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _result(tmp_path, "--workload", "build", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert code != 0 and lines == []
