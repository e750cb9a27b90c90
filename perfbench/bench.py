"""Measurement core: run whole sweeps of verdicts for a time budget, check
every output against the pins, and reduce the timings to metrics.

Only whole sweeps are timed, so every run sees each verdict of the workload
equally often and the rates do not depend on where a run stopped.
"""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import HOM_GROUPS, SPANS, Tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "conicline"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# Sweeps of scrambled inputs made in set-up; later sweeps reuse them in turn.
VARIANTS = 8

# The tail percentile reported per workload. A run makes enough sweeps that
# at least MIN_BEYOND samples lie above it.
TAIL_PERCENTILE = {"build": 95, "fingerprint-raw": 75, "homcount-stated": 75}
MIN_BEYOND = 10

# A fixed pure-Python loop (free reduction of a random word, the library's
# commonest inner loop), timed once after every verdict and once more per
# REFERENCE_EVERY_S of that verdict's time. Its mean time over a run tracks
# how fast the shared host ran during the run; verdict times are scaled by
# REFERENCE_NOMINAL_S over that mean (see README, "Host speed").
_rng = random.Random(0)
REFERENCE_WORD = tuple((_rng.randrange(6), _rng.choice((1, -1))) for _ in range(8000))
REFERENCE_NOMINAL_S = 0.00087
REFERENCE_EVERY_S = 0.05

TIMED_LAYERS = ("catalog.build", "catalog.audit", "catalog.json", "braid.compile",
                "vankampen.raw", "fpgroup.snf", "fpgroup.tietze", "fpgroup.homs",
                "paper_groups.stated", "bigness.certify", "cli.main")
SIZE_METRICS = {
    "catalog.factors": "catalog.build.factors",
    "braid.artin_letters": "braid.compile.artin_letters",
    "vankampen.relators": "vankampen.raw.relators",
    "vankampen.letters": "vankampen.raw.letters",
    "fpgroup.tietze.passes": "fpgroup.tietze.passes",
    "fpgroup.tietze.exhausted": "fpgroup.tietze.exhausted",
    "fpgroup.tietze.gens_out": "fpgroup.tietze.gens_out",
    "fpgroup.tietze.letters_in": "fpgroup.tietze.letters_in",
    "fpgroup.tietze.letters_out": "fpgroup.tietze.letters_out",
    "fpgroup.homs.skipped": "fpgroup.fingerprint.skipped",
    "bigness.relators_checked": "bigness.certify.relators_checked",
}
CALL_METRICS = {"fpgroup.homs.calls": "fpgroup.homs", "cli.calls": "cli.main"}


@dataclass
class Run:
    workload: str
    seed: int
    untraced: list = field(default_factory=list)  # per sweep: [verdict seconds]
    traced: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (sweep, verdict id, message)
    reference: list = field(default_factory=list)  # reference loop seconds, untraced
    traced_reference: list = field(default_factory=list)
    attempted: int = 0
    tracer: Tracer | None = None


def tail_sweeps(workload: str, per_sweep: int) -> int:
    """Fewest sweeps that leave MIN_BEYOND samples above the tail percentile."""
    p = TAIL_PERCENTILE[workload] / 100
    k = 1
    while k * per_sweep - math.ceil(p * k * per_sweep) < MIN_BEYOND:
        k += 1
    return k


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by a Beta(p(n+1), (1-p)(n+1)) density. Verdict times cluster
    by arrangement, and a single order statistic jumps between clusters
    from run to run; the weighted mean moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16  # density evaluations per order statistic
    weights = [0.0] * n
    for s in range(steps * n):
        t = (s + 0.5) / (steps * n)
        # density relative to its value at t = p, which keeps exp() in range
        weights[s // steps] += math.exp((a - 1) * math.log(t / p)
                                        + (b - 1) * math.log((1 - t) / (1 - p)))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def reference_seconds() -> float:
    start = time.perf_counter()
    out = []
    for letter in REFERENCE_WORD:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return time.perf_counter() - start


def _sweep(run: Run, index: int, items, expected, reference: list,
           tracer=None) -> list[float]:
    durations = []
    for item in items:
        if tracer is not None:
            tracer.verdict = item.id
        start = time.perf_counter()
        try:
            message = workloads.check(item, expected)
        except Exception as exc:  # a verdict that raises is a failed verdict
            message = f"{type(exc).__name__}: {exc}"
        durations.append(time.perf_counter() - start)
        for _ in range(1 + int(durations[-1] / REFERENCE_EVERY_S)):
            reference.append(reference_seconds())
        run.attempted += 1
        if message is not None:
            run.failures.append((index, item.id, message))
    return durations


def measure(workload: str, seed: int, seconds: float, trace: bool, expected: dict,
            min_sweeps: int | None = None) -> Run:
    """Run at least `min_sweeps` sweeps (by default enough for the tail
    percentile), then more while another one is expected to end within
    `seconds`. With `trace`, each sweep runs untraced and then traced on
    the same inputs."""
    sweeps = workloads.make_sweeps(workload, seed, VARIANTS)
    if min_sweeps is None:
        min_sweeps = 1 if trace else tail_sweeps(workload, len(sweeps[0]))
    run = Run(workload, seed, tracer=Tracer() if trace else None)
    begin = time.perf_counter()
    k = 0
    while k < min_sweeps or (time.perf_counter() - begin) * (k + 1) / k <= seconds:
        items = sweeps[k % len(sweeps)]
        run.untraced.append(_sweep(run, k, items, expected, run.reference))
        if trace:
            run.tracer.install()
            try:
                run.traced.append(_sweep(run, k, items, expected, run.traced_reference,
                                         run.tracer))
            finally:
                run.tracer.uninstall()
        k += 1
    return run


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def host_speed(reference: list[float]) -> float:
    """Nominal over measured reference loop time: below 1 on a slow host."""
    return REFERENCE_NOMINAL_S / statistics.fmean(reference)


def end_to_end(run: Run, setup_s: float, raw_setup_s: float) -> dict:
    """Name -> (value, unit, note). Verdict times are scaled by host_speed."""
    speed = host_speed(run.reference)
    durations = [d * speed for ds in run.untraced for d in ds]
    n = len(durations)
    p = TAIL_PERCENTILE[run.workload]
    tail = quantile(durations, p / 100)
    beyond = sum(d > tail for d in durations)
    rate, p50 = n / sum(durations), quantile(durations, 0.5)
    return {
        "setup_s": (setup_s, "s", f"median of fresh-process set-ups; raw {raw_setup_s:.4g}"),
        "verdicts_per_s": (rate, "1/s", f"{n} verdicts in {len(run.untraced)} sweeps; "
                                        f"raw {rate * speed:.4g}"),
        "verdict_s.p50": (p50, "s", f"p50 of {n} samples; raw {p50 / speed:.4g}"),
        "verdict_s.tail": (tail, "s", f"p{p} of {n} samples, {beyond} above it; "
                                      f"raw {tail / speed:.4g}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "peak resident set of the measuring process"),
    }


def per_layer(run: Run) -> dict:
    """Name -> (value, unit, note), every figure per traced sweep; times
    are scaled by host_speed like the end-to-end ones."""
    totals = run.tracer.layer_totals()
    sweeps = len(run.traced)
    speed = host_speed(run.traced_reference)
    per_sweep = speed / sweeps
    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}_s"] = (totals["inclusive"][layer] * per_sweep, "s/sweep", "inclusive")
        out[f"{layer}.self_s"] = (totals["self"][layer] * per_sweep, "s/sweep", "self")
    for group in HOM_GROUPS:
        out[f"fpgroup.homs.{group}_s"] = (totals["inclusive"][f"fpgroup.homs.{group}"]
                                          * per_sweep, "s/sweep", f"count_homs into {group}")
    for metric, key in SIZE_METRICS.items():
        out[metric] = (totals["sizes"][key] / sweeps, "count/sweep", "")
    for metric, key in CALL_METRICS.items():
        out[metric] = (totals["calls"][key] / sweeps, "count/sweep", "")
    letters_in = totals["sizes"]["fpgroup.tietze.letters_in"]
    out["fpgroup.tietze.letters_ratio"] = (
        totals["sizes"]["fpgroup.tietze.letters_out"] / letters_in if letters_in else 0.0,
        "ratio", "Tietze letters out over letters in")
    plain = sum(map(sum, run.untraced)) * host_speed(run.reference)
    traced = sum(map(sum, run.traced)) * speed
    out["trace.overhead_ratio"] = (plain / traced, "ratio",
                                   "traced over untraced verdicts_per_s")
    return out


def layer_shares(run: Run) -> list[tuple[str, float]]:
    """Self time of each span name as a share of traced verdict time."""
    totals = run.tracer.layer_totals()
    verdict_time = sum(map(sum, run.traced))
    names = list(SPANS)
    shares = [(name, totals["self"][name] / verdict_time) for name in names]
    shares.append(("(outside any span)",
                   1 - sum(totals["self"][name] for name in names) / verdict_time))
    return shares


def metadata(run: Run) -> dict:
    return {"workload": run.workload, "seed": run.seed, "src_lines": src_lines(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "sweeps": len(run.untraced), "traced_sweeps": len(run.traced),
            "host_speed": round(host_speed(run.reference), 4),
            "attempted": run.attempted, "failed": len(run.failures),
            "fail_ratio": len(run.failures) / run.attempted}
