"""conicline benchmark.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Runs one workload (build, fingerprint-raw or homcount-stated) from the
root of a checkout against the sources in src/, checks every verdict
against perfbench/expected.json, prints a readable report and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run (see perfbench/README.md).

Exit code 0 when a result was printed, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load():
    """Set-up: import the library and the benchmark, read the pins."""
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import workloads
    return bench, workloads, json.loads(bench.EXPECTED.read_text())


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of the time from spawn to the end of
    set-up (imports, finite-group tables, input generation), scaled by the
    host speed each process measured right after its set-up; and the
    unscaled median."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        ready, speed = map(float, done.stdout.split())
        raw.append(ready - start)
        scaled.append(raw[-1] * speed)
    return statistics.median(scaled), statistics.median(raw)


def _print_metrics(title: str, metrics: dict):
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34} {value:14.6g} {unit:12} {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "conicline" / "__init__.py").is_file():
        print(f"perfbench: no conicline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench, workloads, expected = _load()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.make_sweeps(args.workload, args.seed, bench.VARIANTS)
        ready = time.monotonic()
        speed = bench.host_speed([bench.reference_seconds() for _ in range(SETUP_PROBES * 4)])
        print(ready, speed)
        return 0

    setup_s = _setup_seconds(args.workload, args.seed)
    run = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), expected)

    meta = bench.metadata(run)
    print("conicline benchmark: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    e2e = bench.end_to_end(run, *setup_s)
    _print_metrics("end-to-end (untraced sweeps):", e2e)
    if args.trace:
        layers = bench.per_layer(run)
        _print_metrics("per layer (traced sweeps):", layers)
        print("self time share of traced verdict time:")
        for name, share in bench.layer_shares(run):
            print(f"  {name:34} {100 * share:6.1f} %")
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(trace_file)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    for sweep, verdict, message in run.failures[:20]:
        print(f"FAILED sweep {sweep} {verdict}: {message}", file=sys.stderr)

    reported = layers if args.trace else e2e
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
