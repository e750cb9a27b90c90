"""Regenerate perfbench/expected.json from the library at this checkout.

    python3 perfbench/pin.py

Pins every verdict's outputs on the unscrambled (seed 0) inputs. Refuses to
write, and exits 1, when an output is not worth pinning: raw and stated
fingerprints disagree (within fingerprint-raw, or against the stated counts
of homcount-stated), S4 was skipped, an audit, JSON round trip or
certificate fails, or a CLI call exits nonzero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

OUT = Path(__file__).resolve().parent / "expected.json"


def _problems(kind: str, item_id: str, got: dict) -> list[str]:
    bad = []
    if kind == "arrangement":
        if not (got["audit_passed"] and got["json_round_trip"]):
            bad.append("audit or JSON round trip fails")
        if got["certificate_passed"] is False:
            bad.append("certificate fails")
    elif kind == "cli" and got["exit"] != 0:
        bad.append(f"exit code {got['exit']}")
    elif kind == "compare":
        bad += [f"{g}: raw {a} vs stated {b}" for g, (a, b) in got["counts"].items()
                if a != b]
    if kind in ("compare", "fingerprint") and got["skipped"]:
        bad.append(f"skipped {got['skipped']}")
    return [f"{kind} {item_id}: {p}" for p in bad]


def main() -> int:
    expected: dict = {}
    problems = []
    for workload in workloads.WORKLOADS:
        for item in workloads.make_sweeps(workload, 0, 1)[0]:
            got = workloads.observe(item)
            problems += _problems(item.kind, item.id, got)
            expected.setdefault(item.kind, {})[item.id] = got
    for case, got in expected["fingerprint"].items():
        raw = expected["compare"].get(case, {}).get("counts", {})
        problems += [f"fingerprint {case}: {g} stated {got['counts'][g]} vs raw {a}"
                     for g, (a, _) in raw.items() if got["counts"][g] != a]
    if problems:
        print("refusing to write pins:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    OUT.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, expected.values()))} pinned verdicts to {OUT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
