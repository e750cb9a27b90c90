"""The benchmark's workloads: arrangement grids, seeded input generation and
one observation function per kind of verdict.

A verdict is one arrangement (or one CLI command) taken through a
workload's checks. `observe` computes the checked outputs of a verdict as a
JSON-ready dict; the runner compares it with the pinned dict in
expected.json, and pin.py writes that file from the same function, so the
checks and the pins cannot drift apart.

Seed 0 feeds the presentations exactly as the library builds them, in grid
order. Any other seed shuffles the verdict order and, on the two fingerprint
workloads, shuffles relator order and rotates or inverts every relator.
Those moves keep the group, so the pinned counts hold for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass

from conicline import bigness, catalog, cli, fpgroup, paper_groups, vankampen
from conicline.vankampen import Presentation
from conicline.words import Word, invert

WORKLOADS = ("build", "fingerprint-raw", "homcount-stated")
RAW_BATTERY = ("S3", "D4", "A4")
STATED_BATTERY = ("S3", "D4", "A4", "S4")

# In-process CLI calls made once per `build` sweep.
CLI_COMMANDS = (
    ("bmf", "T", "--n", "2", "--m", "2", "--json"),
    ("bmf", "C", "--n", "8", "--json"),
    ("present", "T", "--n", "3", "--m", "2", "--json"),
    ("abelianize", "C", "--n", "6", "--affine"),
    ("bigness", "T", "--n", "3", "--m", "3"),
)


@dataclass(frozen=True)
class Arrangement:
    family: str  # "C" or "T"
    n: int
    m: int = 0

    @property
    def id(self) -> str:
        return f"C{self.n}" if self.family == "C" else f"T{self.n},{self.m}"

    def bmf(self) -> catalog.BMF:
        if self.family == "C":
            return catalog.bmf_cn(self.n)
        if self.n == 0 and self.m == 0:
            return catalog.bmf_t00()
        if self.m == 0:
            return catalog.bmf_tn0(self.n)
        return catalog.bmf_tnm(self.n, self.m)

    def stated(self, projective: bool) -> Presentation:
        if self.family == "C":
            return (paper_groups.presentation_cn_proj(self.n) if projective
                    else paper_groups.presentation_cn_affine(self.n))
        if self.m == 0:
            return paper_groups.presentation_tn0(self.n)
        return paper_groups.presentation_tnm(self.n, self.m)

    def certificate(self):
        """The standard bigness certificate, or None where none is claimed."""
        if self.family == "C":
            return bigness.standard_certificate("C", self.n) if self.n >= 2 else None
        if self.n == 0 and self.m == 0:
            return bigness.standard_certificate("T00")
        if self.m == 0:
            return bigness.standard_certificate("Tn0", self.n)
        return bigness.standard_certificate("T", self.n, self.m)


@dataclass(frozen=True)
class Case:
    """An arrangement with a choice of complement (T is projective only)."""
    arrangement: Arrangement
    projective: bool

    @property
    def id(self) -> str:
        a = self.arrangement
        if a.family == "T":
            return a.id
        return f"{a.id}.{'proj' if self.projective else 'aff'}"


def _c(n, projective):
    return Case(Arrangement("C", n), projective)


def _t(n, m):
    return Case(Arrangement("T", n, m), True)


BUILD_GRID = tuple(
    [Arrangement("C", n) for n in range(1, 11)]
    + [Arrangement("T", 0, 0)]
    + [Arrangement("T", n, 0) for n in range(1, 9)]
    + [Arrangement("T", n, m) for n in range(1, 6) for m in range(1, 6)])

# The raw-vs-stated set of acceptance criterion 06.
FINGERPRINT_RAW_CASES = tuple(
    [_c(n, False) for n in range(1, 5)]
    + [_c(n, True) for n in range(1, 6)]
    + [_t(n, 0) for n in range(1, 4)]
    + [_t(1, 1), _t(1, 2), _t(2, 1), _t(2, 2)])

# Every case keeps at most six generators after Tietze, so S4 always runs:
# the stated T presentations have n + m + 1 <= 6 generators, C_5 affine has
# six, and C_6 projective has seven of which Tietze always eliminates one
# (each line generator occurs once in the projective relator).
HOMCOUNT_STATED_CASES = tuple(
    [_c(n, True) for n in range(2, 7)]
    + [_c(n, False) for n in range(2, 6)]
    + [_t(n, 0) for n in range(2, 6)]
    + [_t(n, m) for n in range(1, 5) for m in range(1, 6) if n + m <= 5])


@dataclass(frozen=True)
class Item:
    """One verdict's input. `kind` selects the observation function."""
    id: str
    kind: str  # "arrangement", "cli", "compare" or "fingerprint"
    payload: tuple


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scramble(p: Presentation, rng: random.Random) -> Presentation:
    """Shuffle the relators and rotate or invert each one; same group."""
    order = list(range(len(p.relators)))
    rng.shuffle(order)
    relators, origins = [], []
    for k in order:
        letters = p.relators[k].letters
        cut = rng.randrange(len(letters)) if letters else 0
        w = Word(letters[cut:] + letters[:cut])
        relators.append(invert(w) if rng.random() < 0.5 else w)
        origins.append(p.origins[k])
    return Presentation(p.generators, tuple(relators), tuple(origins))


def _base_items(workload: str) -> list[Item]:
    if workload == "build":
        return ([Item(a.id, "arrangement", (a,)) for a in BUILD_GRID]
                + [Item(" ".join(c), "cli", (c,)) for c in CLI_COMMANDS])
    if workload == "fingerprint-raw":
        return [Item(c.id, "compare",
                     (vankampen.raw_presentation(c.arrangement.bmf(),
                                                 projective=c.projective),
                      c.arrangement.stated(c.projective)))
                for c in FINGERPRINT_RAW_CASES]
    if workload == "homcount-stated":
        return [Item(c.id, "fingerprint", (c.arrangement.stated(c.projective),))
                for c in HOMCOUNT_STATED_CASES]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def make_sweeps(workload: str, seed: int, count: int) -> list[list[Item]]:
    """`count` sweeps of verdict inputs, each covering the workload's whole
    set once. Sweep k of a seed is the same on every run; seed 0 gives
    `count` copies of the unscrambled set in grid order."""
    base = _base_items(workload)
    if not seed:
        return [base] * count
    sweeps = []
    for k in range(count):
        rng = random.Random(f"{workload}:{seed}:{k}")
        items = [Item(it.id, it.kind, tuple(scramble(p, rng) for p in it.payload))
                 if it.kind in ("compare", "fingerprint") else it for it in base]
        rng.shuffle(items)
        sweeps.append(items)
    return sweeps


def _observe_arrangement(a: Arrangement) -> dict:
    b = a.bmf()
    report = catalog.audit(b)
    as_json = catalog.bmf_to_json(b)
    round_trip = catalog.bmf_from_json(as_json) == b
    out = {"audit_passed": report.passed,
           "bmf_json_sha256": digest(json.dumps(as_json, sort_keys=True)),
           "json_round_trip": round_trip}
    for name, projective in (("affine", False), ("projective", True)):
        raw = vankampen.raw_presentation(b, projective=projective)
        out[f"raw_{name}_sha256"] = digest(vankampen.presentation_text(raw))
        ab = fpgroup.abelianization(raw)
        out[f"abelianization_{name}"] = {"free_rank": ab.rank_free,
                                         "torsion": list(ab.torsion)}
    cert = a.certificate()
    out["certificate_passed"] = (None if cert is None
                                 else bigness.certify_certificate(cert).passed)
    return out


def _observe_cli(argv: tuple[str, ...]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else 2
    return {"exit": code, "stdout_sha256": digest(stdout.getvalue())}


def _observe_compare(raw: Presentation, stated: Presentation) -> dict:
    report = fpgroup.compare(raw, stated, RAW_BATTERY)
    return {"counts": {k: list(v) for k, v in report.per_target.items()},
            "skipped": list(report.skipped)}


def _observe_fingerprint(stated: Presentation) -> dict:
    fp = fpgroup.fingerprint(stated, STATED_BATTERY)
    return {"counts": dict(fp.counts), "skipped": list(fp.skipped)}


_OBSERVERS = {"arrangement": _observe_arrangement, "cli": _observe_cli,
              "compare": _observe_compare, "fingerprint": _observe_fingerprint}


def observe(item: Item) -> dict:
    return _OBSERVERS[item.kind](*item.payload)


def check(item: Item, expected: dict) -> str | None:
    """Run one verdict; None when every output matches its pin, else a
    message naming the fields that differ. Exceptions propagate."""
    want = expected[item.kind][item.id]
    got = observe(item)
    wrong = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    if not wrong:
        return None
    return "; ".join(f"{k}: got {got.get(k)!r}, pinned {want.get(k)!r}" for k in wrong)
