"""Per-layer spans recorded from outside the library.

`Tracer.install` replaces selected public functions of the conicline
modules with timing wrappers, in every conicline module namespace that
binds them, so calls nest as the program makes them (fingerprint ->
tietze_simplify -> ...; audit -> compile_factor). `uninstall` puts the
originals back. The library itself is not changed.

A span is (name, start, end, parent index, verdict id, sizes). Self time is
a span's duration minus the durations of its direct children. `words` has
no span: it is called once per letter, so its cost shows as self time of
the braid, vankampen and fpgroup spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from conicline import bigness, braid, catalog, cli, fpgroup, paper_groups, vankampen


def _letters(p) -> int:
    return sum(len(r) for r in p.relators)


def _tietze_sizes(args, kwargs, result) -> dict:
    source = args[0] if args else kwargs["p"]
    out = result.presentation
    return {"passes": result.passes, "exhausted": int(result.exhausted),
            "gens_out": len(out.generators), "letters_in": _letters(source),
            "letters_out": _letters(out)}


def _target_group(args, kwargs, result) -> dict:
    return {"group": (args[1] if len(args) > 1 else kwargs["target"]).name}


# span name -> (module, public functions, sizes read from the call)
SPANS = {
    "catalog.build": (catalog, ("bmf_cn", "bmf_t00", "bmf_t10", "bmf_t20", "bmf_t11",
                                "bmf_t21", "bmf_t22", "bmf_tn0", "bmf_tnm", "bmf_t1m"),
                      lambda a, k, r: {"factors": len(r.factors)}),
    "catalog.audit": (catalog, ("audit",), None),
    "catalog.json": (catalog, ("bmf_to_json", "bmf_from_json"), None),
    "braid.compile": (braid, ("compile_factor", "compile_skeleton"),
                      lambda a, k, r: {"artin_letters": len(r.letters)}),
    "vankampen.raw": (vankampen, ("raw_presentation",),
                      lambda a, k, r: {"relators": len(r.relators), "letters": _letters(r)}),
    "fpgroup.snf": (fpgroup, ("abelianization", "smith_normal_form"), None),
    "fpgroup.tietze": (fpgroup, ("tietze_simplify",), _tietze_sizes),
    "fpgroup.homs": (fpgroup, ("count_homs",), _target_group),
    "fpgroup.fingerprint": (fpgroup, ("fingerprint",),
                            lambda a, k, r: {"skipped": len(r.skipped)}),
    "paper_groups.stated": (paper_groups, tuple(
        name for name in vars(paper_groups) if name.startswith("presentation_")), None),
    "bigness.certify": (bigness, ("certify_certificate", "certify"),
                        lambda a, k, r: {"relators_checked": sum(
                            c.name.startswith("relator[") for c in r.checks)}),
    "cli.main": (cli, ("main",), None),
}

HOM_GROUPS = ("S3", "D4", "A4", "S4")


class Tracer:
    """Collects spans while installed; `verdict` tags the spans that follow."""

    def __init__(self):
        self.spans: list = []
        self.verdict = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, sizes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.verdict, None)
            if sizes is not None:
                spans[index] = (name, start, end, parent, self.verdict,
                                sizes(args, kwargs, result))
            return result
        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "conicline" or key.startswith("conicline.")]
        for name, (home, functions, sizes) in SPANS.items():
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(name, original, sizes)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write every span, times relative to the first one, as JSON lines."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, verdict, sizes in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7),
                                     parent, verdict, sizes]) + "\n")

    def layer_totals(self) -> dict:
        """Inclusive and self seconds per span name, and summed sizes.

        Inclusive time and sizes count only the outermost span of a name
        (compile_factor calls compile_skeleton; both are braid.compile).
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        sizes = defaultdict(float)
        calls = defaultdict(int)
        for index, (name, start, end, parent, _, info) in enumerate(self.spans):
            duration = end - start
            self_time[name] += duration - child_time[index]
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if nested:
                continue
            inclusive[name] += duration
            calls[name] += 1
            if info:
                if name == "fpgroup.homs":
                    inclusive[f"fpgroup.homs.{info['group']}"] += duration
                else:
                    for key, value in info.items():
                        sizes[f"{name}.{key}"] += value
        return {"inclusive": inclusive, "self": self_time, "sizes": sizes, "calls": calls}
