"""The benchmark under `perfbench/` reaches the library by name: its tracer
wraps functions it looks up by string, and its workloads build
arrangements through the per-family functions. These tests read that
directory (without writing bytecode into it) and fail when a library
change breaks a name the benchmark uses, which the benchmark's own slow
self-tests would otherwise be the first to notice."""

import sys
from pathlib import Path

import pytest

from conicline.arrangement import Arrangement

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import tracing
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode


def _conicline_attributes() -> dict:
    return {(key, attr): value for key, module in list(sys.modules.items())
            if key == "conicline" or key.startswith("conicline.")
            for attr, value in vars(module).items()}


def test_every_traced_name_resolves():
    missing = [f"{module.__name__}.{name}"
               for module, names, _ in tracing.SPANS.values()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []


def test_tracer_wraps_every_span_and_restores_every_attribute():
    before = _conicline_attributes()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        unwrapped = [f"{module.__name__}.{name}"
                     for module, names, _ in tracing.SPANS.values() for name in names
                     if getattr(module, name) is before[module.__name__, name]]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    after = _conicline_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


@pytest.mark.parametrize("family,n,m", [("C", 2, 0), ("T", 0, 0), ("T", 2, 0), ("T", 2, 2)])
def test_workload_arrangements_match_the_library(family, n, m):
    mine = workloads.Arrangement(family, n, m)
    library = Arrangement(family, n, None if family == "C" else m)
    assert mine.bmf() == library.bmf()
    assert mine.certificate().to_json() == library.certificate().to_json()
    # No workload states T_{0,0}, and workloads.Arrangement has no branch for it.
    if (n, m) != (0, 0):
        assert mine.stated(True) == library.stated(True)
    if family == "C":
        assert mine.stated(False) == library.stated(False)
