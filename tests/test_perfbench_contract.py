"""The benchmark's traced run must find every function it traces, and its
calls must answer correctly.

perfbench/spans.py wraps the functions named in TRACED; one that no longer
exists is left out of the metrics and counted in trace.missing, while the
run still exits 0. BENCHMARK.json declares the per-layer metrics the traced
run reports. perfbench/workloads.py makes each part's program calls and
checks their answers; a call the program no longer accepts, or a wrong
answer, ends a bench run as a failed operation. These tests read those
files and edit none, so such a change fails here rather than in a bench run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _perfbench("spans")
_TRACED = [(module, fn) for module, fns in _SPANS.TRACED.items() for fn in fns]
_WORKLOADS = _perfbench("workloads")
# One key of each part of each workload: its first random or interval key.
_PARTS = [(w.name, part.section,
           next(k for k in part.keys if k in ("random/1000", "interval/1000")))
          for w in _WORKLOADS.WORKLOADS.values() for part in w.parts]


@pytest.mark.parametrize("module,fn", _TRACED, ids=[f"{m}.{f}" for m, f in _TRACED])
def test_traced_function_exists(module, fn):
    home = importlib.import_module(f"evasion_kit.{module}")
    assert callable(getattr(home, fn, None))


def test_per_layer_metrics_match_benchmark_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in _SPANS.per_layer_spec()] == [m["name"] for m in declared]


@pytest.mark.parametrize("workload,section,key", _PARTS,
                         ids=[f"{w}.{s}.{k}" for w, s, k in _PARTS])
def test_bench_part_answers_its_reference(workload, section, key):
    ek = importlib.import_module("evasion_kit")
    (part,) = [p for p in _WORKLOADS.WORKLOADS[workload].parts if p.section == section]
    s = _WORKLOADS.make_scenario(ek, key)
    facts, reports, objects = part.calls(ek, s, part.grid(ek, s))
    assert part.check(key, facts, objects, s, _WORKLOADS.load_reference(),
                      ek.analysis.verify_witness) == []
    assert set(_WORKLOADS.report_digests(ek, reports)) == set(reports)


@pytest.mark.parametrize("key", ["split", "empty", "random/1000"])
def test_build_zigzag_scans_once_through_the_traced_detect_events(key):
    # build_zigzag reaches detect_events through its module binding, once
    # per 2-D build, so the traced run times the scan as its own layer.
    ek = importlib.import_module("evasion_kit")
    s = _WORKLOADS.make_scenario(ek, key)
    grid = ek.rasterize.grid_for_scenario(s)
    tracer = _SPANS.Tracer()
    tracer.open_scenario(0)
    try:
        ek.zigzag.build_zigzag(s, grid)
    finally:
        tracer.close_scenario()
    scans = [span for span in tracer.spans if span[0] == "zigzag.detect_events"]
    assert len(scans) == 1
    assert tracer.spans[scans[0][3]][0] == "zigzag.build_zigzag"
