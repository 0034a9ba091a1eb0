"""The benchmark's traced run must find every function it traces.

perfbench/spans.py wraps the functions named in TRACED; one that no longer
exists is left out of the metrics and counted in trace.missing, while the
run still exits 0. BENCHMARK.json declares the per-layer metrics the traced
run reports. These tests read both files and edit neither, so a change that
deletes or renames a traced function fails here rather than in a traced run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACED = [(module, fn) for module, fns in _spans().TRACED.items() for fn in fns]


@pytest.mark.parametrize("module,fn", _TRACED, ids=[f"{m}.{f}" for m, f in _TRACED])
def test_traced_function_exists(module, fn):
    home = importlib.import_module(f"evasion_kit.{module}")
    assert callable(getattr(home, fn, None))


def test_per_layer_metrics_match_benchmark_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in _spans().per_layer_spec()] == [m["name"] for m in declared]
