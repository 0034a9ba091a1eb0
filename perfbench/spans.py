"""Spans around the program's public functions, recorded from outside.

The package imports its functions with ``from .x import y``, so each caller
module holds its own binding. The tracer replaces every binding in the
``evasion_kit`` modules that refers to a traced function, and restores them
on removal; private callers resolve the wrapper at call time. A binding that
no longer exists is listed in ``missing`` and its metrics are left out.

Spans are kept in memory as [name, start, end, parent, scenario] and only
recorded on the benchmark's own thread while a scenario is open. A few
wrappers also read return values to derive counters (scan slices, events,
witnesses); that work is small next to the call it follows.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

TRACED = {
    "scenario": ("positions_at",),
    "rasterize": ("coverage_masks", "rasterize_fibers", "rasterize_cobordism",
                  "components", "count_holes", "label_components"),
    "zigzag": ("detect_events", "fiber_signature", "build_zigzag"),
    "limit": ("inverse_limit", "limit_of_algebras", "diagrams_isomorphic"),
    "planar_homology": ("alexander_image",),
    "analysis": ("analyze_direct", "verify_witness", "extract_boundary_data",
                 "boundary_limit", "oracle_reachability", "d1_count"),
}
# components() is reported per region, as components.<region>.
COMPONENT_REGIONS = ("uncovered", "covered_boundary")

COUNTERS = (
    "zigzag.scan_slices", "zigzag.bisect_probes", "zigzag.events",
    "rasterize.cobordism_slices", "analysis.witness_refines",
    "analysis.witnesses_attempted", "analysis.witnesses_verified",
    "analysis.witness_samples", "limit.elements",
)


def span_names(binding: str) -> List[str]:
    """Span names a traced binding ("module.fn") produces."""
    if binding == "rasterize.components":
        return [f"{binding}.{region}" for region in COMPONENT_REGIONS]
    return [binding]


def per_layer_spec() -> List[dict]:
    """Every per-layer metric the traced run reports, in BENCHMARK.json form."""
    out = []
    for module, fns in TRACED.items():
        for fn in fns:
            for name in span_names(f"{module}.{fn}"):
                out.append({"name": f"{name}.calls", "unit": "calls/scenario", "better": "lower"})
                out.append({"name": f"{name}.s", "unit": "s/scenario", "better": "lower"})
                out.append({"name": f"{name}.self_s", "unit": "s/scenario", "better": "lower"})
    for name in COUNTERS:
        out.append({"name": name, "unit": "count/scenario", "better": "lower"})
    out.append({"name": "zigzag.scan_unchanged_frac", "unit": "ratio", "better": "higher"})
    out.append({"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"})
    out.append({"name": "trace.covered_frac", "unit": "ratio", "better": "higher"})
    out.append({"name": "trace.scenarios", "unit": "count", "better": "higher"})
    out.append({"name": "trace.missing", "unit": "count", "better": "lower"})
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {name: 0 for name in COUNTERS}
        self.scan_pairs = 0
        self.scan_unchanged = 0
        self.missing: List[str] = []
        self.present: List[str] = []
        self._stack: List[int] = []
        self._scenario: Optional[int] = None
        self._thread = threading.get_ident()
        self._patches = []
        self._find_bindings()

    # -- installation -------------------------------------------------------

    def _find_bindings(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "evasion_kit" or n.startswith("evasion_kit.")]
        for module_name, fns in TRACED.items():
            try:
                home = importlib.import_module(f"evasion_kit.{module_name}")
            except ImportError:
                self.missing.extend(f"{module_name}.{fn}" for fn in fns)
                continue
            for fn in fns:
                binding = f"{module_name}.{fn}"
                original = getattr(home, fn, None)
                if not callable(original):
                    self.missing.append(binding)
                    continue
                self.present.append(binding)
                wrapper = self._wrap(binding, original)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._patches.append((m, attr, original, wrapper))

    def open_scenario(self, scenario_id: int) -> None:
        """Install the wrappers and record spans under this scenario id."""
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)
        self._scenario = scenario_id
        self._stack = []

    def close_scenario(self) -> None:
        """Stop recording and restore the original bindings."""
        self._scenario = None
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    # -- recording ------------------------------------------------------------

    def _parent_name(self, idx: int) -> Optional[str]:
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None

    def _wrap(self, binding: str, fn):
        tracer = self
        observe = getattr(self, "_after_" + binding.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._scenario is None or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            name = binding
            if binding == "rasterize.components":
                which = args[1] if len(args) > 1 else kwargs.get("which", "uncovered")
                name = f"{binding}.{which}"
            stack = tracer._stack
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._scenario]
            tracer.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        return wrapper

    def _after_rasterize_rasterize_fibers(self, idx, args, kwargs, result) -> None:
        if self._parent_name(idx) != "zigzag.detect_events":
            return
        if len(result) <= 2:
            self.counts["zigzag.bisect_probes"] += 1
            return
        self.counts["zigzag.scan_slices"] += len(result)
        self.scan_pairs += len(result) - 1
        self.scan_unchanged += sum(
            1 for a, b in zip(result, result[1:]) if np.array_equal(a.uncovered, b.uncovered))

    def _after_rasterize_rasterize_cobordism(self, idx, args, kwargs, result) -> None:
        self.counts["rasterize.cobordism_slices"] += len(result.times)
        if self._parent_name(idx) == "analysis.analyze_direct":
            self.counts["analysis.witness_refines"] += 1

    def _after_zigzag_detect_events(self, idx, args, kwargs, result) -> None:
        self.counts["zigzag.events"] += len(result)

    def _after_limit_inverse_limit(self, idx, args, kwargs, result) -> None:
        self.counts["limit.elements"] += len(result.elements)

    def _after_analysis_analyze_direct(self, idx, args, kwargs, result) -> None:
        failures = result.diagnostics.get("witness_failures", ())
        self.counts["analysis.witnesses_attempted"] += len(result.witnesses) + len(failures)
        self.counts["analysis.witnesses_verified"] += len(result.witnesses)
        self.counts["analysis.witness_samples"] += sum(len(w.samples) for w in result.witnesses)

    # -- metrics ------------------------------------------------------------

    def metrics(self, scenarios: int, traced_s: float, untraced_s: float) -> Dict[str, float]:
        """Per-scenario means of span counts and times, and the counters."""
        calls: Dict[str, int] = {}
        inclusive: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        top_level = 0.0
        for span in self.spans:
            name, start, end, parent, _ = span
            d = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + d
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - d
            else:
                top_level += d
            if not self._has_ancestor(span, name):
                inclusive[name] = inclusive.get(name, 0.0) + d
        out: Dict[str, float] = {}
        for binding in self.present:
            for name in span_names(binding):
                out[f"{name}.calls"] = calls.get(name, 0) / scenarios
                out[f"{name}.s"] = inclusive.get(name, 0.0) / scenarios
                out[f"{name}.self_s"] = self_s.get(name, 0.0) / scenarios
        for name, value in self.counts.items():
            out[name] = value / scenarios
        out["zigzag.scan_unchanged_frac"] = (
            self.scan_unchanged / self.scan_pairs if self.scan_pairs else 0.0)
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        out["trace.covered_frac"] = top_level / traced_s
        out["trace.scenarios"] = scenarios
        out["trace.missing"] = len(self.missing)
        return out

    def largest_under(self, name: str, k: int = 3) -> List[tuple]:
        """The k span names with the most inclusive time inside `name` spans."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            other = span[0]
            if other != name and self._has_ancestor(span, name) \
                    and not self._has_ancestor(span, other):
                totals[other] = totals.get(other, 0.0) + span[2] - span[1]
        return sorted(totals.items(), key=lambda item: -item[1])[:k]

    def _has_ancestor(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
