"""The benchmark's workloads: scenario pools, the calls made per scenario,
and the checks on their answers.

Every program call goes through a module attribute looked up at call time
(``ek.analysis.analyze_direct``), so the tracer in ``spans.py`` sees it when
it is installed. The checks get ``verify_witness`` as an argument, taken
before any tracer exists, so they stay out of the trace.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

BUILTINS_2D = ("split", "close", "annuli", "empty", "full")
# Known limit cardinalities of the builtins, independent of the reference table.
PINNED_CARDINALITY = {"split": 2, "close": 0, "annuli": 2, "empty": 1, "full": 0}
# Generator seeds 1000-1039 of both generators ran clean when the reference
# table was made; the pools below use a fixed part of them.


def import_program():
    """Import evasion_kit from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import evasion_kit
    where = Path(evasion_kit.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"evasion_kit was imported from {where}, not from {src}")
    return evasion_kit


def make_scenario(ek, key: str):
    """Scenario for a pool key: a builtin name, random/<seed> or interval/<seed>."""
    kind, _, seed = key.partition("/")
    if kind == "interval":
        return ek.scenario.random_interval_scenario(int(seed))
    if kind == "random":
        return ek.scenario.builtin_scenario("random", int(seed))
    return ek.scenario.builtin_scenario(kind)


def _report_facts(report) -> Dict[str, object]:
    return {
        "exists": bool(report.exists),
        "limit_cardinality": report.limit_cardinality,
        "events": [e["type_uncovered"] for e in report.diagnostics["events"]],
        "witnesses": len(report.witnesses),
    }


# Each call function runs one scenario's program calls (the timed part) and
# returns (facts, reports, objects): facts are compared with the reference
# table, reports are digested, objects feed the untimed checks.

def _certify_calls(ek, s, grid):
    report = ek.analysis.analyze_direct(s, grid)
    return _report_facts(report), {"direct": report}, {"witnesses": report.witnesses}


def _crosscheck_calls(ek, s, grid):
    bundle = ek.zigzag.build_zigzag(s, grid)
    direct = ek.limit.inverse_limit(bundle.diagram)
    data = ek.analysis.extract_boundary_data(s, grid)
    boundary = ek.analysis.analyze_boundary(data)
    dual = ek.analysis.boundary_limit(data)
    oracle = ek.analysis.analyze_oracle(s, grid)
    isomorphic = ek.limit.diagrams_isomorphic(dual.dual_diagram, bundle.diagram)
    facts = {
        "exists": direct.cardinality > 0,
        "limit_cardinality": int(direct.cardinality),
        "events": [e.type_x for e in bundle.events],
        "boundary_cardinality": boundary.limit_cardinality,
        "dual_cardinality": int(dual.result.cardinality),
        "oracle_exists": bool(oracle.exists),
        "isomorphic": bool(isomorphic),
    }
    limit_doc = {"limit_cardinality": int(direct.cardinality),
                 "limit_elements": [[int(x) for x in el] for el in direct.elements]}
    return facts, {"direct_limit": limit_doc, "boundary": boundary, "oracle": oracle}, {}


def _line_calls(ek, s, grid):
    report = ek.analysis.analyze_direct(s, grid)
    d1 = ek.analysis.d1_count(s, grid)
    oracle = ek.analysis.analyze_oracle(s, grid)
    facts = _report_facts(report)
    facts.update(d1_count=int(d1), class_count=oracle.limit_cardinality,
                 oracle_exists=bool(oracle.exists))
    return facts, {"direct": report, "oracle": oracle}, {"witnesses": report.witnesses}


def _crosscheck_agreement(facts) -> List[str]:
    bad = []
    if facts["oracle_exists"] != facts["exists"]:
        bad.append("direct and oracle existence differ")
    if facts["boundary_cardinality"] != facts["limit_cardinality"]:
        bad.append("boundary and direct cardinality differ")
    if facts["dual_cardinality"] != facts["limit_cardinality"]:
        bad.append("boundary dual and direct cardinality differ")
    if not facts["isomorphic"]:
        bad.append("boundary dual is not isomorphic to the direct diagram")
    return bad


def _line_agreement(facts) -> List[str]:
    if facts["d1_count"] != facts["class_count"]:
        return [f"d1_count {facts['d1_count']} != oracle class count {facts['class_count']}"]
    return []


class Part:
    """One kind of scenario in a workload: its keys, the calls made on each,
    and the reference table section that checks them."""

    def __init__(self, section: str, keys: Tuple[str, ...], calls: Callable,
                 agreement: Callable[[dict], List[str]] = lambda f: []):
        self.section = section
        self.keys = keys
        self.calls = calls
        self.agreement = agreement

    def grid(self, ek, s):
        """The default knobs: 128 cells, 64 fine time samples."""
        return ek.rasterize.grid_for_scenario(s, cells=128, fine_time_samples=64)

    def check(self, key: str, facts: dict, objects: dict, s, reference: dict,
              verify_witness) -> List[str]:
        """Every way this scenario's answer is wrong; empty when it is right."""
        bad = []
        ref = reference[self.section].get(key)
        if ref is None:
            bad.append("no reference entry")
        else:
            for field, want in ref.items():
                if facts.get(field) != want:
                    bad.append(f"{field} {facts.get(field)!r} != reference {want!r}")
        if key in PINNED_CARDINALITY and facts["limit_cardinality"] != PINNED_CARDINALITY[key]:
            bad.append(f"builtin {key} cardinality {facts['limit_cardinality']} "
                       f"!= {PINNED_CARDINALITY[key]}")
        for i, w in enumerate(objects.get("witnesses", ())):
            if not verify_witness(s, w):
                bad.append(f"witness {i} fails verify_witness")
        bad.extend(self.agreement(facts))
        return bad


class Workload:
    """A named, fixed pool of scenarios made of one or more parts."""

    def __init__(self, name: str, parts: Tuple[Part, ...]):
        self.name = name
        self.parts = parts
        self.part_of = {key: part for part in parts for key in part.keys}
        self.pool = tuple(self.part_of)

    def passes(self, seed: int):
        """Endless passes over the whole pool, each in an order drawn from the seed.

        Every pass holds every key once, so each seed runs the same mix of
        work and the run's statistics weigh every scenario alike.
        """
        rng = random.Random(seed)
        while True:
            keys = list(self.pool)
            rng.shuffle(keys)
            yield keys


def _keys(kind: str, seeds) -> Tuple[str, ...]:
    return tuple(f"{kind}/{k}" for k in seeds)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("certify", (
            Part("certify", BUILTINS_2D + _keys("random", range(1000, 1020)),
                 calls=_certify_calls),
        )),
        Workload("crosscheck", (
            Part("crosscheck", _keys("random", range(1000, 1008)),
                 calls=_crosscheck_calls, agreement=_crosscheck_agreement),
            Part("line", _keys("interval", range(1000, 1024)),
                 calls=_line_calls, agreement=_line_agreement),
        )),
    )
}


def report_digests(ek, reports: dict) -> Dict[str, str]:
    """sha256 of each report's canonical JSON; plain documents are digested as is."""
    out = {}
    for mode, report in reports.items():
        doc = report if isinstance(report, dict) else report.to_document()
        out[mode] = hashlib.sha256(ek.scenario.canonical_json(doc).encode()).hexdigest()
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
