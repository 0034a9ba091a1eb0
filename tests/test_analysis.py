import math
import os
import subprocess
import sys

import numpy as np
import pytest

from evasion_kit.analysis import (
    BoundaryData,
    LOWER_BOUND_NOTE,
    Witness,
    analyze,
    analyze_boundary,
    analyze_direct,
    analyze_oracle,
    boundary_data_from_document,
    boundary_limit,
    d1_count,
    extract_boundary_data,
    extract_witness,
    oracle_reachability,
    point_uncovered,
    verify_witness,
)
from evasion_kit.errors import WitnessError
from evasion_kit.limit import diagrams_isomorphic
from evasion_kit.rasterize import (
    components,
    grid_for_scenario,
    rasterize_fiber,
)
from evasion_kit.scenario import (
    Scenario,
    SensorTrack,
    builtin_scenario,
    canonical_json,
    validate_scenario,
)
from evasion_kit.zigzag import build_zigzag


def _d1(tracks):
    return validate_scenario(Scenario(
        dimension=1,
        center=(0.0,),
        radius=1.0,
        sensing_radius=0.16,
        fence_width=0.12,
        time_base="interval",
        tracks=tuple(tracks),
    ))


def _static1(x):
    return SensorTrack(((0.0, (x,)), (1.0, (x,))))


def _merge_scenario():
    mover = SensorTrack(((0.0, (0.05,)), (0.3, (0.05,)),
                         (0.8, (-0.16,)), (1.0, (-0.16,))))
    return _d1([_static1(-0.45), _static1(0.44), mover])


def _pulse_scenario(time_base):
    def ring(n, radius):
        return [(radius * math.cos(2.0 * math.pi * k / n),
                 radius * math.sin(2.0 * math.pi * k / n)) for k in range(n)]

    tracks = [SensorTrack(((0.0, p), (1.0, p))) for p in ring(12, 0.45)]
    tracks += [SensorTrack(((0.0, p), (1.0, p))) for p in ring(16, 0.75)]
    for sign in (1.0, -1.0):
        tracks.append(SensorTrack((
            (0.0, (0.0, sign * 0.15)),
            (0.45, (0.0, sign * 0.45)),
            (0.55, (0.0, sign * 0.45)),
            (1.0, (0.0, sign * 0.15)),
        )))
    return validate_scenario(Scenario(
        dimension=2,
        center=(0.0, 0.0),
        radius=1.0,
        sensing_radius=0.22,
        fence_width=0.12,
        time_base=time_base,
        tracks=tuple(tracks),
    ))


@pytest.fixture(scope="module")
def direct_reports():
    return {name: analyze_direct(builtin_scenario(name))
            for name in ("split", "close", "annuli", "empty", "full")}


# ---------------------------------------------------------------------------
# direct analysis
# ---------------------------------------------------------------------------


def test_builtin_direct_limits(direct_reports):
    want = {"split": 2, "close": 0, "annuli": 2, "empty": 1, "full": 0}
    for name, cardinality in want.items():
        report = direct_reports[name]
        assert report.mode == "direct"
        assert report.limit_cardinality == cardinality
        assert report.exists == (cardinality > 0)
        assert not report.truncated["elements"]


def test_split_witnesses_end_in_distinct_pockets(direct_reports):
    report = direct_reports["split"]
    assert len(report.witnesses) == 2
    s = builtin_scenario("split")
    grid = grid_for_scenario(s)
    final = components(rasterize_fiber(s, 1.0, grid), "uncovered")
    ends = []
    for w in report.witnesses:
        assert verify_witness(s, w)
        t_last, p_last = w.samples[-1]
        assert t_last == 1.0
        cell = tuple(
            int(round((c - grid.origin[k]) / grid.cell_size - 0.5))
            for k, c in enumerate(reversed(p_last))
        )
        ends.append(final.label_at(cell))
    assert sorted(ends) == [1, 2]


def test_witness_samples_are_monotone(direct_reports):
    for name in ("split", "annuli"):
        for w in direct_reports[name].witnesses:
            times = [t for t, _ in w.samples]
            assert times == sorted(times)
            assert times[0] == 0.0
            assert times[-1] == 1.0


def test_empty_scenario_constant_witness(direct_reports):
    report = direct_reports["empty"]
    assert report.limit_cardinality == 1
    (w,) = report.witnesses
    positions = {p for _, p in w.samples}
    assert len(positions) == 1


def test_no_witnesses_flag():
    report = analyze_direct(builtin_scenario("split"), witnesses=False)
    assert report.witnesses == ()
    assert not report.truncated["witnesses"]


def test_truncation_reporting():
    report = analyze_direct(builtin_scenario("annuli"), max_elements=1,
                            max_witnesses=1)
    assert report.limit_cardinality == 2
    assert len(report.limit_elements) == 1
    assert report.truncated["elements"]
    assert report.truncated["witnesses"]


def test_extract_witness_validates_element(direct_reports):
    bundle = build_zigzag(builtin_scenario("split"))
    with pytest.raises(WitnessError):
        extract_witness(bundle, (1,))
    with pytest.raises(WitnessError):
        extract_witness(bundle, (9, 1))


def test_report_document_schema(direct_reports):
    doc = direct_reports["split"].to_document()
    assert set(doc) == {"mode", "exists", "limit_cardinality", "limit_elements",
                        "witnesses", "diagnostics", "truncated"}
    assert doc["limit_elements"] == [[1, 1], [1, 2]]
    assert {"t", "pi0", "b1"} <= set(doc["diagnostics"]["fibers"][0])
    (event,) = doc["diagnostics"]["events"]
    assert set(event) == {"window", "time", "locus", "type_uncovered",
                          "type_covered"}
    assert event["type_uncovered"] == "D"
    assert event["type_covered"] == "N"
    assert doc["diagnostics"]["note"] == LOWER_BOUND_NOTE
    for w in doc["witnesses"]:
        assert set(w) == {"element", "samples"}
    canonical_json(doc)


def test_event_locus_documented_in_xy_order(direct_reports):
    s = builtin_scenario("split")
    bundle = build_zigzag(s)
    doc = direct_reports["split"].to_document()
    e = bundle.events[0]
    assert doc["diagnostics"]["events"][0]["locus"] == list(reversed(e.locus))


# ---------------------------------------------------------------------------
# exact point checks
# ---------------------------------------------------------------------------


def test_point_uncovered_checks():
    empty = builtin_scenario("empty")
    assert point_uncovered(empty, 0.3, (0.0, 0.0))
    assert not point_uncovered(empty, 0.3, (0.9, 0.0))
    assert not point_uncovered(empty, 0.3, (2.0, 0.0))
    full = builtin_scenario("full")
    assert not point_uncovered(full, 0.5, (0.0, 0.0))
    lone = validate_scenario(Scenario(
        dimension=2, center=(0.0, 0.0), radius=1.0, sensing_radius=0.22,
        fence_width=0.12, time_base="interval",
        tracks=(SensorTrack(((0.0, (0.0, 0.0)), (1.0, (0.0, 0.0)))),),
    ))
    # a hair outside the ball passes strictly; a hair inside needs slack
    assert point_uncovered(lone, 0.0, (0.0, 0.2201))
    assert not point_uncovered(lone, 0.0, (0.0, 0.2199))
    assert point_uncovered(lone, 0.0, (0.0, 0.2199), eta=0.001)


def test_verify_witness_rejects_tampering(direct_reports):
    s = builtin_scenario("split")
    w = direct_reports["split"].witnesses[0]
    assert verify_witness(s, w)
    k = len(w.samples) // 2
    t_mid = w.samples[k][0]
    covered = Witness(element=w.element, samples=(
        w.samples[:k] + ((t_mid, (0.45, 0.0)),) + w.samples[k + 1:]))
    assert not verify_witness(s, covered)
    backwards = Witness(element=w.element,
                        samples=tuple(reversed(w.samples)))
    assert not verify_witness(s, backwards)


def test_verify_witness_checks_standing_spans():
    # parked on a spot a sensor passes over mid-span
    s = builtin_scenario("close")
    w = Witness(element=(1, 1), samples=((0.0, (0.0, 0.03)), (1.0, (0.0, 0.03))))
    assert not verify_witness(s, w)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_builtins():
    split = oracle_reachability(builtin_scenario("split"))
    assert split.exists
    assert split.start_components == 1
    assert split.final_components == 2
    assert split.reachable_pairs == ((1, 1), (1, 2))
    assert split.class_count is None
    close = oracle_reachability(builtin_scenario("close"))
    assert not close.exists
    assert close.reachable_pairs == ()
    assert oracle_reachability(builtin_scenario("full")).start_components == 0


def test_oracle_d1_class_count():
    s = _merge_scenario()
    res = oracle_reachability(s)
    assert res.exists
    assert res.start_components == 4
    assert res.final_components == 3
    assert res.class_count == 3


def test_analyze_oracle_report():
    report = analyze_oracle(builtin_scenario("split"))
    assert report.mode == "oracle"
    assert report.exists
    assert report.limit_cardinality is None
    assert report.diagnostics["reachable_pairs"] == [[1, 1], [1, 2]]


# ---------------------------------------------------------------------------
# d=1 closed form
# ---------------------------------------------------------------------------


def test_d1_count_static_conventions():
    s = _d1([_static1(-0.45), _static1(0.45)])
    assert d1_count(s) == 3
    assert d1_count(s, fence_ends="included") == 3
    assert d1_count(s, fence_ends="excluded") == 1
    assert oracle_reachability(s).class_count == 3


def test_d1_count_merge():
    s = _merge_scenario()
    assert d1_count(s) == 3
    # three covered bodies without the collar, one death
    assert d1_count(s, fence_ends="excluded") == 1


def test_d1_count_rejects_bad_inputs():
    with pytest.raises(ValueError):
        d1_count(builtin_scenario("split"))
    with pytest.raises(ValueError):
        d1_count(_d1([_static1(0.0)]), fence_ends="both")


# ---------------------------------------------------------------------------
# boundary-only analysis
# ---------------------------------------------------------------------------


def test_boundary_matches_direct_on_split(direct_reports):
    s = builtin_scenario("split")
    report = analyze_boundary(s)
    assert report.mode == "boundary"
    assert report.limit_cardinality == direct_reports["split"].limit_cardinality
    assert report.exists
    data = extract_boundary_data(s)
    dual = boundary_limit(data).dual_diagram
    assert diagrams_isomorphic(dual, build_zigzag(s).diagram)


def test_boundary_agrees_on_close_and_full(direct_reports):
    for name in ("close", "full"):
        report = analyze_boundary(builtin_scenario(name))
        assert report.limit_cardinality == direct_reports[name].limit_cardinality
        assert not report.exists


def test_boundary_blind_to_unbounded_pocket(direct_reports):
    # a scenario with no sensors has no boundary at all: the reconstruction
    # sees an empty diagram while the direct count tracks the one open pocket
    report = analyze_boundary(builtin_scenario("empty"))
    assert report.limit_cardinality == 0
    assert direct_reports["empty"].limit_cardinality == 1


def test_boundary_data_round_trip():
    s = builtin_scenario("split")
    data = extract_boundary_data(s)
    doc = data.to_document()
    again = boundary_data_from_document(doc)
    assert again.to_document() == doc
    assert canonical_json(doc) == canonical_json(again.to_document())
    assert boundary_limit(again).result.cardinality == \
        boundary_limit(data).result.cardinality


def test_boundary_rejects_dimension_1():
    with pytest.raises(ValueError):
        extract_boundary_data(_merge_scenario())


def test_boundary_report_diagnostics():
    report = analyze_boundary(builtin_scenario("split"))
    fibers = report.diagnostics["fibers"]
    assert fibers[0] == {"boundary_components": 1, "reconstructed_components": 1}
    assert fibers[1] == {"boundary_components": 2, "reconstructed_components": 2}
    assert report.diagnostics["note"] == LOWER_BOUND_NOTE


# ---------------------------------------------------------------------------
# circle time base end to end
# ---------------------------------------------------------------------------


def test_circle_pulse_full_pipeline():
    s = _pulse_scenario("circle")
    report = analyze_direct(s)
    assert report.limit_cardinality == 2
    assert len(report.witnesses) == 2
    for w in report.witnesses:
        assert w.samples[0][1] == w.samples[-1][1]
        times = [t for t, _ in w.samples]
        assert times == sorted(times)
    assert oracle_reachability(s).exists
    boundary = analyze_boundary(s)
    assert boundary.limit_cardinality == 2
    data = extract_boundary_data(s)
    assert diagrams_isomorphic(boundary_limit(data).dual_diagram,
                               build_zigzag(s).diagram)


def test_interval_pulse_loses_the_matching():
    report = analyze_direct(_pulse_scenario("interval"), witnesses=False)
    assert report.limit_cardinality == 4


# ---------------------------------------------------------------------------
# dispatcher and determinism
# ---------------------------------------------------------------------------


def test_analyze_dispatcher():
    s = _merge_scenario()
    assert analyze(s, "direct").mode == "direct"
    assert analyze(s, "oracle").mode == "oracle"
    assert analyze(builtin_scenario("split"), "boundary",
                   witnesses=False).mode == "boundary"
    with pytest.raises(ValueError):
        analyze(s, "nonesuch")


_WORKER = """
import sys
from evasion_kit.analysis import analyze
from evasion_kit.scenario import builtin_scenario, canonical_json
doc = analyze(builtin_scenario("split")).to_document()
sys.stdout.write(canonical_json(doc))
"""


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_reports_identical_across_thread_counts():
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ, EVASION_KIT_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _WORKER], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
