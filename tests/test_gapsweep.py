"""The exact 1-D gap sweep: answers, invariants and ties."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evasion_kit.analysis import (analyze_direct, d1_count, oracle_reachability,
                                  verify_witness)
from evasion_kit.gapsweep import sweep_gaps
from evasion_kit.limit import inverse_limit
from evasion_kit.scenario import (Scenario, SensorTrack, positions_at,
                                  random_interval_scenario,
                                  random_waypoint_scenario, validate_scenario)

_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def _d1(tracks, r=0.16, fence=0.12, base="interval"):
    return validate_scenario(Scenario(
        dimension=1, center=(0.0,), radius=1.0, sensing_radius=r,
        fence_width=fence, time_base=base, tracks=tuple(tracks)))


def _static(x):
    return SensorTrack(((0.0, (x,)), (1.0, (x,))))


def _sorted_edges(s, times):
    """At each time, the edge values in order, and whether a gap follows
    each: it ends a covered interval and leaves none open."""
    times = np.asarray(times, dtype=float)
    n = s.sensor_count
    r = s.sensing_radius
    inner = s.radius - s.fence_width
    p = positions_at(s, times)[:, :, 0].T if n else np.zeros((times.size, 0))
    fence = np.broadcast_to([s.center[0] - inner, s.center[0] + inner], (times.size, 2))
    values = np.concatenate((p - r, p + r, fence), axis=1)
    ends = np.zeros(values.shape[1], dtype=bool)
    ends[n:2 * n + 1] = True
    order = np.argsort(values, axis=1, kind="stable")
    is_end = ends[order]
    depth = 1 + np.cumsum(np.where(is_end, -1, 1), axis=1)
    return np.take_along_axis(values, order, axis=1), is_end & (depth == 0)


def _direct_gaps(s, times):
    """The gaps (lo, hi) at each time, from the sorted covered intervals."""
    v, gap = _sorted_edges(s, times)
    out = [[] for _ in range(len(v))]
    for row, col in zip(*np.nonzero(gap)):
        out[row].append((float(v[row, col]), float(v[row, col + 1])))
    return out


def _facts(report):
    return report.limit_cardinality, report.exists


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def test_interval_pool_matches_oracle_and_closed_form():
    # Existence and cardinality on random_interval_scenario 0-99 are the
    # oracle's class count and d1_count, and every witness verifies.
    for seed in range(100):
        s = random_interval_scenario(seed)
        report = analyze_direct(s)
        count = oracle_reachability(s).class_count
        assert report.limit_cardinality == count == d1_count(s), seed
        assert report.exists == (count > 0)
        assert len(report.witnesses) == count
        assert "witness_failures" not in report.diagnostics


def test_perfbench_line_pool_keeps_its_reference():
    # The reference event lists and cardinalities are also those of the gap
    # count at 200,001 times: no gap is born, so the count falls once per
    # death and its last value is the number of classes.
    reference = json.loads(_REFERENCE.read_text())["line"]
    times = np.linspace(0.0, 1.0, 200001)
    for seed in range(1000, 1024):
        want = reference[f"interval/{seed}"]
        s = random_interval_scenario(seed)
        report = analyze_direct(s)
        assert [e["type_uncovered"] for e in report.diagnostics["events"]] == want["events"]
        assert report.limit_cardinality == want["limit_cardinality"]
        counts = _sorted_edges(s, times)[1].sum(axis=1)
        assert counts[-1] == want["limit_cardinality"]
        steps = np.diff(counts)
        assert np.all(steps >= -1) and np.all(steps <= 0)
        assert ["D"] * int(-steps.sum()) == want["events"]
        for e in report.diagnostics["events"]:
            k = int(np.searchsorted(times, e["time"]))
            assert steps[k - 1] == -1


def test_generic_waypoint_pool_always_answers():
    # Generic motion in 1-D: the raster scan failed on most of this pool,
    # with grid resonance or an incoming map that was not a bijection.
    for sensors in (2, 3, 4, 5):
        for seed in range(100):
            s = random_waypoint_scenario(seed, sensors, 1)
            report = analyze_direct(s)
            assert "witness_failures" not in report.diagnostics, (sensors, seed)
            assert len(report.witnesses) == min(report.limit_cardinality, 64)


@pytest.mark.parametrize("c0", [0.0, 0.003, 0.0041, 0.0067])
def test_sub_cell_gap_is_found(c0):
    # The gap (c0 - 0.001, c0 + 0.001) stays open all the time, but no cell
    # center lies in it, so the raster oracle finds no path.
    r = 0.22
    statics = [-0.8, -0.5, 0.5, 0.8, c0 - (0.001 + r), c0 + (0.001 + r)]
    s = _d1([_static(x) for x in statics], r=r)
    report = analyze_direct(s)
    assert report.exists and report.limit_cardinality == 1
    (w,) = report.witnesses
    assert verify_witness(s, w)
    assert abs(w.samples[0][1][0] - c0) < 1e-3
    assert not oracle_reachability(s).exists


def test_endpoint_events_and_tangency_are_exact():
    # Dyadic inputs, so every tie below is exact. A mover touches a static
    # sensor at t = 0 and parts from it, another touches one at the
    # waypoint t = 0.5 and turns back, and a third meets one at t = 1.
    r = 0.0625
    part = [_static(-0.6875), SensorTrack(((0.0, (-0.5625,)), (1.0, (-0.5,))))]
    touch = [_static(0.0), SensorTrack(((0.0, (0.1875,)), (0.5, (0.125,)), (1.0, (0.1875,))))]
    meet = [_static(0.6875), SensorTrack(((0.0, (0.5,)), (1.0, (0.5625,))))]
    s = _d1(part + touch + meet, r=r, fence=0.125)
    sweep = sweep_gaps(s)
    events = [(e.time, e.type_x) for e in sweep.events]
    assert events == [(0.0, "N"), (0.5, "D"), (0.5, "N"), (1.0, "D")]
    assert sweep.samples == (0.0, 0.25, 0.75, 1.0)
    assert [len(g) for g in sweep.fibers] == [6, 7, 7, 6]
    # The gaps born at 0, closed and reopened at 0.5 and dying at 1 carry
    # no path; four gaps run through.
    assert inverse_limit(sweep.diagram).cardinality == 4
    report = analyze_direct(s)
    assert report.limit_cardinality == 4 and len(report.witnesses) == 4


def test_coincident_and_absent_sensors():
    s = _d1([_static(0.3), _static(0.3), _static(-0.3)])
    assert analyze_direct(s).limit_cardinality == 3
    assert analyze_direct(_d1([])).limit_cardinality == 1
    circle = _d1([], base="circle")
    report = analyze_direct(circle)
    assert report.limit_cardinality == 1 and verify_witness(circle, report.witnesses[0])


def test_crossing_on_a_waypoint_is_settled_exactly():
    # The mover's right edge reaches the static sensor's left edge, 0.25,
    # exactly when it stops at the waypoint t = 0.75, and the two stay in
    # touch; its speed 2/3 is not a float, so the float crossing time lies
    # within rounding of the waypoint and fractions settle the tie.
    r = 0.25
    mover = SensorTrack(((0.0, (-0.25,)), (0.375, (-0.25,)), (0.75, (0.0,)), (1.0, (0.0,))))
    s = _d1([_static(0.5), mover], r=r)
    sweep = sweep_gaps(s)
    assert [(e.time, e.type_x) for e in sweep.events] == [(0.75, "D")]
    assert inverse_limit(sweep.diagram).cardinality == 2


def test_crossing_a_rounding_error_past_a_waypoint():
    # At the waypoint t = 0.3 the float edges of A and B are equal, but A's
    # exact right edge is 1.5e-17 short of B's left edge, and A moves right:
    # the gap between them dies 1.5e-16 after the waypoint. The pair is
    # within the rounding bound there, so its crossing is found exactly.
    r, a1, b = 0.125, 0.10200000000000001, 0.2806
    left = Fraction(a1) * Fraction(0.3) + Fraction(r)
    assert left < Fraction(b) - Fraction(r)
    assert float(positions_at(_d1([SensorTrack(((0.0, (0.0,)), (1.0, (a1,))))]),
                              [0.3])[0, 0, 0]) + r == b - r
    mover = SensorTrack(((0.0, (0.0,)), (1.0, (a1,))))
    static = SensorTrack(((0.0, (b,)), (0.3, (b,)), (1.0, (b,))))
    sweep = sweep_gaps(_d1([mover, static], r=r))
    crossing = Fraction(0.3) + (Fraction(b) - Fraction(r) - left) / Fraction(a1)
    assert [(e.time, e.type_x) for e in sweep.events] == [(float(crossing), "D")]
    assert 0.3 < sweep.events[0].time


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _pool(count):
    return ([random_interval_scenario(seed) for seed in range(count)]
            + [random_waypoint_scenario(seed, 2 + seed % 4, 1) for seed in range(count)])


def _reflected(s):
    return dataclasses.replace(s, tracks=tuple(
        SensorTrack(tuple((t, (2.0 * s.center[0] - p[0],)) for t, p in track.waypoints))
        for track in s.tracks))


def _time_reversed(s):
    return dataclasses.replace(s, tracks=tuple(
        SensorTrack(tuple((1.0 - t, p) for t, p in reversed(track.waypoints)))
        for track in s.tracks))


def test_reflection_time_reversal_and_sensor_order_keep_the_answer():
    for s in _pool(40):
        want = _facts(analyze_direct(s, witnesses=False))
        for moved in (_reflected(s), _time_reversed(s),
                      dataclasses.replace(s, tracks=s.tracks[::-1])):
            assert _facts(analyze_direct(moved, witnesses=False)) == want


def _closed(s):
    """The scenario on a circle base, each track closed by its first point."""
    return dataclasses.replace(s, time_base="circle", tracks=tuple(
        SensorTrack(track.waypoints[:-1] + ((1.0, track.points[0]),))
        for track in s.tracks))


def _phase_shifted(s, delta):
    """The circle scenario run delta later: p'(t) = p(t - delta mod 1)."""
    tracks = []
    for track in s.tracks:
        at_zero = tuple(positions_at(dataclasses.replace(s, tracks=(track,)), [-delta])[0, 0])
        inner = sorted(((t + delta) % 1.0, p) for t, p in track.waypoints[:-1]
                       if 0.0 < (t + delta) % 1.0 < 1.0)
        tracks.append(SensorTrack(((0.0, at_zero), *inner, (1.0, at_zero))))
    return validate_scenario(dataclasses.replace(s, tracks=tuple(tracks)))


def test_circle_phase_shift_keeps_the_answer():
    rng = np.random.default_rng(7)
    for seed in range(40):
        s = _closed(random_waypoint_scenario(seed, 2 + seed % 4, 1))
        report = analyze_direct(s)
        assert all(verify_witness(s, w) for w in report.witnesses)
        for delta in rng.random(3):
            got = analyze_direct(_phase_shifted(s, float(delta)), witnesses=False)
            assert _facts(got) == _facts(report), (seed, delta)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 6), st.sampled_from(("interval", "circle")))
def test_gaps_match_positions_at_random_times(seed, sensors, base):
    s = random_waypoint_scenario(seed, sensors, 1)
    if base == "circle":
        s = _closed(s)
    # Times past the span are clamped on an interval base and wrapped on a
    # circle, as positions_at does.
    times = np.random.default_rng(seed).uniform(-0.25, 1.25, 10 ** 4)
    got = sweep_gaps(s).gaps_at(times)
    want = _direct_gaps(s, times)
    assert [len(g) for g in got] == [len(w) for w in want]
    flat = [[end for g in gaps for end in g] for gaps in (got, want)]
    assert np.allclose(*flat, rtol=0.0, atol=1e-12)
