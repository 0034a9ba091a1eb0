"""End-to-end checks, each with its own wall-clock budget."""

import dataclasses
import os
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundary_tools import reference_fiber_boundary
from diagram_tools import brute_force_limit, random_diagram
from evasion_kit.analysis import (
    analyze,
    analyze_direct,
    analyze_boundary,
    analyze_oracle,
    boundary_limit,
    d1_count,
    extract_boundary_data,
    oracle_reachability,
    verify_witness,
)
from evasion_kit.limit import (
    ZigzagAlgebraDiagram,
    ZigzagSetDiagram,
    diagrams_isomorphic,
    inverse_limit,
    limit_of_algebras,
    partition_algebra,
)
from evasion_kit.rasterize import (
    components,
    grid_for_scenario,
    rasterize_fiber,
)
from evasion_kit.scenario import (
    BUILTIN_NAMES,
    SensorTrack,
    builtin_scenario,
    canonical_json,
    random_interval_scenario,
)
from evasion_kit.zigzag import build_zigzag
from hole_tools import fill_partition

import random


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds}s"


def _end_pocket(s, grid, witness):
    final = components(rasterize_fiber(s, 1.0, grid))
    _, p_last = witness.samples[-1]
    cell = tuple(
        int(round((c - grid.origin[k]) / grid.cell_size - 0.5))
        for k, c in enumerate(reversed(p_last))
    )
    return int(final.labels[cell])


def test_split_counts_two_path_classes():
    budget = _Budget(10.0)
    s = builtin_scenario("split")
    grid = grid_for_scenario(s, cells=128, fine_time_samples=256)
    report = analyze_direct(s, grid)
    assert report.exists is True
    assert report.limit_cardinality == 2
    assert not report.truncated["elements"]
    assert len(report.witnesses) == 2
    pockets = {_end_pocket(s, grid, w) for w in report.witnesses}
    assert len(pockets) == 2
    for w in report.witnesses:
        assert verify_witness(s, w)
    budget.check()


def test_close_has_no_evasion_path():
    budget = _Budget(10.0)
    s = builtin_scenario("close")
    report = analyze_direct(s)
    assert report.exists is False
    assert report.limit_cardinality == 0
    assert oracle_reachability(s).exists is False
    budget.check()


def test_annuli_transfer_count_and_witnesses():
    budget = _Budget(30.0)
    s = builtin_scenario("annuli")
    grid = grid_for_scenario(s)
    bundle = build_zigzag(s, grid)
    report = analyze_direct(s, grid)
    assert report.limit_cardinality == len(brute_force_limit(bundle.diagram))
    # every limit element yields a verified witness
    assert len(report.witnesses) == report.limit_cardinality
    assert "witness_failures" not in report.diagnostics
    for fiber in report.diagnostics["fibers"]:
        assert fiber["b1"] >= 1
    assert "lower bound only" in report.diagnostics["note"]
    budget.check()


def test_two_singleton_block_diagram_counts_two():
    budget = _Budget(1.0)
    one = partition_algebra((0,), [(0,)])
    two = partition_algebra((0, 1), [(0,), (1,)])
    za = ZigzagAlgebraDiagram(
        shape="interval",
        fiber_algebras=(one, two),
        cobordism_algebras=(one,),
        left_maps=({0: 0},),
        right_maps=({0: 0, 1: 0},),
    )
    out = limit_of_algebras(za)
    assert out.result.cardinality == 2
    assert not out.result.truncated
    budget.check()


def test_boundary_reconstruction_matches_direct():
    budget = _Budget(300.0)
    scenarios = [builtin_scenario(name) for name in ("split", "close", "annuli")]
    scenarios += [builtin_scenario("random", seed=k) for k in range(50)]
    for s in scenarios:
        direct = build_zigzag(s)
        direct_count = inverse_limit(direct.diagram).cardinality
        dual = boundary_limit(extract_boundary_data(s))
        assert dual.result.cardinality == direct_count
        assert diagrams_isomorphic(dual.dual_diagram, direct.diagram)
    budget.check()


def _collapse_singletons(z: ZigzagSetDiagram) -> ZigzagSetDiagram:
    """Rename each singleton block back to its member label."""

    def member(block):
        assert isinstance(block, tuple) and len(block) == 1
        return block[0]

    return ZigzagSetDiagram(
        shape=z.shape,
        fiber_sets=tuple(tuple(member(b) for b in fs) for fs in z.fiber_sets),
        cobordism_sets=tuple(tuple(member(b) for b in cs) for cs in z.cobordism_sets),
        left_maps=tuple({member(k): member(v) for k, v in m.items()}
                        for m in z.left_maps),
        right_maps=tuple({member(k): member(v) for k, v in m.items()}
                         for m in z.right_maps),
    )


def _boundary_diagram(data):
    """The zigzag of boundary components that BoundaryData counts and maps."""
    fiber_sets = [tuple(sorted(p.ground)) for p in data.fiber_partitions]
    if data.time_base == "circle":
        fiber_sets.append(fiber_sets[0])
    return ZigzagSetDiagram(
        shape=data.time_base,
        fiber_sets=tuple(fiber_sets),
        cobordism_sets=tuple(tuple(range(1, c + 1)) for c in data.cobordism_counts),
        left_maps=data.left_maps,
        right_maps=data.right_maps,
    )


def test_boundary_partitions_dualize_to_components():
    budget = _Budget(60.0)
    for name in ("split", "close", "annuli", "full"):
        s = builtin_scenario(name)
        grid = grid_for_scenario(s)
        data = extract_boundary_data(s, grid)
        for t, partition in zip(data.sample_times, data.fiber_partitions):
            f = rasterize_fiber(s, t, grid)
            boundary = reference_fiber_boundary(f)
            by_pocket = {}
            for label, (pocket, _) in enumerate(boundary.pairs, start=1):
                by_pocket.setdefault(pocket, set()).add(label)
            assert {frozenset(b) for b in partition.blocks} == \
                {frozenset(v) for v in by_pocket.values()}
        # with the covered region connected at every sample, reconstruction
        # returns the boundary component diagram itself, label for label
        if name != "annuli":
            dual = boundary_limit(data).dual_diagram
            assert _collapse_singletons(dual) == _boundary_diagram(data)
    budget.check()


def test_boundary_partitions_match_fill_reference():
    # Every sample fiber's partition equals the joint level sets of the hole
    # fill functionals, on a pool where some fibers split into several blocks.
    budget = _Budget(60.0)
    scenarios = [builtin_scenario(name) for name in BUILTIN_NAMES if name != "random"]
    seeds = list(range(60)) + list(range(1000, 1020))
    scenarios += [builtin_scenario("random", seed=k) for k in seeds]
    split = 0
    for s in scenarios:
        grid = grid_for_scenario(s)
        data = extract_boundary_data(s, grid)
        for t, partition in zip(data.sample_times, data.fiber_partitions):
            f = rasterize_fiber(s, t, grid)
            boundary = reference_fiber_boundary(f)
            assert partition == fill_partition(f.covered_with_collar, boundary)
            split += len(partition.blocks) > 1
    assert split > 0
    budget.check()


def test_direct_existence_agrees_with_oracle():
    # The oracle's 509 time steps share no interior time with the scan's 512.
    budget = _Budget(600.0)
    for seed in range(100):
        s = builtin_scenario("random", seed=seed)
        direct = analyze_direct(s, witnesses=False)
        oracle = oracle_reachability(s, time_samples=509)
        assert direct.exists == oracle.exists, f"seed {seed}"
        assert direct.limit_cardinality == oracle.class_count, f"seed {seed}"
    budget.check()


def test_transfer_counts_match_brute_force():
    budget = _Budget(10.0)
    rng = random.Random(2024)
    shapes = set()
    for _ in range(1000):
        z = random_diagram(rng, max_cobordisms=2, max_labels=5)
        shapes.add(z.shape)
        res = inverse_limit(z)
        want = brute_force_limit(z)
        assert res.cardinality == len(want)
        assert list(res.elements) == want
    assert shapes == {"interval", "circle"}
    budget.check()


def test_d1_closed_form_matches_oracle():
    budget = _Budget(30.0)
    for seed in range(20):
        s = random_interval_scenario(seed)
        assert d1_count(s) == oracle_reachability(s).class_count, f"seed {seed}"
    budget.check()


def test_reports_are_deterministic():
    # Repeat runs and the reversed sensor order give the same bytes.
    budget = _Budget(60.0)
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        reversed_s = dataclasses.replace(s, tracks=s.tracks[::-1])
        for mode in ("direct", "boundary", "oracle"):
            outs = [canonical_json(analyze(x, mode=mode).to_document())
                    for x in (s, s, reversed_s)]
            assert outs[0] == outs[1] == outs[2], (name, mode)
    budget.check()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 99), st.data())
def test_sensor_order_does_not_change_reports(seed, data):
    # Any other sensor order gives the same bytes in direct and oracle modes.
    # Budget: 20 s per example; each takes well under a second.
    budget = _Budget(20.0)
    s = builtin_scenario("random", seed)
    n = len(s.tracks)
    order = data.draw(st.permutations(range(n)))
    assume(order != list(range(n)) and order != list(range(n))[::-1])
    permuted = dataclasses.replace(s, tracks=tuple(s.tracks[k] for k in order))
    for mode in ("direct", "oracle"):
        want = canonical_json(analyze(s, mode=mode).to_document())
        assert canonical_json(analyze(permuted, mode=mode).to_document()) == want, mode
    budget.check()


# Grid symmetries about the domain center map cell centers onto cell centers,
# and they change raster order relative to the motion, so the scan's
# raster-order simple-flip certificate sees each scenario anew.
_SYMMETRIES = {
    "rotate90": lambda c, p: (c[0] - (p[1] - c[1]), c[1] + (p[0] - c[0])),
    "reflect": lambda c, p: (2.0 * c[0] - p[0], p[1]),
}


@pytest.mark.parametrize("symmetry", sorted(_SYMMETRIES))
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 99))
def test_grid_symmetries_keep_the_limit(symmetry, seed):
    budget = _Budget(20.0)
    s = builtin_scenario("random", seed)
    move = _SYMMETRIES[symmetry]
    moved = dataclasses.replace(s, tracks=tuple(
        SensorTrack(tuple((t, move(s.center, p)) for t, p in track.waypoints))
        for track in s.tracks))
    want = analyze_direct(s, witnesses=False)
    got = analyze_direct(moved, witnesses=False)
    assert (got.limit_cardinality, got.exists) == (want.limit_cardinality, want.exists)
    budget.check()


def _time_reversed(s):
    """The scenario with every track run backwards, t -> 1 - t."""
    return dataclasses.replace(s, tracks=tuple(
        SensorTrack(tuple((1.0 - t, p) for t, p in reversed(track.waypoints)))
        for track in s.tracks))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 99))
def test_time_reversal_reverses_events(seed):
    # Running the tracks backwards keeps the limit; each event happens at
    # the mirrored time with the opposite type.
    budget = _Budget(20.0)
    s = random_interval_scenario(seed)
    want = analyze_direct(s, witnesses=False)
    got = analyze_direct(_time_reversed(s), witnesses=False)
    assert got.limit_cardinality == want.limit_cardinality
    swap = {"D": "N", "N": "D"}
    forward = want.diagnostics["events"][::-1]
    backward = got.diagnostics["events"]
    assert ([e["type_uncovered"] for e in backward]
            == [swap[e["type_uncovered"]] for e in forward])
    for b, f in zip(backward, forward):
        assert b["time"] == pytest.approx(1.0 - f["time"], abs=2e-4)
    budget.check()


@pytest.mark.parametrize("generator", ["random", "interval"])
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 99))
def test_time_reversal_keeps_the_oracle(generator, seed):
    # An evasion path run backwards evades the reversed sensors, so the
    # oracle's answer is kept; on the 1-D generator, so is its class count.
    budget = _Budget(20.0)
    if generator == "interval":
        s = random_interval_scenario(seed)
    else:
        s = builtin_scenario("random", seed)
    want = analyze_oracle(s)
    got = analyze_oracle(_time_reversed(s))
    assert got.exists == want.exists
    if generator == "interval":
        assert got.limit_cardinality == want.limit_cardinality
    budget.check()
