import copy
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from typing import Dict, List, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from boundary_tools import reference_fiber_boundary
from circle_tools import closed, phase_shifted
from evasion_kit import analysis, rasterize, zigzag
from evasion_kit.analysis import (
    BoundaryData,
    LOWER_BOUND_NOTE,
    OracleResult,
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
from evasion_kit.errors import KnobError, WitnessError
from evasion_kit.limit import ZigzagSetDiagram, diagrams_isomorphic, inverse_limit
from evasion_kit.planar_homology import alexander_image
from evasion_kit.rasterize import (
    boundary_pairs,
    bounding_box,
    components,
    coverage_masks,
    domain_masks,
    grid_for_scenario,
    label_components,
    rasterize_cobordism,
    rasterize_fiber,
)
from evasion_kit.scenario import (
    TIME_SPAN,
    Scenario,
    SensorTrack,
    builtin_scenario,
    canonical_json,
    positions_at,
    random_interval_scenario,
    random_waypoint_scenario,
    validate_scenario,
)
from evasion_kit.zigzag import build_zigzag, detect_events, fiber_signature, interleave


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
    final = components(rasterize_fiber(s, 1.0, grid))
    ends = []
    for w in report.witnesses:
        assert verify_witness(s, w)
        t_last, p_last = w.samples[-1]
        assert t_last == 1.0
        cell = tuple(
            int(round((c - grid.origin[k]) / grid.cell_size - 0.5))
            for k, c in enumerate(reversed(p_last))
        )
        ends.append(int(final.labels[cell]))
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


def test_extract_witness_validates_element(direct_reports, monkeypatch):
    # Every entry is checked against its fiber's count before any search:
    # label 0, the covered cells, names no component either, and no span is
    # rasterized again for an element that names a missing one.
    bundle = build_zigzag(builtin_scenario("split"))
    with pytest.raises(WitnessError):
        extract_witness(bundle, (1,))
    rasterized = []
    monkeypatch.setattr(analysis, "rasterize_cobordism",
                        lambda *args, **kwargs: rasterized.append(args))
    for element in ((9, 1), (0, 1), (1, 0), (1, 3)):
        with pytest.raises(WitnessError, match="element names a missing component"):
            extract_witness(bundle, element)
    assert rasterized == []


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
    assert split.class_count == 2
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
    assert report.limit_cardinality == 2
    assert report.diagnostics["reachable_pairs"] == [[1, 1], [1, 2]]


# ---------------------------------------------------------------------------
# d=1 closed form
# ---------------------------------------------------------------------------


def test_d1_count_static_conventions():
    s = _d1([_static1(-0.45), _static1(0.45)])
    assert d1_count(s) == 3
    assert oracle_reachability(s).class_count == 3


def test_d1_count_merge():
    s = _merge_scenario()
    assert d1_count(s) == 3


def test_d1_count_rejects_bad_inputs():
    with pytest.raises(ValueError):
        d1_count(builtin_scenario("split"))


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


@pytest.mark.parametrize("key", ["split", "close", "annuli", "empty", "full"]
                         + [f"random/{k}" for k in range(10)])
def test_boundary_data_of_a_bundle_equals_that_of_its_scenario(key):
    # compare reads the boundary pairs off direct mode's bundle; the data
    # are those of the scenario read alone.
    kind, _, seed = key.partition("/")
    s = builtin_scenario(kind, int(seed or 0))
    grid = grid_for_scenario(s)
    bundle = build_zigzag(s, grid)
    assert (extract_boundary_data(bundle).to_document()
            == extract_boundary_data(s, grid).to_document())


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


@pytest.mark.parametrize("sensors", [3, 5])
def test_boundary_partitions_keep_pockets_behind_thin_walls(sensors):
    # Generic motion pinches the covered region between two pockets down to
    # a wall a cell thick, or to a diagonal pinch. Every fiber's partition
    # still has one block per uncovered component that carries a boundary
    # pair.
    times = (0.0, 0.25, 0.5, 0.75, 1.0)
    for seed in range(20):
        s = random_waypoint_scenario(seed, sensors, 2)
        fibers = rasterize.rasterize_fibers(s, times, grid_for_scenario(s))
        for t, f, b in zip(times, fibers, zigzag._label_fibers(
                fibers, rasterize._raster_tables(s, grid_for_scenario(s)).view)[2]):
            blocks = alexander_image(f.covered_with_collar, b).blocks
            assert len(blocks) == len({u for u, _ in b.pairs}), (seed, t)


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
    with pytest.raises(KnobError):
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


def _mode_facts(s):
    """(limit cardinality, exists) of the direct, boundary and oracle reports."""
    return [(r.limit_cardinality, r.exists) for r in
            (analyze(s, mode, witnesses=False) for mode in ("direct", "boundary", "oracle"))]


def test_circle_phase_shift_keeps_the_answer_in_2d():
    # Running every track of a circle scenario delta later keeps existence
    # and cardinality in each mode, however the events move around t = 0.
    rng = np.random.default_rng(11)
    pool = [_pulse_scenario("circle")] + [closed(builtin_scenario("random", k))
                                          for k in range(4)]
    for k, s in enumerate(pool):
        want = _mode_facts(s)
        for delta in rng.random(3):
            assert _mode_facts(phase_shifted(s, float(delta))) == want, (k, delta)


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


def test_reports_identical_across_hash_seeds():
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _WORKER], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


_NO_SPARSE_WORKER = """
import sys
from evasion_kit.analysis import analyze_direct
from evasion_kit.scenario import builtin_scenario
for s in (builtin_scenario("split"), builtin_scenario("random", 1000)):
    assert analyze_direct(s).witnesses
sys.stdout.write(str("scipy.sparse" in sys.modules))
"""


def test_witness_search_imports_no_sparse_graphs():
    # Importing scipy.sparse.csgraph for its breadth-first search costs
    # about 9 MiB of resident memory; the witness search does without it.
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _NO_SPARSE_WORKER],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False"


# ---------------------------------------------------------------------------
# the stack-graph reachability against the per-slice loops it replaced
# ---------------------------------------------------------------------------


def _circle_d1():
    # a gap that a mover closes and reopens within one loop
    mover = SensorTrack(((0.0, (0.05,)), (0.5, (-0.2,)), (1.0, (0.05,))))
    return validate_scenario(Scenario(
        dimension=1, center=(0.0,), radius=1.0, sensing_radius=0.16,
        fence_width=0.12, time_base="circle",
        tracks=(_static1(-0.45), _static1(0.44), mover),
    ))


def _scenario(key):
    kind, _, seed = key.partition("/")
    if kind == "random":
        return builtin_scenario("random", int(seed))
    if kind == "interval":
        return random_interval_scenario(int(seed))
    if kind == "waypoint":
        seed, _, sensors = seed.partition("/")
        return random_waypoint_scenario(int(seed), int(sensors), 2)
    if kind == "pulse":
        return _pulse_scenario(seed or "circle")
    if kind == "circle1d":
        return _circle_d1()
    if kind == "merge":
        return _merge_scenario()
    if kind == "fence_end":
        return _fence_end_pocket()
    return builtin_scenario(kind)


def _fence_end_pocket():
    # Static sensors leave three pockets; at the default grid the right one
    # is the single last cell of the fenced region, on its bounding box edge.
    return _d1([_static1(x) for x in (-0.62, -0.3, 0.065, 0.385, 0.705)])


def _band_map(slice_labels, count, band_labels, row) -> Dict[int, int]:
    out: Dict[int, int] = {}
    flat = slice_labels.ravel()
    for label in range(1, count + 1):
        rep = int(np.flatnonzero(flat == label)[0])
        cell = np.unravel_index(rep, slice_labels.shape)
        out[label] = int(band_labels[(row,) + tuple(cell)])
    return out


def _reference_oracle(s, time_samples=512, grid=None):
    """The per-slice oracle, uncropped: a label call per slice and per
    two-slice band, one np.isin sweep per start component, and the class
    count as the inverse limit of the slices and bands, in any dimension."""
    if grid is None:
        grid = grid_for_scenario(s)
    t0, t1 = TIME_SPAN
    times = np.linspace(t0, t1, time_samples + 1)
    _, inside = domain_masks(s, grid)
    unc = inside[None] & ~coverage_masks(s, times, grid)
    labeled = [label_components(u) for u in unc]
    labels = [lab for lab, _ in labeled]
    counts = [n for _, n in labeled]

    pairs = []
    for a in range(1, counts[0] + 1):
        current: Set[int] = {a}
        for j in range(1, len(labels)):
            if not current:
                break
            mask = np.isin(labels[j - 1], sorted(current)) & unc[j]
            current = {int(v) for v in np.unique(labels[j][mask]) if v}
        pairs.extend((a, b) for b in sorted(current))
    if s.time_base == "circle":
        exists = any(a == b for a, b in pairs)
    else:
        exists = bool(pairs)

    cob_sets, lefts, rights = [], [], []
    for j in range(len(labels) - 1):
        band_labels, band_n = label_components(unc[j:j + 2])
        cob_sets.append(tuple(range(1, band_n + 1)))
        lefts.append(_band_map(labels[j], counts[j], band_labels, 0))
        rights.append(_band_map(labels[j + 1], counts[j + 1], band_labels, 1))
    diagram = ZigzagSetDiagram(
        shape=s.time_base,
        fiber_sets=tuple(tuple(range(1, n + 1)) for n in counts),
        cobordism_sets=tuple(cob_sets),
        left_maps=tuple(lefts),
        right_maps=tuple(rights),
    )
    class_count = int(inverse_limit(diagram, max_elements=0).cardinality)
    return OracleResult(exists=exists, start_components=counts[0],
                        final_components=counts[-1],
                        reachable_pairs=tuple(pairs), class_count=class_count)


_ORACLE_CASES = (
    [(name, 512) for name in ("split", "close", "annuli", "empty", "full")]
    + [(f"random/{k}", 512) for k in range(10)]
    + [(f"interval/{k}", 512) for k in range(10)]
    + [("pulse", 512), ("circle1d", 512)]
    + [(key, n) for key in ("split", "merge", "circle1d") for n in (1, 2, 3)]
    + [(f"{key}+edge", 512) for key in ("split", "annuli", "random/1", "interval/1",
                                        "circle1d")]
    + [("fence_end", 512)]
    # The generic pool: about one transition in seven is uncertified, so
    # certified stretches, runs of labeled slices and chunk boundaries
    # alternate.
    + [(f"waypoint/{k}/{n}", 512) for k in range(4) for n in (3, 5)]
    # The benchmark's 2-D pool, whose class counts the benchmark itself
    # does not check.
    + [(f"random/{k}", 512) for k in range(1000, 1008)]
)


def _box_cells(s, grid):
    _, inside = domain_masks(s, grid)
    return inside[bounding_box(inside)].size


def _spy_chunks(monkeypatch):
    """Record the times handed to each coverage_masks call of the oracle:
    its labeling chunks."""
    handed = []

    def counted(s, times, *args, **kwargs):
        handed.append(len(times))
        return coverage_masks(s, times, *args, **kwargs)

    monkeypatch.setattr(rasterize, "coverage_masks", counted)
    return handed


def _labeled_runs(s, grid, time_samples):
    """How many slices each run of the oracle labels: the first and the last
    distinct slice and both ends of each uncertified transition, in runs of
    consecutive distinct slices."""
    times = np.linspace(*TIME_SPAN, time_samples + 1)
    tr = rasterize._Transitions(s, times, grid)
    open_ = np.flatnonzero(~tr.certified)
    runs: List[int] = []
    previous = None
    for i in sorted({0, tr.kept.size - 1} | set(open_) | set(open_ + 1)):
        if previous is not None and i == previous + 1:
            runs[-1] += 1
        else:
            runs.append(1)
        previous = i
    return runs


@pytest.mark.parametrize("key,time_samples", _ORACLE_CASES)
def test_oracle_matches_per_slice_reference(key, time_samples, monkeypatch):
    # A '+edge' key has no grid margin: the disk touches the grid border.
    name, edge, _ = key.partition("+edge")
    s = _scenario(name)
    grid = grid_for_scenario(s, margin_cells=0) if edge else None
    want = _reference_oracle(s, time_samples, grid)
    assert oracle_reachability(s, grid, time_samples=time_samples) == want

    # Small chunk budgets. One cell puts every labeled slice in its own
    # labeling chunk; twice the box's cells puts two slices in a labeling
    # chunk. The labeled slices of every run go through the chunks in
    # order, one coverage_masks call each. Each chunk boundary carries the
    # last slice across, and the certified matching joins the runs, also
    # where a chunk starts with one.
    grid = grid or grid_for_scenario(s)
    cells = _box_cells(s, grid)
    runs = _labeled_runs(s, grid, time_samples)
    labeled = sum(runs)
    if s.dimension == 1:
        assert len(runs) == 1
    if name.startswith("waypoint"):
        assert len(runs) > 1 and max(runs) > 2
    handed = _spy_chunks(monkeypatch)
    for budget in (1, 2 * cells):
        monkeypatch.setattr(analysis, "_ORACLE_CHUNK_CELLS", budget)
        handed.clear()
        assert oracle_reachability(s, grid, time_samples=time_samples) == want
        per_chunk = max(1, budget // cells)
        assert handed == [min(per_chunk, labeled - lo) for lo in range(0, labeled, per_chunk)]
        if budget == 1:
            assert len(handed) == sum(handed) >= 2


def test_oracle_circle_d1_counts_classes():
    res = oracle_reachability(_circle_d1())
    assert res.exists
    assert res.class_count > 0


def test_oracle_rasterizes_only_distinct_slices(monkeypatch):
    # random/1000 has about 206 distinct slices among its 513, and the ring
    # certificate vouches for all but one transition between them: the
    # oracle labels the first and the last slice and that transition's two.
    s = builtin_scenario("random", 1000)
    want = oracle_reachability(s)
    handed = _spy_chunks(monkeypatch)
    assert oracle_reachability(s) == want
    assert 0 < sum(handed) <= 8
    assert max(handed) <= analysis._ORACLE_CHUNK_CELLS // _box_cells(s, grid_for_scenario(s))


@pytest.mark.parametrize("cells,time_samples", [(256, 1024), (128, 8192)])
def test_oracle_memory_is_bounded(cells, time_samples):
    # Holding every distinct slice at once peaked at 171 and 49 MiB here.
    s = builtin_scenario("random", 1004)
    grid = grid_for_scenario(s, cells=cells)
    tracemalloc.start()
    try:
        oracle_reachability(s, grid, time_samples=time_samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_cobordism_boundary_memory_is_bounded():
    # Two whole-grid 3-D label stacks and their contacts peaked at 148 MiB
    # here, and the cropped slice graphs at 34 MiB while they copied the crop
    # and its complements; one complement of a view peaks at 25 MiB.
    s = builtin_scenario("random", 1004)
    grid = grid_for_scenario(s, cells=256, fine_time_samples=256)
    cob = rasterize_cobordism(s, (0.2, 0.6), grid)
    tracemalloc.start()
    try:
        boundary_pairs(cob, components(cob))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20


def test_no_space_time_labeling(monkeypatch):
    # Boundary extraction and the oracle label no stack with face adjacency
    # across slices, and the readers of a 2-D slice graph read its end
    # slices alone.
    face = ndimage.generate_binary_structure(3, 1)
    label = ndimage.label
    space_time = []

    def spy_label(mask, structure=None, *args, **kwargs):
        if np.ndim(mask) == 3 and structure is not None and np.array_equal(structure, face):
            space_time.append(np.shape(mask))
        return label(mask, structure, *args, **kwargs)

    build = rasterize.stack_graph
    graphs = []

    def spy_graph(mask):
        g = build(mask)
        graphs.append((mask.shape, g))
        return g

    read = rasterize.StackGraph.labels
    reads: Dict[int, Set[int]] = {}

    # Keyed by the table, which a graph joined across gaps shares with the
    # graph it was made from.
    def spy_read(g, j):
        reads.setdefault(id(g.table), set()).add(j % len(g.table))
        return read(g, j)

    monkeypatch.setattr(ndimage, "label", spy_label)
    monkeypatch.setattr(rasterize, "stack_graph", spy_graph)
    monkeypatch.setattr(analysis, "stack_graph", spy_graph)
    monkeypatch.setattr(rasterize.StackGraph, "labels", spy_read)
    for seed in range(1000, 1008):
        s = builtin_scenario("random", seed)
        extract_boundary_data(s)
        oracle_reachability(s)
    assert not space_time
    planar = [(shape, g) for shape, g in graphs if len(shape) == 3]
    assert planar
    for shape, g in planar:
        assert reads.get(id(g.table), set()) <= {0, shape[0] - 1}


def test_direct_mode_labels_each_sample_fiber_once(monkeypatch):
    # On the certify pool one labeling of the sample fibers gives their
    # components and their signatures, and the scan, given the end fibers'
    # signatures, labels no slice when one step holds its non-simple flips.
    stacks = []
    in_fibers = []
    stack_signatures = zigzag._stack_signatures
    label_fibers = zigzag._label_fibers
    label = rasterize.label_components
    whole_grid = []

    def spy_stack(uncovered, *masks):
        stacks.append(("fibers" if in_fibers else "scan", uncovered.shape[0]))
        return stack_signatures(uncovered, *masks)

    def spy_fibers(fibers, view):
        in_fibers.append(True)
        try:
            return label_fibers(fibers, view)
        finally:
            in_fibers.pop()

    def spy_label(mask):
        whole_grid.append(mask.shape)
        return label(mask)

    monkeypatch.setattr(zigzag, "_stack_signatures", spy_stack)
    monkeypatch.setattr(zigzag, "_label_fibers", spy_fibers)
    monkeypatch.setattr(rasterize, "label_components", spy_label)
    scan = 0
    for key in (["split", "close", "annuli", "empty", "full"]
                + [f"random/{k}" for k in range(1000, 1020)]):
        stacks.clear()
        report = analyze_direct(_scenario(key))
        fibers = sum(n for kind, n in stacks if kind == "fibers")
        assert fibers == len(report.diagnostics["sample_times"])
        scanned = sum(n for kind, n in stacks if kind == "scan")
        if len(report.diagnostics["events"]) == 1:
            assert scanned == 0
        scan += scanned
    assert not whole_grid
    assert scan <= 2


@pytest.mark.parametrize("key", ["split", "close", "annuli", "empty", "full"]
                         + [f"random/{k}" for k in range(20)] + ["pulse", "interval/0"])
def test_bundle_fibers_match_their_own_labeling(key):
    # Each fiber's components equal labeling it alone on the whole grid, and
    # its signature equals its own fiber_signature, which labels it alone.
    s = _scenario(key)
    bundle = build_zigzag(s)
    assert tuple(f.time for f in bundle.fibers) == bundle.samples
    if s.dimension == 2:
        assert bundle.signatures == tuple(fiber_signature(f) for f in bundle.fibers)
    else:
        assert bundle.signatures is None
    for f, got in zip(bundle.fibers, bundle.fiber_parts):
        want = components(f)
        assert got.count == want.count
        assert got.labels.dtype == want.labels.dtype
        assert np.array_equal(got.labels, want.labels)
    # Each 2-D fiber's boundary pairs equal the reference's, which labels
    # the fiber alone.
    if s.dimension == 2:
        assert bundle.boundaries == tuple(reference_fiber_boundary(f) for f in bundle.fibers)
    else:
        assert bundle.boundaries is None


def test_boundary_mode_labels_no_fiber(monkeypatch):
    # Boundary mode reads each fiber's pairs off the bundle, whose one
    # labeling of the fibers gave them, and labels no fiber again.
    calls = []
    label = rasterize.label_components

    def spy_label(mask):
        calls.append(mask.shape)
        return label(mask)

    bundles = [build_zigzag(_scenario(key)) for key in
               ["split", "close", "annuli", "empty", "full"]
               + [f"random/{k}" for k in range(1000, 1020)]]
    monkeypatch.setattr(rasterize, "label_components", spy_label)
    for bundle in bundles:
        extract_boundary_data(bundle)
    assert calls == []


def test_oracle_rejects_bad_time_samples():
    for bad in (0, -1):
        with pytest.raises(KnobError):
            oracle_reachability(builtin_scenario("split"), time_samples=bad)


def _noise_stack():
    rng = np.random.default_rng(11)
    stack = rng.random((6, 12, 12)) < 0.5
    stack[2] = False
    stack[4] = stack[3]
    return stack


def _scenario_stack(key):
    s = _scenario(key)
    grid = grid_for_scenario(s)
    _, inside = domain_masks(s, grid)
    return inside[None] & ~coverage_masks(s, np.linspace(0.0, 1.0, 65), grid)


def _graph_stack(key, monkeypatch):
    """The stack a key names. 'oracle:<scenario>' is the oracle's first
    labeling chunk, 'cobordism:<scenario>' a cobordism cropped as
    components() crops it, and '<scenario>' 65 samples on the whole grid."""
    if key == "noise":
        return _noise_stack()
    kind, _, name = key.rpartition(":")
    if kind == "oracle":
        stacks = []
        chunk = analysis._oracle_chunk

        def spy(unc, *args):
            stacks.append(unc)
            return chunk(unc, *args)

        monkeypatch.setattr(analysis, "_oracle_chunk", spy)
        oracle_reachability(_scenario(name))
        return stacks[0]
    if kind == "cobordism":
        cob = build_zigzag(_scenario(name)).cobordisms[0]
        return cob.uncovered[(slice(None),) + bounding_box(cob.inside)]
    return _scenario_stack(name)


@pytest.mark.parametrize("key", ["noise", "split", "annuli", "empty", "full",
                                 "random/0", "interval/0", "circle1d",
                                 "oracle:random/0", "oracle:waypoint/0/5",
                                 "cobordism:random/0"])
def test_stack_graph_matches_per_slice_labels(key, monkeypatch):
    # Stack labels rely on scipy numbering components in raster order.
    # oracle:waypoint/0/5 is a generic-pool chunk whose slices lie far apart
    # in time, so many of its cells vary.
    unc = _graph_stack(key, monkeypatch)
    _check_per_slice(unc, rasterize.stack_graph(unc))


def _check_per_slice(unc, g):
    edges = set()
    for j, u in enumerate(unc):
        want, n = label_components(u)
        assert g.offsets[j + 1] - g.offsets[j] == n
        here = g.labels(j)
        got = np.where(here > 0, here - g.offsets[j], 0)
        assert np.array_equal(got, want)
        if j:
            both = unc[j - 1] & u
            edges |= {(int(a), int(b)) for a, b in
                      zip(g.labels(j - 1)[both], here[both])}
        leaving = g.src[g.cuts[j]:g.cuts[j + 1]]
        assert np.all((leaving > g.offsets[j]) & (leaving <= g.offsets[j + 1]))
    assert sorted(edges) == list(zip(g.src.tolist(), g.dst.tolist()))
    assert g.cuts[-1] == g.src.size


@st.composite
def _flipped_stacks(draw):
    """A base slice repeated, a few cells flipped, and perhaps an edge case:
    one slice cleared (an empty core), the first slice's complement appended
    (every cell varying), or every cell cleared."""
    shape = draw(st.sampled_from([(1,), (9,), (1, 7), (5, 6), (8, 8)]))
    count = draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = np.repeat((rng.random(shape) < density)[None], count, axis=0)
    for _ in range(draw(st.integers(0, 8))):
        stack[(rng.integers(count),) + tuple(rng.integers(0, n) for n in shape)] ^= True
    edge = draw(st.sampled_from(["none", "empty core", "all varying", "all false"]))
    if edge == "empty core":
        stack[rng.integers(count)] = False
    elif edge == "all varying":
        stack = np.concatenate((stack, ~stack[:1]))
    elif edge == "all false":
        stack[:] = False
    return stack


@settings(max_examples=300, deadline=None)
@given(_flipped_stacks())
def test_stack_graph_reads_match_label_slices(stack):
    # Every label read a consumer can make, dtypes included, on stacks with
    # one slice, an empty core, every cell varying, or no cell set.
    g = rasterize.stack_graph(stack)
    labels, _ = rasterize.label_slices(stack)
    cells = stack[0].size
    steps = np.repeat(np.arange(len(stack)), cells)
    for j, want in enumerate(labels):
        got = g.labels(j)
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)
        assert np.array_equal(g.firsts(j), rasterize.first_cells(want))
    got = g.labels_at(steps, np.tile(np.arange(cells), len(stack)))
    assert got.dtype == np.int32
    assert np.array_equal(got, labels.ravel())


def _cobordism_keys():
    return (["split", "close", "annuli", "empty", "full", "pulse", "pulse/interval",
             "circle1d"]
            + [f"random/{k}" for k in range(10)]
            + [f"interval/{k}" for k in range(10)])


@pytest.mark.parametrize("key", _cobordism_keys())
def test_cobordism_components_match_3d_labels(key):
    # The slice graph's components are the face-adjacency components of the
    # stack of every distinct slice.
    bundle = build_zigzag(_scenario(key))
    for cob, parts in zip(bundle.cobordisms, bundle.cobordism_parts):
        stack = _stack(cob, cob.kept)
        structure = ndimage.generate_binary_structure(stack.ndim, 1)
        want, n = ndimage.label(stack, structure=structure)
        assert parts.count == n
        assert np.array_equal(parts.ends[0], want[0])
        assert np.array_equal(parts.ends[-1], want[-1])


def _spans(s, grid):
    """The cobordism intervals build_zigzag would rasterize."""
    samples = interleave(detect_events(s, grid), s.time_base)
    spans = list(zip(samples, samples[1:]))
    if s.time_base == "circle":
        spans.append((samples[-1], samples[0] + TIME_SPAN[1] - TIME_SPAN[0]))
    return spans


def _stack(cob, kept):
    """A cobordism's uncovered stack at the time indices kept, whole grid,
    rasterized on its own."""
    s = cob.transitions.scenario
    return cob.inside[None] & ~coverage_masks(s, cob.times[kept], cob.grid)


def _uncertified(cob, kept):
    """The cobordism with every slice of kept (time indices) labeled and no
    transition certified, as before the certificate: cob.kept gives the
    full-stack reference, every time index the dense one."""
    tr = copy.copy(cob.transitions)
    tr.kept = tr.labeled = kept
    tr.certified = tr.gaps = np.zeros(kept.size - 1, dtype=bool)
    return dataclasses.replace(cob, transitions=tr, uncovered=_stack(cob, kept))


def _label_stack(g):
    """Every slice's labels of a stack graph, stacked."""
    return np.stack([g.labels(j) for j in range(len(g.table))])


def _expand(kept, size):
    """Per time sample, the distinct slice standing for it."""
    return np.searchsorted(kept, np.arange(size), side="right") - 1


def _check_against_full_stack(cob):
    """components and boundary_pairs of a cobordism equal those of its
    full-stack reference, field by field, and the components of every
    labeled slice are numbered as there."""
    full = _uncertified(cob, cob.kept)
    got, want = components(cob), components(full)
    assert got.count == want.count
    assert np.array_equal(got.ends[0], want.ends[0])
    assert np.array_equal(got.ends[-1], want.ends[-1])
    at = np.searchsorted(cob.kept, cob.labeled)
    assert np.array_equal(cob.uncovered, full.uncovered[at])
    for i, j in enumerate(at):
        assert np.array_equal(got.component[got.graph.labels(i)],
                              want.component[want.graph.labels(j)])
    got, want = boundary_pairs(cob, got), boundary_pairs(full, want)
    assert (got.count, got.pairs) == (want.count, want.pairs)
    assert np.array_equal(got.covered_labels, want.covered_labels)


_FULL_STACK_KEYS = (["split", "close", "annuli", "empty", "full"]
                    + [f"random/{k}" for k in range(100)]
                    + [f"waypoint/{k}/{n}" for k in range(4) for n in (3, 5)])


@pytest.mark.parametrize("key", _FULL_STACK_KEYS)
def test_cobordisms_match_full_stack_reference(key):
    # A generic waypoint scenario's events need not resolve, so its
    # cobordism spans a fixed interval.
    s = _scenario(key)
    grid = grid_for_scenario(s)
    spans = _spans(s, grid) if not key.startswith("waypoint") else [(0.25, 0.75)]
    for fine in (64, 128, 256):
        grid = grid_for_scenario(s, fine_time_samples=fine)
        for span in spans:
            _check_against_full_stack(rasterize_cobordism(s, span, grid))


def test_cobordism_of_a_moving_island_matches_full_stack_reference():
    # A sensor whose ball covers one cell center moves one cell west per
    # time sample: a one-cell covered island that moves one cell in each
    # step. In raster order its new cell is covered before its old one is
    # uncovered, so each step is two simple flips with a standing uncovered
    # neighbor, but the island's two cells share no covered cell, so no
    # step is certified, and each slice's island is a covered component of
    # its own.
    h = 2.0 / 24  # the cell size of a 32-cell grid over the unit disk
    s = validate_scenario(Scenario(
        dimension=2, center=(0.0, 0.0), radius=1.0, sensing_radius=0.3 * h,
        fence_width=0.12, time_base="interval",
        tracks=(SensorTrack(((0.0, (4.5 * h, 0.5 * h)), (1.0, (0.5 * h, 0.5 * h)))),)))
    grid = grid_for_scenario(s, cells=32, fine_time_samples=5)
    assert grid.cell_size == pytest.approx(h)
    cob = rasterize_cobordism(s, (0.0, 1.0), grid)
    assert cob.kept.size == 5
    flips = rasterize._box_flips(s, cob.times, grid)
    assert flips.flips[0].size == 8 and flips.simple().all()
    assert not cob.transitions.certified.any()
    _check_against_full_stack(cob)
    assert boundary_pairs(cob, components(cob)).count == 5


@pytest.mark.parametrize("key", ["split", "close", "annuli", "empty", "full", "pulse"]
                         + [f"random/{k}" for k in range(10)]
                         + [f"interval/{k}" for k in range(10)])
def test_distinct_cobordisms_match_dense_reference(key):
    # The dense reference stacks every time sample and labels each.
    s = _scenario(key)
    spans = _spans(s, grid_for_scenario(s))
    for fine in (16, 64):
        grid = grid_for_scenario(s, fine_time_samples=fine)
        for span in spans:
            cob = rasterize_cobordism(s, span, grid)
            n = cob.times.size
            dense = _uncertified(cob, np.arange(n))
            assert cob.kept[0] == 0 and cob.kept[-1] == n - 1
            assert np.array_equal(_stack(cob, cob.kept)[_expand(cob.kept, n)], dense.uncovered)
            for k in cob.kept[1:-1]:
                assert not np.array_equal(dense.uncovered[k], dense.uncovered[k - 1])
            got, want = components(cob), components(dense)
            assert got.count == want.count
            assert np.array_equal(got.ends[0], want.ends[0])
            assert np.array_equal(got.ends[-1], want.ends[-1])
            got = boundary_pairs(cob, components(cob))
            want = boundary_pairs(dense, components(dense))
            assert (got.count, got.pairs) == (want.count, want.pairs)
            g, w = got.covered_labels, want.covered_labels
            assert np.array_equal(g[0], w[0]) and np.array_equal(g[-1], w[-1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_distinct_slices_keep_graph_components_and_reach(data):
    shape = data.draw(st.sampled_from([(9,), (5, 6), (8, 8)]))
    count = data.draw(st.integers(1, 5))
    density = data.draw(st.sampled_from([0.3, 0.5, 0.7]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    slices = rng.random((count,) + shape) < density
    runs = data.draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
    stack = np.repeat(slices, runs, axis=0)
    n = stack.shape[0]
    flat = stack.reshape(n, -1)
    kept = np.flatnonzero(np.concatenate(([True], np.any(flat[1:] != flat[:-1], axis=1))))
    kept = np.union1d(kept, [n - 1])

    dense = rasterize.stack_graph(stack)
    distinct = rasterize.stack_graph(stack[kept])
    d_comp, d_count = rasterize._graph_components(dense)
    k_comp, k_count = rasterize._graph_components(distinct)
    assert k_count == d_count
    assert np.array_equal(k_comp[_label_stack(distinct)][_expand(kept, n)],
                          d_comp[_label_stack(dense)])

    def first_to_last(g):
        starts = int(g.offsets[1])
        return rasterize.sweep(g, range(1, starts + 1))[g.offsets[-2] + 1:]

    assert np.array_equal(first_to_last(distinct), first_to_last(dense))


def _reference_slice_path(labels, comp, start, goal):
    """The tuple-and-dict breadth-first search, stopping when the goal is popped."""
    if start == goal:
        return []
    shape = labels.shape
    ndim = labels.ndim
    parents = {start: start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            break
        for axis in range(ndim):
            for step in (-1, 1):
                nxt = list(cur)
                nxt[axis] += step
                if not 0 <= nxt[axis] < shape[axis]:
                    continue
                cell = tuple(nxt)
                if cell in parents or labels[cell] != comp:
                    continue
                parents[cell] = cur
                queue.append(cell)
    if goal not in parents:
        raise WitnessError("cells reported in one component are not connected")
    path = [goal]
    while path[-1] != start:
        path.append(parents[path[-1]])
    path.reverse()
    return path[1:]


def _path_outcome(fn, labels, comp, start, goal):
    try:
        return fn(labels, comp, start, goal)
    except WitnessError as exc:
        return str(exc)


_PATH_SHAPES = st.one_of(
    st.tuples(st.integers(1, 200)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_slice_path_matches_reference(data):
    # Goals are one cell, checked against the search that stops at it, or a
    # mask, checked against the search of the whole component; a mask may
    # be empty, or miss the component, and then the walk has no end.
    shape = data.draw(_PATH_SHAPES)
    density = data.draw(st.sampled_from([0.5, 0.7, 0.9, 0.97]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random(shape) < density
    cells = [tuple(int(v) for v in c) for c in np.argwhere(mask)]
    if not cells:
        return
    labels, _ = label_components(mask)
    start = data.draw(st.sampled_from(cells))
    comp = int(labels[start])
    kind = data.draw(st.sampled_from(["cell", "mask", "mask", "off"]))
    if kind == "cell":
        every = [tuple(int(v) for v in c) for c in np.ndindex(shape)]
        own = [c for c in cells if labels[c] == comp]
        goal = data.draw(st.one_of(st.just(start), st.sampled_from(own),
                                   st.sampled_from(own), st.sampled_from(every)))
        got = _path_outcome(analysis._slice_path, labels, comp, start, goal)
        assert got == _path_outcome(_reference_slice_path, labels, comp, start, goal)
        if goal == start:
            assert got == []
        elif labels[goal] != comp:
            assert isinstance(got, str)
        return
    goals = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.002, 0.002, 0.02, 0.2]))
    if kind == "off":
        goals &= labels != comp
    got = _path_outcome(analysis._slice_path, labels, comp, start, goals)
    if (goals & (labels == comp)).any():
        assert got == _reference_nearest_path(labels, comp, start, goals)
    else:
        assert isinstance(got, str)


def _reference_nearest_path(labels, comp, start, goals):
    """The tuple-and-dict breadth-first search over the whole component,
    then the path to the nearest goal cell, the first in raster order among
    those as near."""
    shape = labels.shape
    parents = {start: start}
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for axis in range(labels.ndim):
            for step in (-1, 1):
                nxt = list(cur)
                nxt[axis] += step
                cell = tuple(nxt)
                if not 0 <= nxt[axis] < shape[axis] or cell in parents or labels[cell] != comp:
                    continue
                parents[cell] = cur
                dist[cell] = dist[cur] + 1
                queue.append(cell)
    goal = min((dist[c], c) for c in dist if goals[c])[1]
    path = [goal]
    while path[-1] != start:
        path.append(parents[path[-1]])
    path.reverse()
    return path[1:]


def _reference_segment(data, start, target_label, target_cell):
    """The per-slice witness step over every time sample: per-slice labels
    and np.isin sweeps on a stack rasterized on its own."""
    cob = data.cob
    unc = _stack(cob, np.arange(cob.times.size))[(slice(None),) + data.box]
    labels = [label_components(u)[0] for u in unc]
    times = cob.times
    m = len(labels)

    reach: List[Set[int]] = [set() for _ in range(m)]
    reach[0] = {int(labels[0][start])}
    for j in range(m - 1):
        if not reach[j]:
            break
        mask = np.isin(labels[j], sorted(reach[j])) & unc[j + 1]
        reach[j + 1] = {int(v) for v in np.unique(labels[j + 1][mask]) if v}
    if target_label not in reach[m - 1]:
        return None

    back: List[Set[int]] = [set() for _ in range(m)]
    back[m - 1] = {target_label}
    for j in range(m - 2, -1, -1):
        mask = np.isin(labels[j + 1], sorted(back[j + 1])) & unc[j]
        back[j] = {int(v) for v in np.unique(labels[j][mask]) if v} & reach[j]
    if int(labels[0][start]) not in back[0]:
        return None

    path = [(float(times[0]), start)]
    cur = start
    for j in range(m - 1):
        comp = int(labels[j][cur])
        cand = (labels[j] == comp) & unc[j + 1] & np.isin(labels[j + 1], sorted(back[j + 1]))
        if not cand.any():
            return None
        if cand[cur]:
            nxt = cur
        else:
            walk = _reference_nearest_path(labels[j], comp, cur, cand)
            nxt = walk[-1]
            for cell in walk:
                path.append((float(times[j]), cell))
        path.append((float(times[j + 1]), nxt))
        cur = nxt
    if target_cell is not None and cur != target_cell:
        comp = int(labels[m - 1][cur])
        for cell in _reference_slice_path(labels[m - 1], comp, cur, target_cell):
            path.append((float(times[m - 1]), cell))
        cur = target_cell
    return path


def _witness_outcomes(bundle, elements, builder=None):
    if builder is None:
        builder = analysis._WitnessBuilder(bundle)
    out = []
    for element in elements:
        try:
            out.append(builder.extract(element).samples)
        except WitnessError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("key", ["split", "annuli", "random/0", "pulse", "circle1d"])
def test_refined_witnesses_match_whole_grid_search(key, monkeypatch):
    # With level 0 refused, every segment comes from a refined stack, which
    # the builder crops to its box; searching the whole grid finds the same
    # paths.
    s = _scenario(key)
    bundle = build_zigzag(s)
    elements = inverse_limit(bundle.diagram).elements
    assert elements
    segment = analysis._segment
    coarse = bundle.grid.fine_time_samples

    def refined_only(data, *args):
        return None if data.cob.times.size == coarse else segment(data, *args)

    monkeypatch.setattr(analysis, "_segment", refined_only)
    whole = analysis._WitnessBuilder(bundle)
    whole.box = (slice(None),) * bundle.grid.dimension
    got = _witness_outcomes(bundle, elements)
    assert got == _witness_outcomes(bundle, elements, whole)
    for samples, element in zip(got, elements):
        assert not isinstance(samples, str)
        assert verify_witness(s, Witness(tuple(element), samples))


def _check_witnesses_against_reference(key, monkeypatch, refined):
    bundle = build_zigzag(_scenario(key))
    elements = inverse_limit(bundle.diagram).elements
    assert elements
    coarse = bundle.grid.fine_time_samples

    def searched(segment):
        if not refined:
            return segment
        return lambda data, *args: (None if data.cob.times.size == coarse
                                    else segment(data, *args))

    monkeypatch.setattr(analysis, "_segment", searched(analysis._segment))
    got = _witness_outcomes(bundle, elements)
    monkeypatch.setattr(analysis, "_segment", searched(_reference_segment))
    assert got == _witness_outcomes(bundle, elements)


@pytest.mark.parametrize("key", ["split", "annuli"] + [f"random/{k}" for k in range(5)])
def test_witnesses_match_per_slice_reference(key, monkeypatch):
    _check_witnesses_against_reference(key, monkeypatch, refined=False)


@pytest.mark.parametrize("key", ["split", "annuli", "pulse/interval"]
                         + [f"random/{k}" for k in range(5)])
def test_refined_witnesses_match_per_slice_reference(key, monkeypatch):
    # With level 0 refused, every segment comes from a refined stack. Those
    # repeat more slices, so a path moves after a run of repeats there,
    # which level 0 of these scenarios never does.
    _check_witnesses_against_reference(key, monkeypatch, refined=True)


def _reference_point_uncovered(s, t, point, eta=0.0):
    p = np.asarray(point, dtype=float)
    center = np.asarray(s.center, dtype=float)
    dist_center = float(np.sqrt(np.sum((p - center) ** 2)))
    if not dist_center < s.radius - s.fence_width:
        return False
    if not s.tracks:
        return True
    pos = positions_at(s, [t])[:, 0, :]
    d2 = np.sum((pos - p[None, :]) ** 2, axis=1)
    r = max(s.sensing_radius - eta, 0.0)
    return bool(np.all(d2 > r * r))


def _reference_verify(s, w, eta=0.0):
    """The per-point loop: one track evaluation per checked point."""
    prev = None
    for t, p in w.samples:
        if prev is not None:
            pt, pp = prev
            if t < pt:
                return False
            if pp == p and t > pt:
                if not _reference_point_uncovered(s, 0.5 * (pt + t), p, eta):
                    return False
        if not _reference_point_uncovered(s, t, p, eta):
            return False
        prev = (t, p)
    return True


def test_verify_witness_matches_per_point_reference(direct_reports, monkeypatch):
    cases = []
    for name in ("split", "annuli", "empty"):
        s = builtin_scenario(name)
        for w in direct_reports[name].witnesses:
            cases.append((s, w, True))
    line = _merge_scenario()
    for w in analyze_direct(line).witnesses:
        cases.append((line, w, True))
    split = builtin_scenario("split")
    w = direct_reports["split"].witnesses[0]
    k = len(w.samples) // 2
    covered = w.samples[:k] + ((w.samples[k][0], (0.45, 0.0)),) + w.samples[k + 1:]
    cases.append((split, Witness(w.element, covered), False))
    cases.append((split, Witness(w.element, tuple(reversed(w.samples))), False))
    parked = ((0.0, (0.0, 0.03)), (1.0, (0.0, 0.03)))
    cases.append((builtin_scenario("close"), Witness((1, 1), parked), False))
    cases.append((split, Witness((), ()), True))

    calls = []

    def counted(s, times):
        calls.append(len(times))
        return positions_at(s, times)

    monkeypatch.setattr(analysis, "positions_at", counted)
    for s, w, want in cases:
        for eta in (0.0, 0.01):
            calls.clear()
            assert verify_witness(s, w, eta) == _reference_verify(s, w, eta)
            assert len(calls) <= 1
        assert verify_witness(s, w) == want
