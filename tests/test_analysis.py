import math
import os
import subprocess
import sys
from collections import deque
from typing import Dict, List, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from evasion_kit import analysis, rasterize
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
from evasion_kit.rasterize import (
    components,
    coverage_masks,
    domain_masks,
    grid_for_scenario,
    label_components,
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
    two-slice band, and one np.isin sweep per start component."""
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

    class_count = None
    if s.dimension == 1:
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
)


@pytest.mark.parametrize("key,time_samples", _ORACLE_CASES)
def test_oracle_matches_per_slice_reference(key, time_samples):
    # A '+edge' key has no grid margin: the disk touches the grid border.
    name, edge, _ = key.partition("+edge")
    s = _scenario(name)
    grid = grid_for_scenario(s, margin_cells=0) if edge else None
    got = oracle_reachability(s, grid, time_samples=time_samples)
    assert got == _reference_oracle(s, time_samples, grid)


def test_oracle_circle_d1_counts_classes():
    res = oracle_reachability(_circle_d1())
    assert res.exists
    assert res.class_count is not None and res.class_count > 0


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


@pytest.mark.parametrize("key", ["noise", "split", "annuli", "empty", "full",
                                 "random/0", "interval/0", "circle1d"])
def test_stack_graph_matches_per_slice_labels(key):
    # Stack labels rely on scipy numbering components in raster order.
    unc = _noise_stack() if key == "noise" else _scenario_stack(key)
    g = rasterize.stack_graph(unc)
    edges = set()
    for j, u in enumerate(unc):
        want, n = label_components(u)
        assert g.offsets[j + 1] - g.offsets[j] == n
        got = np.where(g.labels[j] > 0, g.labels[j] - g.offsets[j], 0)
        assert np.array_equal(got, want)
        if j:
            both = unc[j - 1] & u
            edges |= {(int(a), int(b)) for a, b in
                      zip(g.labels[j - 1][both], g.labels[j][both])}
        leaving = g.src[g.cuts[j]:g.cuts[j + 1]]
        assert np.all((leaving > g.offsets[j]) & (leaving <= g.offsets[j + 1]))
    assert sorted(edges) == list(zip(g.src.tolist(), g.dst.tolist()))
    assert g.cuts[-1] == g.src.size


def _cobordism_keys():
    return (["split", "close", "annuli", "empty", "full", "pulse", "pulse/interval",
             "circle1d"]
            + [f"random/{k}" for k in range(10)]
            + [f"interval/{k}" for k in range(10)])


@pytest.mark.parametrize("key", _cobordism_keys())
def test_cobordism_components_match_3d_labels(key):
    # The slice graph's components are the stack's face-adjacency components.
    bundle = build_zigzag(_scenario(key))
    for cob, parts in zip(bundle.cobordisms, bundle.cobordism_parts):
        structure = ndimage.generate_binary_structure(cob.uncovered.ndim, 1)
        covered = cob.inside & ~cob.uncovered
        for mask, got in ((cob.uncovered, parts), (covered, components(cob, "covered"))):
            want, n = ndimage.label(mask, structure=structure)
            assert got.count == n
            assert np.array_equal(got.ends[0], want[0])
            assert np.array_equal(got.ends[-1], want[-1])


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
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 14), st.integers(1, 14)),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_slice_path_matches_reference(data):
    shape = data.draw(_PATH_SHAPES)
    density = data.draw(st.sampled_from([0.5, 0.7, 0.9]))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    mask = np.random.default_rng(seed).random(shape) < density
    cells = [tuple(int(v) for v in c) for c in np.argwhere(mask)]
    if not cells:
        return
    labels, _ = label_components(mask)
    start = data.draw(st.sampled_from(cells))
    comp = int(labels[start])
    every = [tuple(int(v) for v in c) for c in np.ndindex(shape)]
    goal = data.draw(st.one_of(st.just(start), st.sampled_from(cells), st.sampled_from(every)))
    got = _path_outcome(analysis._slice_path, labels, comp, start, goal)
    assert got == _path_outcome(_reference_slice_path, labels, comp, start, goal)
    if goal == start:
        assert got == []
    elif labels[goal] != comp:
        assert isinstance(got, str)


def _reference_segment(data, start, target_label, target_cell):
    """The per-slice witness step: per-slice labels and np.isin sweeps."""
    unc = data.graph.labels != 0
    labels = [label_components(u)[0] for u in unc]
    times = data.times
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
            flat = int(np.flatnonzero(cand.ravel())[0])
            nxt = tuple(int(v) for v in np.unravel_index(flat, cand.shape))
            for cell in _reference_slice_path(labels[j], comp, cur, nxt):
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
        return None if data.times.size == coarse else segment(data, *args)

    monkeypatch.setattr(analysis, "_segment", refined_only)
    whole = analysis._WitnessBuilder(bundle)
    whole.box = (slice(None),) * bundle.grid.dimension
    got = _witness_outcomes(bundle, elements)
    assert got == _witness_outcomes(bundle, elements, whole)
    for samples, element in zip(got, elements):
        assert not isinstance(samples, str)
        assert verify_witness(s, Witness(tuple(element), samples))


@pytest.mark.parametrize("key", ["split", "annuli"] + [f"random/{k}" for k in range(5)])
def test_witnesses_match_per_slice_reference(key, monkeypatch):
    bundle = build_zigzag(_scenario(key))
    elements = inverse_limit(bundle.diagram).elements
    assert elements
    got = _witness_outcomes(bundle, elements)
    monkeypatch.setattr(analysis, "_segment", _reference_segment)
    assert got == _witness_outcomes(bundle, elements)


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
