import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from evasion_kit.errors import KnobError, ResolutionError, SimultaneousEventsError
from evasion_kit.limit import inverse_limit
from evasion_kit.scenario import (
    Scenario,
    SensorTrack,
    builtin_scenario,
    random_interval_scenario,
    validate_scenario,
)
from evasion_kit import zigzag
from evasion_kit.zigzag import (
    _ONE_ARC,
    _RING,
    Event,
    _pair_counts,
    _per_slice,
    _rim,
    _signatures,
    _simple_steps,
    _stack_signatures,
    build_zigzag,
    detect_events,
    fiber_signature,
    interleave,
)
from evasion_kit.rasterize import (
    BoxCoverage,
    bounding_box,
    components,
    count_holes,
    coverage_masks,
    domain_masks,
    grid_for_scenario,
    label_slices,
    rasterize_cobordism,
    rasterize_fiber,
    rasterize_fibers,
)


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
    # a slider seals the gap ahead of it; the covered bodies on both sides
    # fuse, so the boundary pair count drops by two in one event
    mover = SensorTrack(((0.0, (0.05,)), (0.3, (0.05,)),
                         (0.8, (-0.16,)), (1.0, (-0.16,))))
    return _d1([_static1(-0.45), _static1(0.44), mover])


@pytest.fixture(scope="module")
def builtin_events():
    out = {}
    for name in ("split", "close", "annuli", "empty", "full"):
        s = builtin_scenario(name)
        out[name] = (s, detect_events(s))
    return out


def test_event_accessors():
    e = Event(window=(0.4, 0.40008), locus=(3, 5), type_x="D",
              before=(1, 0, 1), after=(2, 0, 2))
    assert e.time == pytest.approx(0.40004)
    assert e.type_c == "N"
    assert Event(window=(0.1, 0.1001), locus=(0,), type_x="N",
                 before=(1, 0, 1), after=(2, 0, 2)).type_c == "D"


def test_fiber_signature_values():
    s = builtin_scenario("annuli")
    f = rasterize_fiber(s, 0.0, grid_for_scenario(s))
    assert fiber_signature(f) == (1, 2, 3)


def _slice_signature(f):
    """The signature read off one fiber with the per-slice primitives."""
    return (components(f, "uncovered").count, count_holes(f.uncovered),
            components(f, "covered_boundary").count)


_SCAN_CASES = ([(name, 0) for name in ("split", "annuli", "empty", "full")]
               + [("random", seed) for seed in range(3)]
               + [("interval", seed) for seed in range(3)])


def _scan_scenario(name, seed):
    if name == "interval":
        return random_interval_scenario(seed)
    return builtin_scenario(name, seed)


@pytest.mark.parametrize("name,seed", _SCAN_CASES)
def test_stack_signatures_match_per_slice(name, seed):
    s = _scan_scenario(name, seed)
    grid = grid_for_scenario(s)
    times = np.linspace(0.0, 1.0, 513)
    expected = [_slice_signature(f) for f in rasterize_fibers(s, times, grid)]
    assert _signatures(s, times, grid) == expected


@pytest.mark.parametrize("name,seed", [("split", 0), ("random", 1), ("interval", 1)])
def test_stack_signatures_match_per_slice_without_margin(name, seed):
    # The disk touches the grid border, so its bounding box is the whole grid.
    s = _scan_scenario(name, seed)
    grid = grid_for_scenario(s, cells=96, margin_cells=0)
    disk, _ = domain_masks(s, grid)
    assert disk[0].any() and disk[-1].any() and disk[..., 0].any()
    times = np.linspace(0.0, 1.0, 129)
    expected = [_slice_signature(f) for f in rasterize_fibers(s, times, grid)]
    assert _signatures(s, times, grid) == expected


def _reference_pair_counts(uncovered, u_lab, u_tops, v_lab, covered):
    """The former contact count: boolean gathers on strided views, per direction."""
    stride = np.int64(v_lab.max()) + 1
    keys = []
    ndim = uncovered.ndim
    for axis in range(1, ndim):
        lead = [slice(None)] * ndim
        trail = [slice(None)] * ndim
        lead[axis] = slice(1, None)
        trail[axis] = slice(None, -1)
        for src, dst in ((tuple(trail), tuple(lead)), (tuple(lead), tuple(trail))):
            keep = uncovered[src] & covered[dst]
            keys.append(u_lab[src][keep].astype(np.int64) * stride + v_lab[dst][keep])
    labels = np.unique(np.concatenate(keys)) // stride
    return np.bincount(np.searchsorted(u_tops, labels), minlength=u_tops.size)


_PAIR_CASES = ([(name, 0, 4) for name in ("split", "close", "annuli", "empty", "full")]
               + [("random", seed, 4) for seed in range(5)]
               + [("interval", 1, 4), ("split", 0, 0), ("random", 1, 0), ("interval", 1, 0)])


@pytest.mark.parametrize("name,seed,margin", _PAIR_CASES)
def test_pair_counts_match_reference(name, seed, margin):
    s = _scan_scenario(name, seed)
    grid = grid_for_scenario(s, cells=96, fine_time_samples=16, margin_cells=margin)
    disk, inside = domain_masks(s, grid)
    fibers = inside & ~coverage_masks(s, np.linspace(0.0, 1.0, 33), grid)
    cobordism = rasterize_cobordism(s, (0.2, 0.6), grid).uncovered
    for unc in (fibers, cobordism):
        u_lab, u_tops = label_slices(unc)
        v_lab, v_tops = label_slices(disk & ~unc)
        covered = disk & ~unc & inside
        want = _reference_pair_counts(unc, u_lab, u_tops, v_lab, covered)
        got = _pair_counts(unc, u_lab, u_tops, v_lab, v_tops, covered)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name,seed", [("annuli", 0), ("interval", 1)])
def test_stack_signatures_single_slice_and_unchanged_stack(name, seed):
    s = _scan_scenario(name, seed)
    grid = grid_for_scenario(s)
    for t in (0.0, 0.3, 0.77):
        f = rasterize_fiber(s, t, grid)
        expected = _slice_signature(f)
        assert _signatures(s, [t], grid) == [expected]
        assert fiber_signature(f) == expected
        repeated = np.repeat(f.uncovered[None], 4, axis=0)
        assert _stack_signatures(repeated, f.disk, f.inside) == [expected] * 4


def _reference_stack_signatures(uncovered, disk, inside):
    """_stack_signatures as it was before the simple-flip certificate.

    Every slice that differs from its predecessor is labeled.
    """
    n = uncovered.shape[0]
    changed = np.ones(n, dtype=bool)
    if n > 1:
        flat = uncovered.reshape(n, -1)
        changed[1:] = np.any(flat[1:] != flat[:-1], axis=1)
    distinct = uncovered[changed]
    u_lab, u_tops = label_slices(distinct)
    covered_with_collar = disk & ~distinct
    v_lab, v_tops = label_slices(covered_with_collar)
    pi0 = np.diff(u_tops, prepend=0)
    if uncovered.ndim == 3:
        outer = np.unique(v_lab[:, _rim(disk)])
        b1 = np.diff(v_tops, prepend=0) - _per_slice(v_tops, outer[outer != 0])
    else:
        b1 = np.zeros_like(pi0)
    pb = _pair_counts(distinct, u_lab, u_tops, v_lab, v_tops,
                      covered_with_collar & inside)
    sigs = [(int(a), int(b), int(c)) for a, b, c in zip(pi0, b1, pb)]
    return [sigs[i] for i in np.cumsum(changed) - 1]


def _certified_signatures(uncovered, disk, inside):
    """_signatures' certificate run on a dense stack (T, *shape).

    The flips are the nonzero cells of the stack's step diff, and the ring
    cells are read off the stack itself.
    """
    n = uncovered.shape[0]
    flips = np.nonzero(uncovered[1:] != uncovered[:-1])

    def read(slices, cells):
        return uncovered[(slices,) + tuple(cells)]

    labeled = np.concatenate(([True], ~_simple_steps(flips, read, disk, inside, n - 1)))
    sigs = _stack_signatures(uncovered[labeled], disk, inside)
    return [sigs[i] for i in np.cumsum(labeled) - 1]


def test_arc_table_matches_ring_connectivity():
    # A pattern passes when its set face cells are connected through the set
    # ring cells, judged by labeling the 3x3 block with its center removed.
    four = ndimage.generate_binary_structure(2, 1)
    faces = [(dy + 1, dx + 1) for dy, dx, _ in _RING[1::2]]
    for pattern in range(256):
        block = np.zeros((3, 3), dtype=bool)
        for bit, (dy, dx, _) in enumerate(_RING):
            block[dy + 1, dx + 1] = bool(pattern >> bit & 1)
        labels, _ = ndimage.label(block, structure=four)
        face_labels = {int(labels[c]) for c in faces if block[c]}
        assert _ONE_ARC[pattern] == (len(face_labels) == 1), pattern


def _picture_stack(*pictures):
    """(uncovered, disk, inside) from one picture per slice.

    ' ' is off the disk, 'c' a collar cell, '#' a covered cell inside the
    fence and '.' an uncovered one; every slice shares the disk and fence.
    """
    grids = [np.array([list(row) for row in p.strip("\n").split("\n")])
             for p in pictures]
    if grids[0].shape[0] == 1:
        grids = [g[0] for g in grids]
    disk = grids[0] != " "
    inside = disk & (grids[0] != "c")
    return np.stack([g == "." for g in grids]), disk, inside


# Two-slice stacks whose one step changes the signature although all but
# one of its flips, or its one flip, passes part of the simple-point test.
_NOT_SIMPLE = {
    # Two flips cut a neck two cells wide. The first is simple; the second
    # is not, but only when its W neighbor is read from the later slice.
    "neck2": ("""
#######
#.....#
#.....#
###..##
#.....#
#.....#
#######
""", """
#######
#.....#
#.....#
#######
#.....#
#.....#
#######
"""),
    # One flip cuts a neck one cell wide: two uncovered arcs, and two
    # covered ones.
    "neck1": ("""
#######
#.....#
###.###
#.....#
#######
""", """
#######
#.....#
#######
#.....#
#######
"""),
    # One flip cuts a bend at a notch in the disk: the notch and a covered
    # body separate two uncovered arcs, while the covered cells form one.
    "notch": ("""
#######
###.###
###. ##
###...#
#######
""", """
#######
###.###
###. ##
####..#
#######
"""),
    # The flipped cell passes (b), (c) and (d), but it is a rim cell at the
    # foot of a notch in the disk, and the covered body it leaves reaches
    # the rim only through it, so the body becomes a hole.
    "rim": ("""
.... ....
.... ....
.... ....
.... ....
....##...
.....#...
.........
""", """
.... ....
.... ....
.... ....
.... ....
.....#...
.....#...
.........
"""),
    # The flipped cell's only covered neighbor is a collar cell, so its
    # contact with the left covered body is new.
    "collar": ("""
c....####c
""", """
c#...####c
"""),
    # An uncovered cell with uncovered cells on both sides is covered.
    "split1d": ("""
c......##c
""", """
c...#..##c
"""),
}


@pytest.mark.parametrize("case", sorted(_NOT_SIMPLE))
def test_certificate_labels_signature_changes(case):
    stack, disk, inside = _picture_stack(*_NOT_SIMPLE[case])
    want = _reference_stack_signatures(stack, disk, inside)
    assert want[0] != want[1]
    assert _certified_signatures(stack, disk, inside) == want


@st.composite
def _domains(draw):
    """A random disk of one or two dimensions, cropped to its bounding box
    (no margin), and its fence: the disk eroded by a collar of 0-2 cells."""
    dim = draw(st.sampled_from((1, 2)))
    size = draw(st.integers(6, 20))
    axes = np.ogrid[tuple(slice(0, size) for _ in range(dim))]
    disk = np.zeros((size,) * dim, dtype=bool)
    for _ in range(draw(st.integers(1, 3))):
        c = [draw(st.floats(0, size - 1)) for _ in range(dim)]
        r = draw(st.floats(1.0, size / 2))
        disk |= sum((a - x) ** 2 for a, x in zip(axes, c)) <= r * r
    disk = disk[bounding_box(disk)]
    collar = draw(st.integers(0, 2))
    inside = disk
    if collar:
        four = ndimage.generate_binary_structure(dim, 1)
        inside = ndimage.binary_erosion(disk, four, iterations=collar)
    return disk, inside


@st.composite
def _moving_ball_stacks(draw):
    disk, inside = draw(_domains())
    steps = draw(st.integers(2, 30))
    axes = np.ogrid[tuple(slice(0, n) for n in disk.shape)]
    covered = np.zeros((steps,) + disk.shape, dtype=bool)
    for _ in range(draw(st.integers(1, 4))):
        start = [draw(st.floats(-2, n + 1)) for n in disk.shape]
        speed = [draw(st.floats(-1.0, 1.0)) for _ in disk.shape]
        r = draw(st.floats(0.5, 4.0))
        for k in range(steps):
            d2 = sum((a - (x + v * k)) ** 2 for a, x, v in zip(axes, start, speed))
            covered[k] |= d2 <= r * r
    return inside & ~covered, disk, inside


@settings(max_examples=300, deadline=None)
@given(_moving_ball_stacks())
def test_stack_signatures_match_reference_on_moving_balls(stack):
    uncovered, disk, inside = stack
    assert (_certified_signatures(uncovered, disk, inside)
            == _reference_stack_signatures(uncovered, disk, inside))


def test_scan_labels_few_slices(monkeypatch):
    # Between critical values every flip is simple, so the 513-slice scan
    # labels only its first slice and the few where the topology changes.
    sizes = []
    label = zigzag.label_slices

    def spy(mask):
        sizes.append(mask.shape[0])
        return label(mask)

    monkeypatch.setattr(zigzag, "label_slices", spy)
    s = builtin_scenario("random", 1000)
    grid = grid_for_scenario(s)
    sigs = _signatures(s, np.linspace(0.0, 1.0, 513), grid)
    assert len(sigs) == 513
    assert sizes and max(sizes) < 10


@st.composite
def _scan_inputs(draw):
    """A scenario, a grid and a scan length for the window-bounded scan.

    Tracks may reach past the disk, so a ball can leave the disk's box; the
    scenario is not validated, since coverage is defined for any position.
    One moving track may jump, crossing many cells in one scan step.
    """
    dim = draw(st.sampled_from((1, 2)))
    cells = draw(st.integers(24, 64))
    margin = draw(st.integers(0, 4))
    h = 2.0 / (cells - 2 * margin)
    collar = draw(st.integers(0, 2))
    base = draw(st.sampled_from(("interval", "circle")))

    def point(limit):
        return tuple(draw(st.floats(-limit, limit)) for _ in range(dim))

    def track(moving, jump=False):
        if not moving:
            p = point(1.0)
            return SensorTrack(((0.0, p), (1.0, p)))
        times = sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=3))))
        if jump:
            t = draw(st.floats(0.02, 0.97))
            times = sorted(set(times) | {t, t + 1e-3})
        points = [point(1.4) for _ in range(len(times) + 2)]
        if base == "circle":
            points[-1] = points[0]
        return SensorTrack(tuple(zip([0.0] + times + [1.0], points)))

    moving = draw(st.integers(1, 3))
    jump = draw(st.booleans())
    tracks = [track(False) for _ in range(draw(st.integers(0, 4)))]
    tracks += [track(True, jump and j == 0) for j in range(moving)]
    s = Scenario(
        dimension=dim,
        center=(0.0,) * dim,
        radius=1.0,
        sensing_radius=draw(st.floats(0.08, 0.35)),
        fence_width=(collar + draw(st.floats(0.05, 0.95))) * h,
        time_base=base,
        tracks=tuple(draw(st.permutations(tracks))),
    )
    grid = grid_for_scenario(s, cells=cells, margin_cells=margin)
    return s, grid, np.linspace(0.0, 1.0, draw(st.integers(2, 600)))


def _check_scan_against_dense_stack(s, grid, times):
    """The flips found from the moving windows are the nonzero cells of the
    dense step diff, and the signatures those of labeling every slice."""
    disk, inside = domain_masks(s, grid)
    box = bounding_box(disk)
    disk, inside = disk[box], inside[box]
    stack = inside & ~coverage_masks(s, times, grid, box)
    want = np.nonzero(stack[1:] != stack[:-1])
    got = BoxCoverage(s, times, grid, box).flips(inside)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert _signatures(s, times, grid) == _reference_stack_signatures(stack, disk, inside)
    return got


@settings(max_examples=200, deadline=None)
@given(_scan_inputs())
def test_window_bounded_scan_matches_dense_stack(inputs):
    _check_scan_against_dense_stack(*inputs)


def test_window_bounded_scan_at_the_box_edge():
    # Without margin or collar, the cells on the box edge lie inside the
    # fence. Balls sliding along both edges of each axis cover them, where
    # each window is clipped to the box.
    movers = [((0.95, -0.5), (0.95, 0.5)), ((-0.95, 0.5), (-0.95, -0.5)),
              ((-0.5, 0.95), (0.5, 0.95)), ((0.5, -0.95), (-0.5, -0.95))]
    s = Scenario(dimension=2, center=(0.0, 0.0), radius=1.0, sensing_radius=0.16,
                 fence_width=0.005, time_base="interval",
                 tracks=tuple(SensorTrack(((0.0, a), (1.0, b))) for a, b in movers))
    grid = grid_for_scenario(s, cells=48, margin_cells=0)
    step, y, x = _check_scan_against_dense_stack(s, grid, np.linspace(0.0, 1.0, 65))
    for edge in (y, x):
        assert (edge == 0).any() and (edge == 47).any()


def test_scan_rasterizes_few_slices(monkeypatch):
    # The scan finds its flips from the moving windows, so it hands
    # coverage_masks only the slices it labels.
    sizes = []
    cover = zigzag.coverage_masks

    def spy(s, times, grid, box=None):
        sizes.append(len(times))
        return cover(s, times, grid, box)

    monkeypatch.setattr(zigzag, "coverage_masks", spy)
    s = builtin_scenario("random", 1000)
    sigs = _signatures(s, np.linspace(0.0, 1.0, 513), grid_for_scenario(s))
    assert len(sigs) == 513
    assert sizes and max(sizes) < 10


def test_builtin_split_events(builtin_events):
    _, events = builtin_events["split"]
    assert len(events) == 1
    e = events[0]
    assert e.type_x == "D"
    assert e.time == pytest.approx(0.7394, abs=2e-3)
    assert e.window[1] - e.window[0] <= 1e-4
    assert e.before == (1, 0, 1)
    assert e.after == (2, 0, 2)


def test_builtin_close_events(builtin_events):
    _, events = builtin_events["close"]
    assert [e.type_x for e in events] == ["D", "N"]
    assert events[0].time == pytest.approx(0.265, abs=2e-3)
    assert events[1].time == pytest.approx(0.735, abs=2e-3)
    assert events[0].before == (1, 0, 1)
    assert events[0].after == (0, 0, 0)
    assert events[1].after == (1, 0, 1)


def test_builtin_annuli_events(builtin_events):
    _, events = builtin_events["annuli"]
    assert len(events) == 1
    e = events[0]
    assert e.type_x == "D"
    assert e.time == pytest.approx(0.3457, abs=2e-3)
    assert e.before == (1, 2, 3)
    assert e.after == (2, 2, 4)


def test_static_scenarios_have_no_events(builtin_events):
    assert builtin_events["empty"][1] == ()
    assert builtin_events["full"][1] == ()


def test_event_locus_flips_as_typed(builtin_events):
    s, events = builtin_events["split"]
    grid = grid_for_scenario(s)
    e = events[0]
    before = rasterize_fiber(s, e.window[0], grid)
    after = rasterize_fiber(s, e.window[1], grid)
    assert before.uncovered[e.locus]
    assert not after.uncovered[e.locus]


def test_scan_samples_validation():
    with pytest.raises(ValueError):
        detect_events(builtin_scenario("empty"), scan_samples=1)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tol_validation(tol):
    with pytest.raises(KnobError):
        detect_events(builtin_scenario("empty"), tol=tol)


def test_d1_merge_classifies_pair_fusion():
    s = _merge_scenario()
    events = detect_events(s)
    assert len(events) == 1
    e = events[0]
    assert e.type_x == "D"
    assert e.time == pytest.approx(0.6928, abs=2e-3)
    assert e.before == (4, 0, 6)
    assert e.after == (3, 0, 4)


def test_mirrored_seals_raise_simultaneous():
    # exactly mirror-image movers seal two gaps at the same instant
    movers = [
        SensorTrack(((0.0, (0.08,)), (1.0, (0.14,)))),
        SensorTrack(((0.0, (-0.08,)), (1.0, (-0.14,)))),
    ]
    s = _d1([_static1(-0.45), _static1(0.45)] + movers)
    with pytest.raises(SimultaneousEventsError):
        detect_events(s)


# ---------------------------------------------------------------------------
# interleave
# ---------------------------------------------------------------------------


def _ev(a, b):
    return Event(window=(a, b), locus=(0,), type_x="D",
                 before=(1, 0, 1), after=(0, 0, 0))


def test_interleave_interval():
    assert interleave([], "interval") == (0.0, 1.0)
    assert interleave([_ev(0.3, 0.3001)], "interval") == (0.0, 1.0)
    got = interleave([_ev(0.2, 0.2001), _ev(0.6, 0.6001)], "interval")
    assert got == (0.0, pytest.approx(0.40005), 1.0)


def test_interleave_rejects_endpoint_contact():
    with pytest.raises(ResolutionError):
        interleave([_ev(0.0, 0.0001)], "interval")
    with pytest.raises(ResolutionError):
        interleave([_ev(0.9999, 1.0)], "interval")


def test_interleave_rejects_overlap():
    with pytest.raises(SimultaneousEventsError):
        interleave([_ev(0.2, 0.3), _ev(0.25, 0.4)], "interval")


def test_interleave_circle():
    assert interleave([], "circle") == (0.0,)
    # one event: only the wrap gap, sampled half a span away
    got = interleave([_ev(0.3, 0.3001)], "circle")
    assert len(got) == 1
    assert got[0] == pytest.approx(0.80005)
    got = interleave([_ev(0.1, 0.1001), _ev(0.9, 0.9001)], "circle")
    assert len(got) == 2
    # the wrap-around gap midpoint lands just past the span start
    assert got[0] == pytest.approx(0.0, abs=1e-3)
    assert got[1] == pytest.approx(0.50005)
    with pytest.raises(ValueError):
        interleave([], "spiral")


# ---------------------------------------------------------------------------
# diagram assembly
# ---------------------------------------------------------------------------


def test_build_zigzag_split_structure(builtin_events):
    s, events = builtin_events["split"]
    bundle = build_zigzag(s, events=events)
    assert bundle.samples == (0.0, 1.0)
    assert bundle.diagram.shape == "interval"
    assert bundle.diagram.fiber_sets == ((1,), (1, 2))
    assert bundle.diagram.cobordism_sets == ((1,),)
    assert bundle.diagram.left_maps == ({1: 1},)
    assert bundle.diagram.right_maps == ({1: 1, 2: 1},)
    assert bundle.cobordism_events == (events,)
    assert inverse_limit(bundle.diagram).cardinality == 2


def test_build_zigzag_close_structure(builtin_events):
    s, events = builtin_events["close"]
    bundle = build_zigzag(s, events=events)
    assert len(bundle.samples) == 3
    assert bundle.samples[1] == pytest.approx(0.5, abs=2e-3)
    assert bundle.diagram.fiber_sets == ((1,), (), (1,))
    assert inverse_limit(bundle.diagram).cardinality == 0


def test_build_zigzag_other_regions(builtin_events):
    s, events = builtin_events["split"]
    boundary = build_zigzag(s, events=events, region="covered_boundary")
    assert boundary.diagram.fiber_sets == ((1,), (1, 2))
    covered = build_zigzag(s, events=events, region="covered")
    assert covered.diagram.fiber_sets[0] == (1,)
    with pytest.raises(ValueError):
        build_zigzag(s, events=events, region="nonesuch")


def test_build_zigzag_rejects_missed_event(builtin_events):
    # claiming the span is event-free contradicts the non-bijective tracking
    s, _ = builtin_events["split"]
    with pytest.raises(ResolutionError):
        build_zigzag(s, events=(), samples=(0.0, 1.0))


def test_build_zigzag_rejects_crowded_span(builtin_events):
    s, events = builtin_events["close"]
    with pytest.raises(SimultaneousEventsError):
        build_zigzag(s, events=events, samples=(0.0, 0.9, 1.0))


def test_build_zigzag_rejects_sample_on_event(builtin_events):
    s, events = builtin_events["close"]
    with pytest.raises(ResolutionError):
        build_zigzag(s, events=events, samples=(0.0, events[0].time, 1.0))


def test_build_zigzag_sample_count_check(builtin_events):
    s, events = builtin_events["close"]
    with pytest.raises(ValueError):
        build_zigzag(s, events=events, samples=(0.0, 1.0))


# ---------------------------------------------------------------------------
# circle time base
# ---------------------------------------------------------------------------


def _ring(n, radius):
    return [(radius * math.cos(2.0 * math.pi * k / n),
             radius * math.sin(2.0 * math.pi * k / n)) for k in range(n)]


def _pulse_scenario(time_base):
    tracks = [SensorTrack(((0.0, p), (1.0, p))) for p in _ring(12, 0.45)]
    tracks += [SensorTrack(((0.0, p), (1.0, p))) for p in _ring(16, 0.75)]
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


def test_circle_pulse_events_and_samples():
    s = _pulse_scenario("circle")
    events = detect_events(s)
    assert [e.type_x for e in events] == ["N", "D"]
    assert events[0].time == pytest.approx(0.117, abs=2e-3)
    assert events[1].time == pytest.approx(0.883, abs=2e-3)
    bundle = build_zigzag(s, events=events)
    assert len(bundle.samples) == 2
    assert bundle.samples[0] == pytest.approx(0.0, abs=1e-3)
    assert bundle.samples[1] == pytest.approx(0.5, abs=1e-3)
    assert bundle.diagram.shape == "circle"
    assert bundle.diagram.fiber_sets[0] == bundle.diagram.fiber_sets[-1]
    assert len(bundle.cobordisms) == 2
    assert inverse_limit(bundle.diagram).cardinality == 2


def test_interval_pulse_has_larger_limit():
    # cutting the same loop open forgets that the two pockets must match up
    s = _pulse_scenario("interval")
    bundle = build_zigzag(s)
    assert inverse_limit(bundle.diagram).cardinality == 4
