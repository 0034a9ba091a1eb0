import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from evasion_kit.errors import KnobError, ResolutionError, SimultaneousEventsError
from evasion_kit.limit import inverse_limit
from evasion_kit.scenario import (
    TIME_SPAN,
    Scenario,
    SensorTrack,
    builtin_scenario,
    positions_at,
    random_interval_scenario,
    random_waypoint_scenario,
    validate_scenario,
)
from evasion_kit import rasterize, zigzag
from evasion_kit.zigzag import (
    Event,
    _pair_counts,
    _per_slice,
    _rim,
    _signatures,
    _stack_signatures,
    build_zigzag,
    detect_events,
    fiber_signature,
    interleave,
)
from evasion_kit.gapsweep import sweep_gaps
from evasion_kit.rasterize import (
    _ONE_ARC,
    _RING,
    BoxCoverage,
    CobordismComponents,
    ComponentLabels,
    _box_flips,
    _flip_anchors,
    _simple_flips,
    boundary_pairs,
    bounding_box,
    cell_center,
    components,
    count_holes,
    coverage_masks,
    domain_masks,
    face_contacts,
    grid_for_scenario,
    label_components,
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
    return (components(f).count, count_holes(f.uncovered),
            boundary_pairs(f, components(f)).count)


_SCAN_CASES = ([(name, 0) for name in ("split", "annuli", "empty", "full")]
               + [("random", seed) for seed in range(3)]
               + [("interval", seed) for seed in range(3)])


def _scan_scenario(name, seed):
    if name == "interval":
        return random_interval_scenario(seed)
    return builtin_scenario(name, seed)


def _edge_values(s, times):
    """Every gap end candidate of a 1-D scenario at each time: the sensor
    edges p - r and p + r and the two fence ends, shape (times, edges)."""
    p = positions_at(s, times)[:, :, 0].T
    r = s.sensing_radius
    inner = s.radius - s.fence_width
    fence = np.broadcast_to([s.center[0] - inner, s.center[0] + inner], (len(times), 2))
    return np.concatenate((p - r, p + r, fence), axis=1)


def _sweep_signatures(s, times):
    """(gaps, 0, gap ends that are sensor edges) read off the gap sweep."""
    inner = s.radius - s.fence_width
    fence = {s.center[0] - inner, s.center[0] + inner}
    return [(len(g), 0, sum((lo not in fence) + (hi not in fence) for lo, hi in g))
            for g in sweep_gaps(s).gaps_at(times)]


def _check_1d_sweep_against_raster(s, grid, times):
    """In 1-D the raster signature is the sweep's wherever every two edges
    lie two cells apart, so that no gap or contact is thinner than a cell."""
    values = np.sort(_edge_values(s, times), axis=1)
    resolved = np.diff(values, axis=1).min(axis=1) > 2.0 * grid.cell_size
    assert resolved.mean() > 0.25
    times = np.asarray(times)[resolved]
    want = [_slice_signature(f) for f in rasterize_fibers(s, times, grid)]
    assert _sweep_signatures(s, times) == want


@pytest.mark.parametrize("name,seed", _SCAN_CASES)
def test_stack_signatures_match_per_slice(name, seed):
    s = _scan_scenario(name, seed)
    grid = grid_for_scenario(s)
    times = np.linspace(0.0, 1.0, 513)
    if s.dimension == 1:
        _check_1d_sweep_against_raster(s, grid, times)
        return
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
    if s.dimension == 1:
        _check_1d_sweep_against_raster(s, grid, times)
        return
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
    # Every distinct slice of a cobordism, as a stack.
    cob = rasterize_cobordism(s, (0.2, 0.6), grid)
    cobordism = inside & ~coverage_masks(s, cob.times[cob.kept], grid)
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
    if s.dimension == 1:
        # Here t = 0.3 falls while a gap thinner than a cell dies.
        _check_1d_sweep_against_raster(s, grid, [0.0, 0.3, 0.77])
        with pytest.raises(ValueError):
            fiber_signature(rasterize_fiber(s, 0.0, grid))
        return
    for t in (0.0, 0.3, 0.77):
        f = rasterize_fiber(s, t, grid)
        expected = _slice_signature(f)
        assert _signatures(s, [t], grid) == [expected]
        assert fiber_signature(f) == expected
        repeated = np.repeat(f.uncovered[None], 4, axis=0)
        assert _stack_signatures(repeated, f.disk, f.inside)[0] == [expected] * 4


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

    simple = _simple_flips(flips, read, disk, inside)
    labeled = np.concatenate(([True], np.bincount(flips[0][~simple], minlength=n - 1) > 0))
    sigs = _stack_signatures(uncovered[labeled], disk, inside)[0]
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
    # The flipped cell's only covered neighbors are collar cells, so its
    # contact with the uncovered cells is new.
    "collar": ("""
cccccccc
c......c
c......c
cccccccc
""", """
cccccccc
c#.....c
c......c
cccccccc
"""),
    # The 1-D split, on a corridor one cell high: an uncovered cell with
    # uncovered cells on both sides is covered.
    "split1d": ("""
cccccccccc
c......##c
cccccccccc
""", """
cccccccccc
c...#..##c
cccccccccc
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
    """A random disk, cropped to its bounding box (no margin), and its
    fence: the disk eroded by a collar of 0-2 cells."""
    dim = 2
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


def _dense_anchors(uncovered, disk, inside):
    """The flips of a dense stack (T, *shape), off its step diff, and their
    _flip_anchors, uncovered and covered, with the ring cells read off the
    stack itself."""
    flips = np.nonzero(uncovered[1:] != uncovered[:-1])

    def read(slices, cells):
        return uncovered[(slices,) + tuple(cells)]

    return (flips,) + _flip_anchors(flips, read, disk, inside)


def _contact_pairs(uncovered, u_lab, v_lab, inside):
    """The (uncovered, covered-with-collar) label pairs of a slice's
    contacts: face neighbors whose covered cell is inside the fence."""
    src, dst = face_contacts(uncovered, ~uncovered & inside, range(uncovered.ndim))
    return set(zip(u_lab.ravel()[src].tolist(), v_lab.ravel()[dst].tolist()))


@settings(max_examples=300, deadline=None)
@given(_moving_ball_stacks())
def test_certified_steps_match_components_one_to_one(stack):
    # Each step is a two-slice stack. When every flip of a step is
    # certified, the band's standing edges, the component pairs sharing a
    # cell, form a perfect matching of the two slices' components, in the
    # uncovered and in the covered-with-collar region alike; every anchor
    # stands, and the matchings carry the boundary pairs of one slice onto
    # those of the other.
    uncovered, disk, inside = stack
    covered = disk & ~uncovered
    flips, anchors, covered_anchors = _dense_anchors(uncovered, disk, inside)
    assert np.array_equal(anchors < 0, covered_anchors < 0)
    for k in range(len(uncovered) - 1):
        at = flips[0] == k
        if (anchors[at] < 0).any():
            continue
        matches, labels = [], []
        for region, anchor in ((uncovered, anchors[at]), (covered, covered_anchors[at])):
            before, n_before = label_components(region[k])
            after, n_after = label_components(region[k + 1])
            both = region[k] & region[k + 1]
            pairs = set(zip(before[both].tolist(), after[both].tolist()))
            assert n_before == n_after == len(pairs)
            assert ({a for a, _ in pairs} == {b for _, b in pairs}
                    == set(range(1, n_before + 1)))
            assert both.ravel()[anchor].all()
            matches.append(dict(pairs))
            labels.append((before, after))
        (u0, u1), (v0, v1) = labels
        carried = {(matches[0][u], matches[1][v])
                   for u, v in _contact_pairs(uncovered[k], u0, v0, inside)}
        assert carried == _contact_pairs(uncovered[k + 1], u1, v1, inside)


def test_certificate_rejects_a_one_cell_pocket_that_moves():
    # The pocket moves one cell west. Its new cell comes first in raster
    # order and joins the old one, which then goes: both flips are simple,
    # yet the slices share no uncovered cell, and neither flip has a face
    # neighbor uncovered at both ends.
    stack, disk, inside = _picture_stack("""
#######
#######
###.###
#######
#######
""", """
#######
#######
##.####
#######
#######
""")
    flips = np.nonzero(stack[1:] != stack[:-1])
    assert flips[0].size == 2

    def read(slices, cells):
        return stack[(slices,) + tuple(cells)]

    assert _simple_flips(flips, read, disk, inside).all()
    assert (_dense_anchors(stack, disk, inside)[1] == -1).all()


def test_certificate_rejects_a_one_cell_island_that_moves():
    # The covered island moves one cell west: the mirror image of the
    # moving pocket. Both flips are simple and each has a standing
    # uncovered face neighbor, yet the slices share no cell of the island,
    # and neither flip has a face neighbor covered at both ends; the
    # boundary pair of the island would not carry across the step.
    stack, disk, inside = _picture_stack("""
.......
.......
...#...
.......
.......
""", """
.......
.......
..#....
.......
.......
""")
    flips = np.nonzero(stack[1:] != stack[:-1])
    assert flips[0].size == 2

    def read(slices, cells):
        return stack[(slices,) + tuple(cells)]

    assert _simple_flips(flips, read, disk, inside).all()
    _, anchors, covered_anchors = _dense_anchors(stack, disk, inside)
    assert (anchors == -1).all() and (covered_anchors == -1).all()


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
    dense step diff, and in 2-D the signatures are those of labeling every
    slice. (A 1-D scan runs the gap sweep; its flips feed the oracle.)"""
    disk, inside = domain_masks(s, grid)
    box = bounding_box(disk)
    disk, inside = disk[box], inside[box]
    stack = inside & ~coverage_masks(s, times, grid, box)
    want = np.nonzero(stack[1:] != stack[:-1])
    got = BoxCoverage(s, times, grid, box).flips(inside)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if s.dimension == 2:
        assert _signatures(s, times, grid) == _reference_stack_signatures(stack, disk, inside)
    return got


def _underflow_inputs():
    # A track that moves, but by so little that its squared speed underflows
    # to 0: the crossing bands must not divide by it.
    s = Scenario(dimension=1, center=(0.0,), radius=1.0, sensing_radius=0.25,
                 fence_width=1.0 / 24.0, time_base="interval",
                 tracks=(SensorTrack(((0.0, (0.0,)), (1.0, (2.5424318169637914e-294,)))),))
    return s, grid_for_scenario(s, cells=24, margin_cells=0), np.linspace(0.0, 1.0, 2)


@settings(max_examples=200, deadline=None)
@given(_scan_inputs())
@example(inputs=_underflow_inputs())
def test_window_bounded_scan_matches_dense_stack(inputs):
    _check_scan_against_dense_stack(*inputs)


def _dyadic(dim, tracks, r=0.25, base="interval"):
    """A scenario on a 40-cell grid of cell size 1/16, whose cell centers
    are odd multiples of 1/32: with dyadic waypoints and times, every
    distance below is exact."""
    s = Scenario(dimension=dim, center=(0.0,) * dim, radius=1.0, sensing_radius=r,
                 fence_width=0.05, time_base=base,
                 tracks=tuple(SensorTrack(tuple(t)) for t in tracks))
    return s, grid_for_scenario(s, cells=40)


_EVERY_32ND = np.linspace(0.0, 1.0, 33)


@pytest.mark.parametrize("dim", [1, 2])
def test_band_edge_crossing_at_a_sample_time(dim):
    # The ball's edge reaches cell centers exactly at sample times, where
    # d2 equals r^2 and the cell counts as covered.
    y = (1.0 / 32.0,) * (dim - 1)
    s, grid = _dyadic(dim, [[(0.0, (-0.5,) + y), (1.0, (0.5,) + y)]])
    step, *_ = _check_scan_against_dense_stack(s, grid, _EVERY_32ND)
    assert step.size


def test_band_edge_tangency_at_closest_approach():
    # The track runs exactly r above a row of centers, so each of them is
    # covered at one instant alone, which is a sample time.
    s, grid = _dyadic(2, [[(0.0, (-0.5, 9.0 / 32.0)), (1.0, (0.5, 9.0 / 32.0))]])
    _, iy, _ = _check_scan_against_dense_stack(s, grid, _EVERY_32ND)
    row = int(round((1.0 / 32.0 - grid.origin[1]) / grid.cell_size - 0.5))
    assert (iy == row).any()
    _check_scan_against_dense_stack(s, grid, np.linspace(0.0, 1.0, 200))


@pytest.mark.parametrize("end", [-0.25, 0.75], ids=["reverse", "speed-up"])
@pytest.mark.parametrize("times", [_EVERY_32ND, np.linspace(0.01, 0.99, 50)],
                         ids=["on-waypoint", "off-waypoint"])
def test_band_edge_across_a_waypoint(end, times):
    # At the waypoint t = 1/2 the track stands at 0, exactly r = 9/32 from
    # a cell center, and then turns back or speeds up.
    s, grid = _dyadic(1, [[(0.0, (-0.5,)), (0.5, (0.0,)), (1.0, (end,))]], r=9.0 / 32.0)
    _check_scan_against_dense_stack(s, grid, times)


@pytest.mark.parametrize("dim", [1, 2])
def test_band_edge_circle_span_past_the_end(dim):
    # A cobordism span on a circle base runs past t = 1; its times wrap,
    # and the bands are shifted by one period onto them.
    y = (0.1,) * (dim - 1)
    track = [(0.0, (-0.5,) + y), (0.5, (0.55,) + y), (1.0, (-0.5,) + y)]
    s, grid = _dyadic(dim, [track], base="circle")
    step, *_ = _check_scan_against_dense_stack(s, grid, np.linspace(0.75, 1.5, 97))
    assert step.size
    _check_scan_against_dense_stack(s, grid, np.linspace(0.0, 1.0, 65))


def test_band_edge_times_near_the_window_floor():
    # Probe tables near _WINDOW_FLOOR space their times about 1e-13 apart;
    # consecutive doubles go further. The track's speed is not dyadic, so
    # float rounding decides in which step the cells flip.
    s, grid = _dyadic(2, [[(0.0, (-0.5, 1.0 / 32.0)), (1.0, (0.6, 1.0 / 32.0))]])
    crossing = (1.0 / 32.0 + 0.5 - 0.25) / 1.1
    for spacing in (1e-13, np.spacing(crossing)):
        times = crossing + spacing * np.arange(-64, 65)
        step, *_ = _check_scan_against_dense_stack(s, grid, times)
        assert step.size


def test_detect_events_memory_does_not_grow_with_scan_samples():
    # Differencing each moving ball on window patches at every scan step
    # peaked at 704 MiB here; the crossing bands do not grow with the times.
    s = builtin_scenario("split")
    tracemalloc.start()
    try:
        events = detect_events(s, scan_samples=2 ** 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) == len(detect_events(s))
    assert peak < 16 * 2 ** 20


def test_grid_resonance_events_are_classified_on_non_simple_flips(monkeypatch):
    # A ball of diameter 0.3, 18 cells of the default grid, runs along a row
    # of cell centers into a static one, so its leading and trailing edges
    # cross centers at the same instants; the window floor is reached with
    # flips both ways, and the fusion is the one cluster of non-simple flips.
    # Off the row the same fusion is classified above the floor.
    floor = []
    classify = zigzag._classify_at_floor

    def spy(*args):
        event = classify(*args)
        floor.append(event)
        return event

    monkeypatch.setattr(zigzag, "_classify_at_floor", spy)

    def fusion(y, x1):
        static = SensorTrack(((0.0, (0.5, y)), (1.0, (0.5, y))))
        mover = SensorTrack(((0.0, (-0.3, y)), (1.0, (x1, y))))
        return validate_scenario(Scenario(
            dimension=2, center=(0.0, 0.0), radius=1.0, sensing_radius=0.15,
            fence_width=0.12, time_base="interval", tracks=(static, mover)))

    row = cell_center(grid_for_scenario(fusion(0.0, 0.2)), (64, 0))[1]
    for x1 in (0.2, 0.25, 0.3):
        on_row, off_row = build_zigzag(fusion(row, x1)), build_zigzag(fusion(0.0, x1))
        got, want = on_row.events, off_row.events
        assert [e.type_x for e in got] == [e.type_x for e in want] == ["D"]
        assert got[0].time == pytest.approx(want[0].time, abs=2e-3)
        assert (inverse_limit(on_row.diagram).cardinality
                == inverse_limit(off_row.diagram).cardinality)
    assert len(floor) == 3 and all(e.type_x == "D" for e in floor)


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
    # The mover's left edge 0.05 - 0.42 (t - 0.3) - 0.16 meets the static
    # edge -0.29 at t = 0.3 + 0.18 / 0.42, exactly.
    assert e.window == (e.time, e.time)
    assert e.time == pytest.approx(0.3 + 0.18 / 0.42, abs=1e-12)
    assert e.before == (4, 0, 6)
    assert e.after == (3, 0, 4)


def test_mirrored_seals_share_one_exact_instant():
    # Exactly mirror-image movers seal two gaps at the same instant. The
    # sweep puts both deaths in one span, so the answer is exact.
    movers = [
        SensorTrack(((0.0, (0.08,)), (1.0, (0.14,)))),
        SensorTrack(((0.0, (-0.08,)), (1.0, (-0.14,)))),
    ]
    s = _d1([_static1(-0.45), _static1(0.45)] + movers)
    events = detect_events(s)
    assert [e.type_x for e in events] == ["D", "D"]
    assert events[0].window == events[1].window
    assert events[0].time == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert events[0].locus[0] + events[1].locus[0] == grid_for_scenario(s).shape[0] - 1
    sweep = sweep_gaps(s)
    assert sweep.samples == (0.0, 1.0)
    assert inverse_limit(sweep.diagram).cardinality == 2


# ---------------------------------------------------------------------------
# bisection on probe tables, against bisecting one probe at a time
# ---------------------------------------------------------------------------


def _reference_flip_split(s, grid, a, b):
    fa, fb = rasterize_fibers(s, [a, b], grid)
    to_covered = fa.uncovered & ~fb.uncovered
    to_uncovered = fb.uncovered & ~fa.uncovered
    flips = to_covered | to_uncovered
    full = np.ones((3,) * flips.ndim, dtype=int)
    _, n_clusters = ndimage.label(flips, structure=full)
    return to_covered, to_uncovered, int(n_clusters)


def _reference_try_classify(s, grid, a, b, sa, sb):
    to_covered, to_uncovered, n_clusters = _reference_flip_split(s, grid, a, b)
    flips = to_covered | to_uncovered
    if not flips.any():
        raise ResolutionError(
            f"signature changed across ({a:.6f}, {b:.6f}) without a coverage flip",
            hint="raise --cells")
    if (to_covered.any() and to_uncovered.any()) or n_clusters > 1:
        return None
    if not zigzag._jump_ok(sa, sb):
        return None
    locus_flat = int(np.flatnonzero(flips.ravel())[0])
    locus = tuple(int(v) for v in np.unravel_index(locus_flat, flips.shape))
    type_x = "D" if to_covered.any() else "N"
    return Event(window=(float(a), float(b)), locus=locus, type_x=type_x,
                 before=sa, after=sb)


def _reference_raise_unresolvable(s, grid, a, b, sa, sb):
    to_covered, to_uncovered, n_clusters = _reference_flip_split(s, grid, a, b)
    if (to_covered.any() and to_uncovered.any()) or n_clusters > 1:
        raise SimultaneousEventsError(
            f"coverage transitions inside ({a:.12f}, {b:.12f}) cannot "
            "be separated in time",
            hint="perturb the scenario: two transitions share one instant")
    raise ResolutionError(
        f"resolution too coarse: signature jumped {sa} -> {sb} "
        f"across ({a:.6f}, {b:.6f})", hint="raise --cells")


def _reference_bisect(s, grid, a, b, sa, sb, tol, out):
    while True:
        if b - a <= tol:
            event = _reference_try_classify(s, grid, a, b, sa, sb)
            if event is not None:
                out.append(event)
                return
            if b - a <= zigzag._WINDOW_FLOOR:
                _reference_raise_unresolvable(s, grid, a, b, sa, sb)
        m = 0.5 * (a + b)
        if not a < m < b:
            _reference_raise_unresolvable(s, grid, a, b, sa, sb)
        sm = _signatures(s, [m], grid)[0]
        if sm == sa:
            a = m
        elif sm == sb:
            b = m
        else:
            _reference_bisect(s, grid, a, m, sa, sm, tol, out)
            _reference_bisect(s, grid, m, b, sm, sb, tol, out)
            return


def _reference_detect_events(s, grid, scan_samples=512, tol=1e-4):
    """detect_events bisecting with one labeled whole slice per probe and
    classifying each window on two whole-grid fibers."""
    times = np.linspace(0.0, 1.0, scan_samples + 1)
    sigs = _signatures(s, times, grid)
    events = []
    for i in range(scan_samples):
        if sigs[i] != sigs[i + 1]:
            _reference_bisect(s, grid, float(times[i]), float(times[i + 1]),
                              sigs[i], sigs[i + 1], tol, events)
    events.sort(key=lambda e: e.window[0])
    for prev, cur in zip(events, events[1:]):
        if cur.window[0] < prev.window[1]:
            raise SimultaneousEventsError(
                f"event windows ({prev.window[0]:.6f}, {prev.window[1]:.6f}) and "
                f"({cur.window[0]:.6f}, {cur.window[1]:.6f}) overlap",
                hint="lower --tol")
    return tuple(events)


def _outcome(detect, s, grid, **knobs):
    """The events, or the error's type, message and hint."""
    try:
        return detect(s, grid, **knobs)
    except ResolutionError as e:
        return type(e), str(e), e.hint


_BUILTINS = ("split", "close", "annuli", "empty", "full")


def _detection_pool(family, seeds):
    if family == "builtin":
        return [builtin_scenario(name) for name in _BUILTINS]
    if family == "random":
        return [builtin_scenario("random", seed) for seed in seeds]
    return [random_interval_scenario(seed) for seed in seeds]


def _dense_gap_events(s, samples):
    """(step, type) of each change in the exact gap count between dense
    sample times, the count read off the sorted edges at each time."""
    times = np.linspace(0.0, 1.0, samples)
    values = _edge_values(s, times)
    n = s.sensor_count
    ends = np.zeros(values.shape[1], dtype=bool)
    ends[n:2 * n] = True
    ends[2 * n] = True
    is_end = ends[np.argsort(values, axis=1)]
    depth = 1 + np.cumsum(np.where(is_end, -1, 1), axis=1)
    counts = (is_end & (depth == 0)).sum(axis=1)
    steps = np.flatnonzero(np.diff(counts))
    return times, [(int(k), "D" if counts[k + 1] < counts[k] else "N") for k in steps]


def _check_against_reference(scenarios, cells=128, **knobs):
    for s in scenarios:
        grid = grid_for_scenario(s, cells=cells)
        if s.dimension == 1:
            # The sweep ignores the scan knobs; its events are the changes
            # of the exact gap count at 20,001 times.
            events = detect_events(s, grid, **knobs)
            assert events == detect_events(s, grid)
            times, want = _dense_gap_events(s, 20001)
            assert [e.type_x for e in events] == [kind for _, kind in want]
            for e, (k, _) in zip(events, want):
                assert e.window[0] == e.window[1]
                assert times[k] <= e.time <= times[k + 1]
            continue
        want = _outcome(_reference_detect_events, s, grid, **knobs)
        assert _outcome(detect_events, s, grid, **knobs) == want


@pytest.mark.parametrize("family", ["builtin", "random", "interval"])
def test_table_bisection_matches_per_probe_reference(family):
    # Windows, loci, types and signatures, at default knobs.
    _check_against_reference(_detection_pool(family, range(100)))


@pytest.mark.parametrize("knobs", [{"scan_samples": 100}, {"tol": 1e-6}],
                         ids=["scan100", "tol1e-6"])
@pytest.mark.parametrize("family", ["builtin", "random", "interval"])
def test_table_bisection_matches_reference_off_default_knobs(family, knobs):
    # 100 scan samples put the scan times off the dyadic grid, and a small
    # tol takes the bisection past one table.
    _check_against_reference(_detection_pool(family, range(10)), **knobs)


def test_table_bisection_matches_reference_at_the_window_floor():
    # At 64 cells two transitions of split share an instant; both raise the
    # same error once the window reaches _WINDOW_FLOOR.
    s = builtin_scenario("split")
    outcome = _outcome(detect_events, s, grid_for_scenario(s, cells=64))
    assert outcome[0] is SimultaneousEventsError
    _check_against_reference([s], cells=64)


def test_detect_events_labels_few_slices_and_no_whole_grid(monkeypatch):
    # The certify pool: each event is bisected on one probe table read with
    # the scan's certificate, and classified on the disk's box. Bisecting one
    # probe at a time labels 173 slices here and rasterizes 27 whole-grid
    # fiber pairs.
    labeled, fibers = [], []
    stack_signatures = zigzag._stack_signatures
    rasterize = zigzag.rasterize_fibers

    def spy_labels(uncovered, disk, inside):
        labeled.append(uncovered.shape[0])
        return stack_signatures(uncovered, disk, inside)

    def spy_fibers(*args, **kwargs):
        fibers.append(args)
        return rasterize(*args, **kwargs)

    monkeypatch.setattr(zigzag, "_stack_signatures", spy_labels)
    monkeypatch.setattr(zigzag, "rasterize_fibers", spy_fibers)
    events = 0
    for s in (_detection_pool("builtin", ())
              + _detection_pool("random", range(1000, 1020))):
        events += len(detect_events(s))
    assert events == 24
    assert not fibers
    assert sum(labeled) < 80


def test_probe_tables_stay_bounded(monkeypatch):
    # A tiny tol asks for about 30 halvings of a scan step; one table over
    # all of them would hold 2**30 times.
    sizes = []

    class Spy(rasterize.BoxCoverage):
        def __init__(self, s, times, grid, box=None, positions=None):
            sizes.append(len(times))
            super().__init__(s, times, grid, box, positions)

    monkeypatch.setattr(rasterize, "BoxCoverage", Spy)
    s = builtin_scenario("split")
    with pytest.raises(SimultaneousEventsError):
        detect_events(s, grid_for_scenario(s, cells=64), tol=1e-12)
    assert sizes[0] == 513
    assert sizes[1:].count(33) > 2
    assert max(sizes[1:]) <= 33


def test_probe_table_with_simple_steps_only_is_an_error():
    # Differing ends with no step that can change the signature contradict
    # the certificate.
    s = builtin_scenario("empty")
    grid = grid_for_scenario(s)
    with pytest.raises(ResolutionError, match="every coverage flip"):
        _signatures(s, [0.2, 0.3, 0.4], grid, ends=((1, 0, 1), (2, 0, 2)))


def test_equal_ends_without_non_simple_step_give_a_constant(monkeypatch):
    # In (0, 0.05) of split every flip is simple: equal ends carry over
    # every slice unlabeled, and differing ends still raise.
    s = builtin_scenario("split")
    grid = grid_for_scenario(s)
    times = np.linspace(0.0, 0.05, 6)
    assert _box_flips(s, times, grid).flips[0].size
    want = _signatures(s, times, grid)
    assert want == [(1, 0, 1)] * 6
    labeled = []
    stack_signatures = zigzag._stack_signatures

    def spy(uncovered, disk, inside):
        labeled.append(uncovered.shape[0])
        return stack_signatures(uncovered, disk, inside)

    monkeypatch.setattr(zigzag, "_stack_signatures", spy)
    assert _signatures(s, times, grid, ends=((1, 0, 1), (1, 0, 1))) == want
    empty = builtin_scenario("empty")
    assert (_signatures(empty, [0.2, 0.3, 0.4], grid_for_scenario(empty),
                        ends=((1, 0, 1), (1, 0, 1))) == [(1, 0, 1)] * 3)
    assert not labeled
    with pytest.raises(ResolutionError, match="every coverage flip"):
        _signatures(s, times, grid, ends=((1, 0, 1), (2, 0, 2)))


def _end_signatures(s, grid):
    return tuple(fiber_signature(f) for f in rasterize_fibers(s, TIME_SPAN, grid))


def _check_known_ends(scenarios, **knobs):
    """detect_events given its end fibers' signatures as ends gives the
    events, or the error, of the scan that labels its end slices."""
    for s in scenarios:
        grid = grid_for_scenario(s)
        want = _outcome(detect_events, s, grid, **knobs)
        assert _outcome(detect_events, s, grid, ends=_end_signatures(s, grid), **knobs) == want


@pytest.mark.parametrize("family", ["builtin", "random", "generic"])
def test_known_ends_scan_matches_the_scan_that_labels_them(family):
    if family == "builtin":
        pool = _detection_pool("builtin", ())
    elif family == "random":
        pool = _detection_pool("random", list(range(100)) + list(range(1000, 1020)))
    else:
        pool = [random_waypoint_scenario(seed, n, 2) for seed in range(20) for n in (3, 5)]
    _check_known_ends(pool)


@pytest.mark.parametrize("knobs", [{"scan_samples": 100}, {"tol": 1e-6}],
                         ids=["scan100", "tol1e-6"])
def test_known_ends_scan_matches_off_default_knobs(knobs):
    _check_known_ends(_detection_pool("builtin", ()) + _detection_pool("random", range(10)),
                      **knobs)


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


def test_interleave_exact_windows():
    # Exact events have zero-width windows; those at one instant share a
    # span, and on an interval base they may lie on an endpoint.
    assert interleave([_ev(0.0, 0.0), _ev(0.5, 0.5), _ev(0.5, 0.5), _ev(1.0, 1.0)],
                      "interval") == (0.0, 0.25, 0.75, 1.0)
    assert interleave([_ev(0.0, 0.0)], "circle") == (0.5,)


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
    bundle = build_zigzag(s)
    assert bundle.events == events
    assert bundle.samples == (0.0, 1.0)
    assert bundle.diagram.shape == "interval"
    assert bundle.diagram.fiber_sets == ((1,), (1, 2))
    assert bundle.diagram.cobordism_sets == ((1,),)
    assert bundle.diagram.left_maps == ({1: 1},)
    assert bundle.diagram.right_maps == ({1: 1, 2: 1},)
    assert inverse_limit(bundle.diagram).cardinality == 2


def test_build_zigzag_close_structure(builtin_events):
    s, events = builtin_events["close"]
    bundle = build_zigzag(s)
    assert bundle.events == events
    assert len(bundle.samples) == 3
    assert bundle.samples[1] == pytest.approx(0.5, abs=2e-3)
    assert bundle.diagram.fiber_sets == ((1,), (), (1,))
    assert inverse_limit(bundle.diagram).cardinality == 0


def test_split_bundle_boundary_pairs(builtin_events):
    # The pairs are read off the bundle's own uncovered components: one
    # pocket and its wall before the split, two after.
    s, _ = builtin_events["split"]
    bundle = build_zigzag(s)
    fibers = [boundary_pairs(f, p) for f, p in zip(bundle.fibers, bundle.fiber_parts)]
    assert [b.count for b in fibers] == [1, 2]
    assert sorted(u for u, _ in fibers[1].pairs) == [1, 2]
    (cob,) = [boundary_pairs(c, p) for c, p in zip(bundle.cobordisms, bundle.cobordism_parts)]
    assert cob.pairs == ((1, 1),)


def test_build_zigzag_rejects_missed_event(builtin_events, monkeypatch):
    # a scan that misses the event contradicts the non-bijective tracking
    s, _ = builtin_events["split"]
    monkeypatch.setattr(zigzag, "detect_events", lambda *args, **kwargs: ())
    with pytest.raises(ResolutionError, match="event-free span"):
        build_zigzag(s)


def test_build_zigzag_rejects_crowded_span(builtin_events, monkeypatch):
    s, _ = builtin_events["close"]
    monkeypatch.setattr(zigzag, "interleave", lambda events, time_base: (0.0, 0.9, 1.0))
    with pytest.raises(SimultaneousEventsError, match="2 events share"):
        build_zigzag(s)


def test_build_zigzag_rejects_sample_on_event(builtin_events, monkeypatch):
    s, events = builtin_events["close"]
    monkeypatch.setattr(zigzag, "interleave",
                        lambda events_, time_base: (0.0, events[0].time, 1.0))
    with pytest.raises(ResolutionError, match="straddles a sample time"):
        build_zigzag(s)


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
    bundle = build_zigzag(s)
    assert bundle.events == events
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


def test_region_map_reads_each_first_cell():
    # The per-label reference: the cobordism label at the first cell of each
    # fiber label, and a missing fiber component is a resolution error.
    rng = np.random.default_rng(5)
    for _ in range(20):
        labels, count = label_components(rng.random((9, 11)) < 0.5)
        end = rng.integers(1, 4, size=labels.shape)
        fparts = ComponentLabels(labels=labels, count=count)
        cparts = CobordismComponents(count=3, ends=(end, end), graph=None,
                                     component=None, box=())
        flat = labels.ravel()
        want = {k: int(end.ravel()[np.flatnonzero(flat == k)[0]]) for k in range(1, count + 1)}
        assert zigzag._region_map(fparts, cparts, 0) == want
        end.ravel()[np.flatnonzero(flat == count)[0]] = 0
        with pytest.raises(ResolutionError):
            zigzag._region_map(fparts, cparts, -1)
