import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from evasion_kit.rasterize import (
    _SLICE_STRUCTS,
    BoundaryComponents,
    GridSpec,
    RasterError,
    boundary_pairs,
    bounding_box,
    cell_center,
    components,
    count_holes,
    coverage_masks,
    domain_masks,
    face_contacts,
    first_cells,
    grid_for_scenario,
    label_components,
    label_slices,
    rasterize_cobordism,
    rasterize_fiber,
    rasterize_fibers,
    sorted_unique,
)
from evasion_kit.scenario import (
    builtin_scenario,
    positions_at,
    random_interval_scenario,
)


def test_grid_spec_validation():
    with pytest.raises(RasterError):
        GridSpec(cell_size=0.0, origin=(0.0,), shape=(4,))
    with pytest.raises(RasterError):
        GridSpec(cell_size=0.1, origin=(0.0, 0.0), shape=(4,))
    with pytest.raises(RasterError):
        GridSpec(cell_size=0.1, origin=(0.0,), shape=(0,))
    with pytest.raises(RasterError):
        GridSpec(cell_size=0.1, origin=(0.0,), shape=(4,), fine_time_samples=1)


def test_grid_for_scenario_geometry():
    s = builtin_scenario("split")
    g = grid_for_scenario(s, cells=128)
    assert g.shape == (128, 128)
    assert g.cell_size == pytest.approx(2.0 * s.radius / 120.0)
    # the box is centered on the domain center
    lo = cell_center(g, (0, 0))
    hi = cell_center(g, (127, 127))
    assert lo[0] + hi[0] == pytest.approx(2.0 * s.center[0])
    assert lo[1] + hi[1] == pytest.approx(2.0 * s.center[1])

    s1 = random_interval_scenario(0)
    g1 = grid_for_scenario(s1, cells=64)
    assert g1.shape == (64,)
    assert g1.dimension == 1

    with pytest.raises(RasterError):
        grid_for_scenario(s, cells=8, margin_cells=4)


def test_cell_center_orientation():
    g = GridSpec(cell_size=1.0, origin=(10.0, 20.0), shape=(4, 6))
    # index order is (iy, ix); world order is (x, y)
    assert cell_center(g, (0, 0)) == pytest.approx((10.5, 20.5))
    assert cell_center(g, (2, 5)) == pytest.approx((15.5, 22.5))


def test_domain_masks_match_distances():
    s = builtin_scenario("empty")
    g = grid_for_scenario(s, cells=48)
    disk, inside = domain_masks(s, g)
    for cell in [(0, 0), (24, 24), (24, 4), (4, 24), (40, 40), (24, 44)]:
        p = cell_center(g, cell)
        d = math.dist(p, s.center)
        assert disk[cell] == (d <= s.radius)
        assert inside[cell] == (d < s.radius - s.fence_width)


def test_coverage_masks_match_distances():
    s = builtin_scenario("split")
    g = grid_for_scenario(s, cells=40)
    times = [0.0, 0.5, 1.0]
    balls = coverage_masks(s, times, g)
    assert balls.shape == (3,) + g.shape
    rng = random.Random(1)
    for k, t in enumerate(times):
        pos = [tuple(p) for p in positions_at(s, [t])[:, 0]]
        for _ in range(200):
            cell = (rng.randrange(40), rng.randrange(40))
            c = cell_center(g, cell)
            covered = any(math.dist(c, p) <= s.sensing_radius for p in pos)
            assert balls[(k,) + cell] == covered


def _dense_coverage(s, times, g):
    """Every cell against every sensor, in the squared-distance arithmetic."""
    centers = np.asarray([cell_center(g, cell) for cell in np.ndindex(*g.shape)])
    centers = centers.reshape(g.shape + (g.dimension,))
    pos = positions_at(s, times)
    lift = (-1,) + (1,) * g.dimension
    out = np.zeros((len(times),) + g.shape, dtype=bool)
    for j in range(s.sensor_count):
        d2 = 0.0
        for k in range(g.dimension):
            d = centers[..., k][None] - pos[j, :, k].reshape(lift)
            d2 = d2 + d * d
        out |= d2 <= s.sensing_radius * s.sensing_radius
    return out


@pytest.mark.parametrize("cells", [10, 37, 128])
def test_coverage_masks_match_dense_evaluation(cells):
    times = np.linspace(0.0, 1.0, 33)
    scenarios = [builtin_scenario(name) for name in ("split", "annuli", "close")]
    scenarios += [builtin_scenario("random", seed) for seed in range(3)]
    scenarios += [random_interval_scenario(seed) for seed in range(3)]
    for s in scenarios:
        g = grid_for_scenario(s, cells=cells, margin_cells=2)
        assert np.array_equal(coverage_masks(s, times, g), _dense_coverage(s, times, g))


def _crop_scenarios():
    names = ("split", "close", "annuli", "empty", "full")
    return ([(name, builtin_scenario(name)) for name in names]
            + [(f"random/{k}", builtin_scenario("random", k)) for k in range(5)]
            + [(f"interval/{k}", random_interval_scenario(k)) for k in range(5)])


@pytest.mark.parametrize("key,s", _crop_scenarios())
def test_coverage_masks_on_a_box_equal_cropped_full_grid(key, s):
    times = np.linspace(0.0, 1.0, 65)
    g = grid_for_scenario(s)
    disk, inside = domain_masks(s, g)
    full = coverage_masks(s, times, g)
    # The domain boxes, and boxes whose edges cut through the sensor windows.
    odd = (slice(70, 128), slice(3, 41)) if s.dimension == 2 else (slice(70, 128),)
    corner = tuple(slice(0, 9) for _ in range(s.dimension))
    for box in (bounding_box(disk), bounding_box(inside), odd, corner):
        got = coverage_masks(s, times, g, box)
        assert np.array_equal(got, full[(slice(None),) + box]), (key, box)


def _label_oracle(mask):
    """Flood-fill face-adjacency labeling, first-cell order."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.zeros(mask.shape, dtype=int)
    count = 0
    for idx in np.ndindex(mask.shape):
        if not mask[idx] or labels[idx]:
            continue
        count += 1
        stack = [idx]
        labels[idx] = count
        while stack:
            cur = stack.pop()
            for axis in range(mask.ndim):
                for step in (-1, 1):
                    nxt = list(cur)
                    nxt[axis] += step
                    if not 0 <= nxt[axis] < mask.shape[axis]:
                        continue
                    nxt = tuple(nxt)
                    if mask[nxt] and not labels[nxt]:
                        labels[nxt] = count
                        stack.append(nxt)
    return labels, count


def test_label_components_against_flood_fill():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mask = rng.random((12, 12)) < 0.45
        got_labels, got_n = label_components(mask)
        want_labels, want_n = _label_oracle(mask)
        assert got_n == want_n
        assert np.array_equal(got_labels, want_labels)
    for _ in range(20):
        mask = rng.random(30) < 0.5
        got_labels, got_n = label_components(mask)
        want_labels, want_n = _label_oracle(mask)
        assert got_n == want_n
        assert np.array_equal(got_labels, want_labels)


def test_fiber_region_identities():
    s = builtin_scenario("annuli")
    g = grid_for_scenario(s, cells=96)
    f = rasterize_fiber(s, 0.0, g)
    assert not (f.uncovered & ~f.inside).any()
    assert np.array_equal(f.covered, f.inside & ~f.uncovered)
    assert np.array_equal(f.covered_with_collar, f.covered | f.collar)
    assert np.array_equal(f.collar, f.disk & ~f.inside)
    # boundary cells are covered and touch an uncovered cell
    assert not (f.covered_boundary & ~f.covered_with_collar).any()


def test_annuli_start_signature():
    s = builtin_scenario("annuli")
    g = grid_for_scenario(s, cells=128)
    f = rasterize_fiber(s, 0.0, g)
    assert components(f).count == 1
    assert count_holes(f.covered_with_collar) == 1
    assert boundary_pairs(f, components(f)).count == 3


def test_boundary_pairs_partition_bitmap():
    s = builtin_scenario("split")
    g = grid_for_scenario(s, cells=128)
    for t in (0.0, 0.5, 1.0):
        f = rasterize_fiber(s, t, g)
        b = boundary_pairs(f, components(f))
        u_lab = components(f).labels
        assert np.array_equal(b.labels > 0, f.covered_boundary)
        index = {pair: i + 1 for i, pair in enumerate(b.pairs)}
        ny, nx = f.uncovered.shape
        for iy, ix in zip(*np.nonzero(f.covered_boundary)):
            # every pair this cell is a contact of, by its face neighbors
            touching = set()
            for y, x in ((iy - 1, ix), (iy + 1, ix), (iy, ix - 1), (iy, ix + 1)):
                if 0 <= y < ny and 0 <= x < nx and f.uncovered[y, x]:
                    pair = (int(u_lab[y, x]), int(b.covered_labels[iy, ix]))
                    touching.add(index[pair])
            assert b.labels[iy, ix] == min(touching)


def test_empty_scenario_has_no_boundary():
    s = builtin_scenario("empty")
    g = grid_for_scenario(s, cells=64)
    f = rasterize_fiber(s, 0.5, g)
    assert not f.covered_boundary.any()
    assert boundary_pairs(f, components(f)).count == 0
    assert components(f).count == 1


def test_cobordism_samples_and_slices():
    s = builtin_scenario("close")
    g = grid_for_scenario(s, cells=48, fine_time_samples=5)
    cob = rasterize_cobordism(s, (0.2, 0.6), g)
    assert cob.times.size == 5
    assert cob.times[0] == pytest.approx(0.2)
    assert cob.times[-1] == pytest.approx(0.6)
    # uncovered[i] is the slice at times[labeled[i]], a distinct slice; the
    # first and the last are labeled.
    assert cob.kept[0] == 0 and cob.kept[-1] == 4
    assert cob.labeled[0] == 0 and cob.labeled[-1] == 4
    assert set(cob.labeled.tolist()) <= set(cob.kept.tolist())
    assert len(cob.uncovered) == cob.labeled.size
    for unc, k in zip(cob.uncovered, cob.labeled):
        assert np.array_equal(unc, rasterize_fiber(s, float(cob.times[k]), g).uncovered)
    fine = rasterize_cobordism(s, (0.2, 0.6), g, fine_time_samples=9)
    assert fine.times.size == 9
    with pytest.raises(RasterError):
        rasterize_cobordism(s, (0.6, 0.2), g)


def test_cobordism_components_connect_in_time():
    # a pocket present on every sub-sample is one space-time component
    s = builtin_scenario("annuli")
    g = grid_for_scenario(s, cells=64, fine_time_samples=8)
    cob = rasterize_cobordism(s, (0.0, 0.2), g)
    assert components(cob).count == 1


def test_rasterize_fibers_batches_match_single():
    s = builtin_scenario("split")
    g = grid_for_scenario(s, cells=48)
    batch = rasterize_fibers(s, [0.1, 0.9], g)
    for f in batch:
        single = rasterize_fiber(s, f.time, g)
        assert np.array_equal(f.uncovered, single.uncovered)


def test_count_holes_hand_bitmaps():
    solid = np.ones((7, 7), dtype=bool)
    assert count_holes(solid) == 0
    ring = solid.copy()
    ring[3, 3] = False
    assert count_holes(ring) == 1
    two = np.ones((5, 11), dtype=bool)
    two[2, 2] = False
    two[2, 8] = False
    assert count_holes(two) == 2
    notch = np.ones((5, 5), dtype=bool)
    notch[0, 2] = False
    assert count_holes(notch) == 0
    assert count_holes(np.ones(9, dtype=bool)) == 0


# ---------------------------------------------------------------------------
# the labeling kernels against the code they replaced
# ---------------------------------------------------------------------------


_FACE = {
    1: np.ones(3, dtype=bool),
    2: ndimage.generate_binary_structure(2, 1),
    3: ndimage.generate_binary_structure(3, 1),
}


def _reference_canonical(labels):
    """The former relabeling: number components in order of their first cell."""
    flat = labels.ravel()
    nz = np.flatnonzero(flat)
    if nz.size == 0:
        return labels.astype(np.int32), 0
    uniq, first = np.unique(flat[nz], return_index=True)
    order = np.argsort(first, kind="stable")
    remap = np.zeros(int(uniq.max()) + 1, dtype=np.int32)
    remap[uniq[order]] = np.arange(1, uniq.size + 1, dtype=np.int32)
    return remap[labels], int(uniq.size)


def _masks(min_dims, max_dims, max_side):
    return arrays(np.bool_, array_shapes(min_dims=min_dims, max_dims=max_dims,
                                         min_side=1, max_side=max_side))


@settings(max_examples=150, deadline=None)
@given(_masks(1, 3, 9))
def test_scipy_labels_are_canonical(mask):
    # label_components (1-D, 2-D, and 3-D with time adjacency) uses scipy's
    # numbering as is; it must equal first-cell order.
    raw, n = ndimage.label(mask, structure=_FACE[mask.ndim])
    want, want_n = _reference_canonical(raw)
    got, got_n = label_components(mask)
    assert got.dtype == want.dtype == np.int32
    assert got_n == want_n == n
    assert np.array_equal(got, want)
    firsts = [np.flatnonzero(got.ravel() == label)[0] for label in range(1, n + 1)]
    assert first_cells(got).tolist() == firsts


@settings(max_examples=150, deadline=None)
@given(_masks(2, 3, 9))
def test_scipy_slice_labels_are_canonical(mask):
    raw, _ = ndimage.label(mask, structure=_SLICE_STRUCTS[mask.ndim])
    labels, tops = label_slices(mask)
    assert np.array_equal(labels, _reference_canonical(raw)[0])
    assert np.array_equal(labels, raw)
    assert tops[-1] == labels.max(initial=0)
    firsts = [np.flatnonzero(labels.ravel() == label)[0] for label in range(1, tops[-1] + 1)]
    assert first_cells(labels).tolist() == firsts


@pytest.mark.parametrize("shape,axes", [((7,), (0,)), ((5, 6), (0, 1)), ((5, 6), (1,)),
                                        ((3, 4, 5), (1, 2)), ((3, 4, 5), (0, 1, 2))])
def test_face_contacts_against_brute_force(shape, axes):
    rng = np.random.default_rng(3)
    for _ in range(10):
        source = rng.random(shape) < 0.5
        target = rng.random(shape) < 0.5
        want = set()
        for cell in zip(*np.nonzero(source)):
            for axis in axes:
                for step in (-1, 1):
                    nxt = list(cell)
                    nxt[axis] += step
                    if 0 <= nxt[axis] < shape[axis] and target[tuple(nxt)]:
                        want.add((np.ravel_multi_index(cell, shape),
                                  np.ravel_multi_index(tuple(nxt), shape)))
        src, dst = face_contacts(source, target, axes)
        got = list(zip(src.tolist(), dst.tolist()))
        assert len(got) == len(set(got))
        assert set(got) == want


def test_bounding_box():
    mask = np.zeros((6, 7), dtype=bool)
    assert bounding_box(mask) == (slice(None), slice(None))
    mask[1, 5] = mask[3, 2] = True
    assert bounding_box(mask) == (slice(1, 4), slice(2, 6))
    assert bounding_box(np.ones(4, dtype=bool)) == (slice(0, 4),)


def _reference_boundary_pairs(c, dimension):
    """The former boundary pairs: per-direction boolean gathers on strided
    views, relabeled labels, and per-pair cell lists."""
    stacked = c.uncovered.ndim > dimension
    disk = c.disk[None] if stacked else c.disk
    inside = c.inside[None] if stacked else c.inside
    u_lab, _ = _reference_canonical(ndimage.label(c.uncovered, structure=_FACE[c.uncovered.ndim])[0])
    v_lab, _ = _reference_canonical(ndimage.label(disk & ~c.uncovered,
                                                  structure=_FACE[c.uncovered.ndim])[0])
    collar = np.broadcast_to(disk & ~inside, c.uncovered.shape)
    shape = c.uncovered.shape
    ndim = c.uncovered.ndim
    ps, ws, ucells, wcells = [], [], [], []
    flat_index = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    for axis in range(ndim - dimension, ndim):
        for sign in (-1, 1):
            src = [slice(None)] * ndim
            dst = [slice(None)] * ndim
            if sign == 1:
                src[axis] = slice(None, -1)
                dst[axis] = slice(1, None)
            else:
                src[axis] = slice(1, None)
                dst[axis] = slice(None, -1)
            pu = u_lab[tuple(src)]
            pv = v_lab[tuple(dst)]
            keep = (pu != 0) & (pv != 0) & ~collar[tuple(dst)]
            ps.append(pu[keep])
            ws.append(pv[keep])
            ucells.append(flat_index[tuple(src)][keep])
            wcells.append(flat_index[tuple(dst)][keep])
    P, W = np.concatenate(ps), np.concatenate(ws)
    UC, WC = np.concatenate(ucells), np.concatenate(wcells)
    if P.size == 0:
        return dict(pairs=(), rep_uncovered=(), rep_covered=(), cells=(),
                    uncovered_labels=u_lab, covered_labels=v_lab)
    nv = int(v_lab.max())
    key = P.astype(np.int64) * (nv + 1) + W
    uniq_key, inv = np.unique(key, return_inverse=True)
    k = uniq_key.size
    min_wc = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    min_uc = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(min_wc, inv, WC)
    np.minimum.at(min_uc, inv, UC)
    order = np.argsort(min_wc, kind="stable")
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    pair_rank = rank[inv]
    cell_lists = [[] for _ in range(k)]
    for cell in np.unique(WC):
        cell_lists[int(pair_rank[WC == cell].min())].append(int(cell))
    return dict(
        pairs=tuple((int(uniq_key[i] // (nv + 1)), int(uniq_key[i] % (nv + 1))) for i in order),
        rep_uncovered=tuple(int(min_uc[i]) for i in order),
        rep_covered=tuple(int(min_wc[i]) for i in order),
        cells=tuple(tuple(sorted(lst)) for lst in cell_lists),
        uncovered_labels=u_lab, covered_labels=v_lab)


def _contact_case(key):
    """Scenario and grid; a key ending in '+edge' has no margin, so the disk
    touches the grid border."""
    name, edge, _ = key.partition("+edge")
    kind, _, seed = name.partition("/")
    if kind == "interval":
        s = random_interval_scenario(int(seed))
    else:
        s = builtin_scenario(kind, int(seed or 0))
    return s, grid_for_scenario(s, cells=96, fine_time_samples=16,
                                margin_cells=0 if edge else 4)


_CONTACT_CASES = (["split", "close", "annuli", "empty", "full"]
                  + [f"random/{k}" for k in range(5)]
                  + ["interval/1", "split+edge", "random/1+edge", "interval/1+edge"])


def _check_boundary_pairs(c, dimension, reference=None):
    """boundary_pairs of c against the reference, which labels reference (c
    by default); a cobordism's reference holds every distinct slice. A
    cobordism's label fields hold its end slices, so they are checked
    against the reference's slices 0 and -1. The pairs number uncovered
    components as components(c) does."""
    reference = reference or c
    unc = components(c)
    b = boundary_pairs(c, unc)
    assert isinstance(b, BoundaryComponents)
    want = _reference_boundary_pairs(reference, dimension)
    for field in ("pairs", "rep_uncovered", "rep_covered"):
        assert getattr(b, field) == want[field]
    assert b.count == len(want["pairs"])
    stacked = c.uncovered.ndim > dimension
    steps = (0, reference.uncovered.shape[0] - 1) if stacked else (0,)
    for got, field in ((b.covered_labels, "covered_labels"),
                       (np.stack(unc.ends) if stacked else unc.labels, "uncovered_labels")):
        expected = want[field][list(steps)] if stacked else want[field]
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    assert b.labels.dtype == np.int32
    assert b.labels.shape == (len(steps),) * stacked + c.disk.shape
    # the labels bitmap holds the partition the cell lists spelled out
    size = c.disk.size
    for end, step in enumerate(steps):
        got = b.labels[end] if stacked else b.labels
        lo = step * size
        lists = [[cell - lo for cell in cells if lo <= cell < lo + size]
                 for cells in want["cells"]]
        for i, cells in enumerate(lists):
            assert np.flatnonzero(got.ravel() == i + 1).tolist() == cells
        assert (got > 0).sum() == sum(len(cells) for cells in lists)


@pytest.mark.parametrize("key", _CONTACT_CASES)
def test_boundary_pairs_match_reference(key):
    s, g = _contact_case(key)
    for c in rasterize_fibers(s, [0.0, 0.37, 1.0], g):
        _check_boundary_pairs(c, s.dimension)
    cob = rasterize_cobordism(s, (0.2, 0.6), g)
    # The reference labels the stack of every distinct slice.
    full = dataclasses.replace(
        cob, uncovered=cob.inside & ~coverage_masks(s, cob.times[cob.kept], g))
    _check_boundary_pairs(cob, s.dimension, full)


@settings(max_examples=200, deadline=None)
@given(arrays(np.int64, st.integers(0, 5000),
              elements=st.integers(-2 ** 40, 2 ** 40) | st.integers(0, 40)))
def test_sorted_unique_matches_np_unique(keys):
    want, want_inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(sorted_unique(keys), want)
    got, inverse = sorted_unique(keys, return_inverse=True)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(inverse, want_inverse.ravel())
