import math
import random

import numpy as np
import pytest

from evasion_kit.rasterize import (
    GridSpec,
    RasterError,
    cell_center,
    components,
    count_holes,
    coverage_masks,
    covered_with_collar_labels,
    domain_masks,
    dump_slices,
    grid_for_scenario,
    label_components,
    rasterize_cobordism,
    rasterize_fiber,
    rasterize_fibers,
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
        pos = [tuple(p) for p in np.asarray(
            [track_pos for track_pos in _positions(s, t)])]
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


def _positions(s, t):
    from evasion_kit.scenario import sensor_position

    return [sensor_position(s, j, t) for j in range(s.sensor_count)]


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
    assert components(f, "uncovered").count == 1
    assert count_holes(f.covered_with_collar) == 1
    assert components(f, "covered_boundary").count == 3


def test_boundary_pairs_partition_bitmap():
    s = builtin_scenario("split")
    g = grid_for_scenario(s, cells=128)
    for t in (0.0, 1.0):
        f = rasterize_fiber(s, t, g)
        b = components(f, "covered_boundary")
        stitched = np.zeros(f.uncovered.shape, dtype=bool)
        for cells in b.cells:
            flat = stitched.ravel()
            assert not flat[list(cells)].any()
            flat[list(cells)] = True
        assert np.array_equal(stitched, f.covered_boundary)
        assert (b.labels > 0).sum() == f.covered_boundary.sum()


def test_empty_scenario_has_no_boundary():
    s = builtin_scenario("empty")
    g = grid_for_scenario(s, cells=64)
    f = rasterize_fiber(s, 0.5, g)
    assert not f.covered_boundary.any()
    assert components(f, "covered_boundary").count == 0
    assert components(f, "uncovered").count == 1
    assert components(f, "covered").count == 0


def test_components_rejects_unknown_region():
    s = builtin_scenario("empty")
    g = grid_for_scenario(s, cells=32)
    f = rasterize_fiber(s, 0.0, g)
    with pytest.raises(RasterError):
        components(f, "nonesuch")


def test_covered_with_collar_labels_region():
    s = builtin_scenario("split")
    g = grid_for_scenario(s, cells=96)
    f = rasterize_fiber(s, 0.0, g)
    lab = covered_with_collar_labels(f)
    assert lab.which == "covered_with_collar"
    assert lab.count >= 1
    assert (lab.labels > 0).sum() == f.covered_with_collar.sum()


def test_cobordism_samples_and_slices():
    s = builtin_scenario("close")
    g = grid_for_scenario(s, cells=48, fine_time_samples=5)
    cob = rasterize_cobordism(s, (0.2, 0.6), g)
    assert cob.slice_count == 5
    assert cob.times[0] == pytest.approx(0.2)
    assert cob.times[-1] == pytest.approx(0.6)
    mid = cob.slice_at(2)
    direct = rasterize_fiber(s, float(cob.times[2]), g)
    assert np.array_equal(mid.uncovered, direct.uncovered)
    assert np.array_equal(mid.covered_boundary, direct.covered_boundary)
    fine = rasterize_cobordism(s, (0.2, 0.6), g, fine_time_samples=9)
    assert fine.slice_count == 9
    with pytest.raises(RasterError):
        rasterize_cobordism(s, (0.6, 0.2), g)


def test_cobordism_components_connect_in_time():
    # a pocket present on every sub-sample is one space-time component
    s = builtin_scenario("annuli")
    g = grid_for_scenario(s, cells=64, fine_time_samples=8)
    cob = rasterize_cobordism(s, (0.0, 0.2), g)
    assert components(cob, "uncovered").count == 1


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


def test_dump_slices_pbm(tmp_path):
    s = builtin_scenario("empty")
    g = grid_for_scenario(s, cells=16, fine_time_samples=3)
    cob = rasterize_cobordism(s, (0.0, 1.0), g)
    paths = dump_slices(cob, str(tmp_path), prefix="frame")
    assert len(paths) == 3
    head = (tmp_path / "frame_000.pbm").read_text().splitlines()
    assert head[0] == "P1"
    assert head[1] == "16 16"


def test_thread_count_env(monkeypatch):
    from evasion_kit.rasterize import thread_count

    monkeypatch.delenv("EVASION_KIT_THREADS", raising=False)
    assert thread_count() >= 1
    monkeypatch.setenv("EVASION_KIT_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("EVASION_KIT_THREADS", "0")
    assert thread_count() == 1
