import numpy as np
import pytest

from evasion_kit.planar_homology import HomologyError, alexander_image
from evasion_kit.rasterize import (
    FiberBoundary,
    components,
    count_holes,
    grid_for_scenario,
    label_components,
    rasterize_fiber,
)
from evasion_kit.scenario import builtin_scenario
from boundary_tools import reference_fiber_boundary
from hole_tools import fill_partition, reference_holes


def _mask(rows):
    return np.array([[ch == "#" for ch in row] for row in rows])


def _boundary(labels):
    """FiberBoundary with one label per nonzero value of the bitmap labels.

    Only the fields alexander_image reads are meaningful: the count, and
    each label's least cell as its covered representative.
    """
    count = int(labels.max())
    reps = tuple(int(np.flatnonzero(labels.ravel() == k)[0]) for k in range(1, count + 1))
    return FiberBoundary(
        count=count, pairs=tuple((k, k) for k in range(1, count + 1)),
        rep_uncovered=reps, rep_covered=reps)


def _labels(shape, groups):
    """Label bitmap with the cells of groups[k - 1] labeled k."""
    labels = np.zeros(shape, dtype=np.int32)
    for k, cells in enumerate(groups, start=1):
        for cell in cells:
            labels[cell] = k
    return labels


def _partition(region, groups):
    """alexander_image of the labels, checked against the fill reference."""
    labels = _labels(region.shape, groups)
    b = _boundary(labels)
    p = alexander_image(region, labels != 0, b)
    assert p == fill_partition(region, labels != 0, b)
    return p


# A hole nested inside an island inside another hole: a 3-cell-thick island
# ring in the outer hole, around a one-cell inner hole at (6, 6).
_NESTED = np.ones((13, 13), dtype=bool)
_NESTED[2:11, 2:11] = False
_NESTED[3:10, 3:10] = True
_NESTED[6, 6] = False


# ---------------------------------------------------------------------------
# holes
# ---------------------------------------------------------------------------


def test_holes_simple_ring():
    region = _mask([
        "#####",
        "#...#",
        "#.#.#",
        "#...#",
        "#####",
    ])
    assert count_holes(region) == 1
    # the island label lies in the hole, the corner labels outside it
    p = _partition(region, [[(0, 0)], [(2, 2)], [(4, 4)]])
    assert p.blocks == ((1, 3), (2,))


def test_holes_ordering_and_counts():
    region = _mask([
        "#######",
        "#.###.#",
        "#######",
    ])
    assert count_holes(region) == 2
    assert _partition(region, [[(1, 2)], [(1, 4)]]).blocks == ((1,), (2,))
    # removing the middle wall cell too merges the two holes
    assert _partition(region, [[(1, 2)], [(1, 4)], [(1, 3)]]).blocks == ((1, 2, 3),)


def test_holes_nested():
    assert count_holes(_NESTED) == 2
    # outside, outer hole, a new one-cell hole inside the island, inner hole
    p = _partition(_NESTED, [[(0, 0)], [(3, 3)], [(4, 4)], [(5, 6)], [(7, 6)], [(12, 12)]])
    assert p.blocks == ((1, 6), (2,), (3,), (4, 5))


def test_holes_none():
    notch = _mask([
        "##.##",
        "##.##",
        "#####",
    ])
    assert count_holes(notch) == 0
    assert _partition(notch, [[(0, 1)], [(2, 4)]]).blocks == ((1, 2),)


def test_holes_requires_2d():
    with pytest.raises(HomologyError):
        alexander_image(np.ones(5, dtype=bool), np.zeros(5, dtype=bool),
                        _boundary(np.zeros(5, dtype=np.int32)))


def test_alexander_image_matches_fill_reference():
    # Random regions with random boundary subsets: the complement-label
    # grouping equals the joint level sets of the fill functionals.
    rng = np.random.default_rng(17)
    outside = split = 0
    for density in np.repeat((0.35, 0.5, 0.65, 0.8), 30):
        region = rng.random((14, 14)) < density
        assert count_holes(region) == len(reference_holes(region))
        chosen = region & (rng.random(region.shape) < 0.15)
        labels = np.zeros(region.shape, dtype=np.int32)
        labels[chosen] = rng.integers(1, 6, size=int(chosen.sum()))
        if not chosen.any():
            continue
        # renumber the labels that occur as 1..count; 0 always occurs
        labels = np.searchsorted(np.unique(labels), labels).astype(np.int32)
        b = _boundary(labels)
        p = alexander_image(region, labels != 0, b)
        assert p == fill_partition(region, labels != 0, b)
        free = region & (labels == 0)
        fills = [fill for _, fill in reference_holes(free)]
        outside += sum(not any(fill.flat[r] for fill in fills) for r in b.rep_covered)
        split += len(p.blocks) > 1
    assert outside > 0 and split > 0
    _partition(_NESTED, [[(0, 0)], [(3, 3)], [(4, 4)], [(5, 6)]])


# ---------------------------------------------------------------------------
# duality partition
# ---------------------------------------------------------------------------


def _fiber(name, t, cells=128):
    s = builtin_scenario(name)
    return rasterize_fiber(s, t, grid_for_scenario(s, cells=cells))


def test_alexander_image_single_pocket():
    f = _fiber("split", 0.0)
    b = reference_fiber_boundary(f)
    assert b.count == 1
    p = alexander_image(f.covered_with_collar, f.covered_boundary, b)
    assert p.blocks == ((1,),)


def test_alexander_image_split_pockets():
    f = _fiber("split", 1.0)
    b = reference_fiber_boundary(f)
    assert b.count == 2
    p = alexander_image(f.covered_with_collar, f.covered_boundary, b)
    assert p.blocks == ((1,), (2,))


def test_alexander_image_empty_boundary():
    f = _fiber("empty", 0.5, cells=64)
    b = reference_fiber_boundary(f)
    p = alexander_image(f.covered_with_collar, f.covered_boundary, b)
    assert p.ground == ()
    assert p.blocks == ()


def test_alexander_image_rejects_stray_boundary():
    f = _fiber("split", 0.0)
    b = reference_fiber_boundary(f)
    with pytest.raises(HomologyError):
        alexander_image(np.zeros_like(f.covered_with_collar), f.covered_boundary, b)


def test_alexander_blocks_match_pockets():
    # labels sharing an uncovered component share a block, one block per pocket
    for name, t in [("split", 0.0), ("split", 1.0), ("annuli", 0.0),
                    ("annuli", 1.0), ("close", 0.0)]:
        f = _fiber(name, t)
        b = reference_fiber_boundary(f)
        p = alexander_image(f.covered_with_collar, f.covered_boundary, b)
        by_pocket = {}
        for label, (pocket, _) in zip(range(1, b.count + 1), b.pairs):
            by_pocket.setdefault(pocket, set()).add(label)
        assert {frozenset(blk) for blk in p.blocks} == \
            {frozenset(v) for v in by_pocket.values()}
        assert len(p.blocks) == components(f).count


def test_uncovered_holes_count_covered_islands():
    f = _fiber("annuli", 0.0)
    assert count_holes(f.uncovered) == 2
    _, n = label_components(f.uncovered)
    assert n == 1
