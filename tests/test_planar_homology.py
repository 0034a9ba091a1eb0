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


def _region(rows):
    """The covered region ('#') of a picture, and its label bitmap: a digit
    k marks a cell off the region that carries label k."""
    region = np.array([[ch == "#" for ch in row] for row in rows])
    labels = np.array([[int(ch) if ch.isdigit() else 0 for ch in row] for row in rows],
                      dtype=np.int32)
    return region, labels


def _boundary(labels):
    """FiberBoundary with one label per nonzero value of the bitmap labels.

    Only the fields alexander_image reads are meaningful: the count, and
    each label's least cell as its uncovered representative.
    """
    count = int(labels.max())
    reps = tuple(int(np.flatnonzero(labels.ravel() == k)[0]) for k in range(1, count + 1))
    return FiberBoundary(
        count=count, pairs=tuple((k, k) for k in range(1, count + 1)),
        rep_uncovered=reps, rep_covered=reps)


def _partition(region, labels):
    """alexander_image of the labels, checked against the fill reference."""
    b = _boundary(labels)
    p = alexander_image(region, b)
    assert p == fill_partition(region, b)
    return p


# A hole nested inside an island inside another hole, with an outside ring:
# a 3-cell-thick island in the outer hole, around a one-cell inner hole at
# (7, 7); labels 1 and 5 outside, 2 and 3 in the outer hole, 4 in the inner.
_NESTED_ROWS = [
    "1..............",
    ".#############.",
    ".#############.",
    ".##2........##.",
    ".##.#######.##.",
    ".##.#######.##.",
    ".##.#######.##.",
    ".##.###4###.##.",
    ".##.#######.##.",
    ".##.#######.##.",
    ".##.#######.##.",
    ".##.......3.##.",
    ".#############.",
    ".#############.",
    "..............5",
]


# ---------------------------------------------------------------------------
# holes
# ---------------------------------------------------------------------------


def test_holes_simple_ring():
    region, labels = _region([
        ".......",
        ".#####.",
        ".#1..#.",
        ".#.#.#.",
        ".#..2#.",
        ".#####.",
        "3......",
    ])
    assert count_holes(region) == 1
    # the labels in the ring around the island share it; the corner is outside
    p = _partition(region, labels)
    assert p.blocks == ((1, 2), (3,))


def test_holes_ordering_and_counts():
    region, labels = _region([
        "#########",
        "#1.#2#.3#",
        "#########",
    ])
    assert count_holes(region) == 3
    # a covered wall one cell thick keeps the holes on either side apart
    assert _partition(region, labels).blocks == ((1,), (2,), (3,))
    # so does a diagonal pinch: face adjacency does not cross it
    region, labels = _region([
        "####",
        "#1##",
        "##2#",
        "####",
    ])
    assert count_holes(region) == 2
    assert _partition(region, labels).blocks == ((1,), (2,))


def test_holes_nested():
    region, labels = _region(_NESTED_ROWS)
    assert count_holes(region) == 2
    # outside, outer hole, inner hole
    assert _partition(region, labels).blocks == ((1, 5), (2, 3), (4,))


def test_holes_none():
    region, labels = _region([
        "##1##",
        "##2##",
        "#####",
    ])
    assert count_holes(region) == 0
    assert _partition(region, labels).blocks == ((1, 2),)


def test_holes_requires_2d():
    with pytest.raises(HomologyError):
        alexander_image(np.ones(5, dtype=bool), _boundary(np.zeros(5, dtype=np.int32)))


def test_alexander_image_matches_fill_reference():
    # Random regions with labels on random cells off them: the
    # complement-label grouping equals the joint level sets of the fill
    # functionals.
    rng = np.random.default_rng(17)
    outside = split = 0
    for density in np.repeat((0.35, 0.5, 0.65, 0.8), 30):
        region = rng.random((14, 14)) < density
        assert count_holes(region) == len(reference_holes(region))
        chosen = ~region & (rng.random(region.shape) < 0.3)
        labels = np.zeros(region.shape, dtype=np.int32)
        labels[chosen] = rng.integers(1, 6, size=int(chosen.sum()))
        if not chosen.any():
            continue
        # renumber the labels that occur as 1..count; 0 always occurs
        labels = np.searchsorted(np.unique(labels), labels).astype(np.int32)
        p = _partition(region, labels)
        fills = [fill for _, fill in reference_holes(region)]
        outside += sum(not any(fill.flat[r] for fill in fills)
                       for r in _boundary(labels).rep_uncovered)
        split += len(p.blocks) > 1
    assert outside > 0 and split > 0


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
    p = alexander_image(f.covered_with_collar, b)
    assert p.blocks == ((1,),)


def test_alexander_image_split_pockets():
    f = _fiber("split", 1.0)
    b = reference_fiber_boundary(f)
    assert b.count == 2
    p = alexander_image(f.covered_with_collar, b)
    assert p.blocks == ((1,), (2,))


def test_alexander_image_empty_boundary():
    f = _fiber("empty", 0.5, cells=64)
    b = reference_fiber_boundary(f)
    p = alexander_image(f.covered_with_collar, b)
    assert p.ground == ()
    assert p.blocks == ()


def test_alexander_image_rejects_stray_boundary():
    # uncovered representatives that the region covers name no hole
    f = _fiber("split", 0.0)
    b = reference_fiber_boundary(f)
    with pytest.raises(HomologyError):
        alexander_image(np.ones_like(f.covered_with_collar), b)


def test_alexander_blocks_match_pockets():
    # labels sharing an uncovered component share a block, one block per pocket
    for name, t in [("split", 0.0), ("split", 1.0), ("annuli", 0.0),
                    ("annuli", 1.0), ("close", 0.0)]:
        f = _fiber(name, t)
        b = reference_fiber_boundary(f)
        p = alexander_image(f.covered_with_collar, b)
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
