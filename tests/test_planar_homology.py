import numpy as np
import pytest
from scipy import ndimage

from evasion_kit.planar_homology import (
    HomologyError,
    alexander_image,
    holes,
    winding,
)
from evasion_kit.rasterize import (
    components,
    count_holes,
    grid_for_scenario,
    label_components,
    rasterize_fiber,
)
from evasion_kit.scenario import builtin_scenario


def _mask(rows):
    return np.array([[ch == "#" for ch in row] for row in rows])


_ST4 = ndimage.generate_binary_structure(2, 1)


def _reference_holes(mask):
    """(cells, fill) masks per bounded complement component, in first-cell order.

    The fill is the component plus everything it encloses: the complement of
    the components of its own complement that reach the grid edge, found by a
    second flood fill.
    """
    labels, n = ndimage.label(np.pad(~mask, 1, constant_values=True), structure=_ST4)
    rim = set(np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]]).tolist())
    out = []
    for lab in range(1, n + 1):
        if lab in rim:
            continue
        hole_p = labels == lab
        flood, _ = ndimage.label(~hole_p, structure=_ST4)
        edge = np.unique(np.concatenate([flood[0], flood[-1], flood[:, 0], flood[:, -1]]))
        fill_p = ~np.isin(flood, edge[edge != 0])
        out.append((hole_p[1:-1, 1:-1], fill_p[1:-1, 1:-1]))
    out.sort(key=lambda item: int(np.flatnonzero(item[0])[0]))
    return out


def _winding_map(cycle, shape):
    """Winding number of the cycle around every cell center of the grid."""
    return np.array([[winding(cycle, (ix + 0.5, iy + 0.5)) for ix in range(shape[1])]
                     for iy in range(shape[0])])


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
    basis = holes(region)
    assert basis.count == 1
    hole = basis.holes[0]
    assert hole.representative == (1, 1)
    # the hole's fill includes the island at (2, 2)
    assert winding(hole.cycle, (2.5, 2.5)) == 1
    assert winding(hole.cycle, (0.5, 0.5)) == 0
    cells, fill = _reference_holes(region)[0]
    assert cells.sum() == 8
    assert np.array_equal(_winding_map(hole.cycle, region.shape), fill.astype(int))


def test_holes_ordering_and_counts():
    region = _mask([
        "#######",
        "#.###.#",
        "#######",
    ])
    basis = holes(region)
    assert basis.count == 2
    assert [h.representative for h in basis.holes] == [(1, 1), (1, 5)]


def test_holes_nested():
    region = np.ones((9, 9), dtype=bool)
    region[2:7, 2:7] = False
    region[3:6, 3:6] = True
    region[4, 4] = False
    basis = holes(region)
    assert basis.count == 2
    outer, inner = basis.holes
    assert outer.representative == (2, 2)
    assert inner.representative == (4, 4)
    # the outer cycle encloses the island and the inner hole as well
    assert winding(outer.cycle, (4.5, 4.5)) == 1
    assert winding(outer.cycle, (3.5, 3.5)) == 1
    assert winding(inner.cycle, (4.5, 4.5)) == 1
    assert winding(inner.cycle, (3.5, 3.5)) == 0


def test_holes_none():
    assert holes(np.ones((4, 4), dtype=bool)).count == 0
    assert holes(np.zeros((4, 4), dtype=bool)).count == 0
    notch = _mask([
        "##.##",
        "##.##",
        "#####",
    ])
    assert holes(notch).count == 0


def test_holes_requires_2d():
    with pytest.raises(HomologyError):
        holes(np.ones(5, dtype=bool))


def test_holes_random_masks_wind_correctly():
    # Each cycle winds once around exactly the cells of its hole's fill,
    # nested holes and islands included.
    rng = np.random.default_rng(17)
    for density in np.repeat((0.35, 0.5, 0.65, 0.8), 30):
        mask = rng.random((14, 14)) < density
        basis = holes(mask)
        reference = _reference_holes(mask)
        assert basis.count == count_holes(mask) == len(reference)
        for hole, (cells, fill) in zip(basis.holes, reference):
            assert hole.representative == tuple(int(v) for v in np.argwhere(cells)[0])
            assert hole.cycle[0] == hole.cycle[-1]
            assert np.array_equal(_winding_map(hole.cycle, mask.shape), fill.astype(int))


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------

_SQUARE = ((0, 0), (2, 0), (2, 2), (0, 2), (0, 0))


def test_winding_square():
    assert winding(_SQUARE, (1.0, 1.0)) == 1
    assert winding(_SQUARE, (3.0, 1.0)) == 0
    assert winding(_SQUARE, (-1.0, 1.0)) == 0
    assert winding(_SQUARE, (1.0, 3.0)) == 0


def test_winding_orientation_and_multiplicity():
    reverse = tuple(reversed(_SQUARE))
    assert winding(reverse, (1.0, 1.0)) == -1
    doubled = _SQUARE[:-1] + _SQUARE
    assert winding(doubled, (1.0, 1.0)) == 2


def test_winding_rejects_degenerate_queries():
    with pytest.raises(HomologyError):
        winding(_SQUARE, (2.0, 1.0))
    with pytest.raises(HomologyError):
        winding(_SQUARE, (1.0, 0.0))
    with pytest.raises(HomologyError):
        winding(((0, 0), (1, 0)), (5.0, 5.0))


# ---------------------------------------------------------------------------
# duality partition
# ---------------------------------------------------------------------------


def _fiber(name, t, cells=128):
    s = builtin_scenario(name)
    return rasterize_fiber(s, t, grid_for_scenario(s, cells=cells))


def test_alexander_image_single_pocket():
    f = _fiber("split", 0.0)
    b = components(f, "covered_boundary")
    assert b.count == 1
    p = alexander_image(f.covered_with_collar, b)
    assert p.blocks == ((1,),)


def test_alexander_image_split_pockets():
    f = _fiber("split", 1.0)
    b = components(f, "covered_boundary")
    assert b.count == 2
    p = alexander_image(f.covered_with_collar, b)
    assert p.blocks == ((1,), (2,))


def test_alexander_image_empty_boundary():
    f = _fiber("empty", 0.5, cells=64)
    b = components(f, "covered_boundary")
    p = alexander_image(f.covered_with_collar, b)
    assert p.ground == ()
    assert p.blocks == ()


def test_alexander_image_rejects_stray_boundary():
    f = _fiber("split", 0.0)
    b = components(f, "covered_boundary")
    with pytest.raises(HomologyError):
        alexander_image(np.zeros_like(f.covered_with_collar), b)


def test_alexander_blocks_match_pockets():
    # labels sharing an uncovered component share a block, one block per pocket
    for name, t in [("split", 0.0), ("split", 1.0), ("annuli", 0.0),
                    ("annuli", 1.0), ("close", 0.0)]:
        f = _fiber(name, t)
        b = components(f, "covered_boundary")
        p = alexander_image(f.covered_with_collar, b)
        by_pocket = {}
        for label, (pocket, _) in zip(range(1, b.count + 1), b.pairs):
            by_pocket.setdefault(pocket, set()).add(label)
        assert {frozenset(blk) for blk in p.blocks} == \
            {frozenset(v) for v in by_pocket.values()}
        assert len(p.blocks) == components(f, "uncovered").count


def test_uncovered_holes_count_covered_islands():
    f = _fiber("annuli", 0.0)
    assert count_holes(f.uncovered) == 2
    _, n = label_components(f.uncovered)
    assert n == 1
