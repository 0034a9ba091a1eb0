"""Hole bases, winding numbers, and the duality partition of boundary labels.

Holes of a planar cell region are the bounded components of its complement.
Each hole gets a representative interior cell and the counterclockwise outer
contour of its filled-in extent, traced on the cell corner lattice. Pairing
those contours with boundary components through winding numbers converts
positional information about the covered region into functionals on the
boundary label set; the joint level sets of these functionals are exactly the
partition whose dual recovers the uncovered components, which is what makes
boundary-only reconstruction possible.

Corner coordinates are integers and representative points are cell centers
(half-integers), so every winding evaluation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .limit import PartitionAlgebra, partition_from_functionals
from .rasterize import BoundaryComponents, _complement_holes

__all__ = [
    "Hole",
    "HoleBasis",
    "holes",
    "winding",
    "alexander_image",
]

Corner = Tuple[int, int]


class HomologyError(ValueError):
    """Degenerate geometric query (point on a cycle, bad region)."""


@dataclass(frozen=True)
class Hole:
    """One bounded complement component of a region."""

    representative: Tuple[int, int]
    cycle: Tuple[Corner, ...]


@dataclass(frozen=True)
class HoleBasis:
    holes: Tuple[Hole, ...]

    @property
    def count(self) -> int:
        return len(self.holes)


# ---------------------------------------------------------------------------
# contour tracing
# ---------------------------------------------------------------------------

_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # E N W S as (dx, dy)


def _ahead_cells(corner: Corner, d: Tuple[int, int]) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(ahead-left, ahead-right) cell indices (ix, iy) seen from a corner."""
    cx, cy = corner
    dx, dy = d
    if (dx, dy) == (1, 0):
        return (cx, cy), (cx, cy - 1)
    if (dx, dy) == (0, 1):
        return (cx - 1, cy), (cx, cy)
    if (dx, dy) == (-1, 0):
        return (cx - 1, cy - 1), (cx - 1, cy)
    return (cx, cy - 1), (cx - 1, cy - 1)


def _outer_contour(mask: np.ndarray) -> Tuple[Corner, ...]:
    """CCW corner cycle around a nonempty cell set, region kept on the left."""
    ny, nx = mask.shape

    def filled(cell: Tuple[int, int]) -> bool:
        ix, iy = cell
        return 0 <= ix < nx and 0 <= iy < ny and bool(mask[iy, ix])

    start_flat = int(np.flatnonzero(mask.ravel())[0])
    iy0, ix0 = divmod(start_flat, nx)
    start: Corner = (ix0, iy0)
    east = (1, 0)
    corners: List[Corner] = [start]
    c, d = start, east
    limit = 4 * int(mask.sum()) + 8
    for _ in range(limit):
        left_cell, right_cell = _ahead_cells(c, d)
        if filled(right_cell):
            d = (d[1], -d[0])
        elif filled(left_cell):
            pass
        else:
            d = (-d[1], d[0])
        # The row below start is empty, so the only way back to start is the
        # southbound left edge of its cell; the turn there restores east and
        # the next move would retrace the first edge.
        if c == start and d == east and len(corners) > 1:
            break
        c = (c[0] + d[0], c[1] + d[1])
        corners.append(c)
    else:
        raise HomologyError("contour trace did not close")

    area2 = 0
    for (x1, y1), (x2, y2) in zip(corners, corners[1:]):
        area2 += x1 * y2 - x2 * y1
    if area2 <= 0:
        raise HomologyError("contour is not counterclockwise")
    return tuple(corners)


def holes(region: np.ndarray) -> HoleBasis:
    """Bounded complement components of a 2d region, canonically ordered.

    Each hole's cycle is the outer contour of its filled extent (the hole plus
    anything it encloses), so the cycle winds once around every cell inside
    the hole or nested within it. The hole's own contour is that contour: the
    trace keeps the unbounded part of the hole's complement on its right, and
    every cell it inspects is a hole cell or lies in that part, so filling
    what the hole encloses would not change a step.
    """
    if region.ndim != 2:
        raise HomologyError("holes are only defined for 2d regions")
    labels, count = _complement_holes(region)
    width = labels.shape[1]
    found: List[Hole] = []
    for lab in range(2, count + 2):
        hole_p = labels == lab
        cycle = tuple((cx - 1, cy - 1) for cx, cy in _outer_contour(hole_p))
        py, px = divmod(int(np.flatnonzero(hole_p.ravel())[0]), width)
        found.append(Hole(representative=(py - 1, px - 1), cycle=cycle))
    return HoleBasis(holes=tuple(found))


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------


def winding(cycle: Sequence[Corner], point: Tuple[float, float]) -> int:
    """Winding number of a closed axis-aligned corner cycle around a point.

    Counts signed crossings of the rightward horizontal ray with the half-open
    vertex rule, so integer cycles evaluated at cell centers are exact. Points
    on the cycle are rejected.
    """
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise HomologyError("cycle must be closed (first corner repeated at the end)")
    px, py = point
    w = 0
    for (x1, y1), (x2, y2) in zip(cycle, cycle[1:]):
        if x1 == x2:
            if (y1 <= py <= y2 or y2 <= py <= y1) and x1 == px:
                raise HomologyError("point lies on the cycle")
            if x1 > px:
                if y1 <= py < y2:
                    w += 1
                elif y2 <= py < y1:
                    w -= 1
        else:
            if y1 == py and (x1 <= px <= x2 or x2 <= px <= x1):
                raise HomologyError("point lies on the cycle")
    return w


# ---------------------------------------------------------------------------
# duality partition
# ---------------------------------------------------------------------------


def alexander_image(c_region: np.ndarray, boundary: BoundaryComponents) -> PartitionAlgebra:
    """Partition of boundary labels by the winding functionals of c_region.

    c_region is the covered region including the fence collar. Its boundary
    cells are removed before taking holes, which fattens each uncovered pocket
    into a hole whose contour strictly encloses the adjacent boundary cells;
    the winding of each hole contour around each component's representative
    cell center is then a well-defined 0/1 functional on the label set.
    """
    if c_region.ndim != 2:
        raise HomologyError("boundary reconstruction needs a 2d region")
    bitmap = boundary.labels != 0
    if np.any(bitmap & ~c_region):
        raise HomologyError("boundary cells must lie inside the covered region")
    ground = tuple(range(1, boundary.count + 1))
    if not ground:
        return partition_from_functionals((), [])
    basis = holes(c_region & ~bitmap)
    nx = c_region.shape[1]
    reps = {}
    for label, flat in zip(ground, boundary.rep_covered):
        iy, ix = divmod(int(flat), nx)
        reps[label] = (ix + 0.5, iy + 0.5)
    functionals = []
    for hole in basis.holes:
        functionals.append({label: winding(hole.cycle, reps[label]) for label in ground})
    return partition_from_functionals(ground, functionals)
