"""The duality partition of boundary labels.

Boundary-only reconstruction pairs the boundary components with the homology
of the covered region. By Alexander duality the complement components of the
covered region (its holes, and the unbounded component) stand for its first
cohomology, and the complement is the uncovered region plus the cells off
the disk. Each boundary component's uncovered-side representative cell lies
in exactly one complement component, and grouping the labels by that
component gives the partition whose dual recovers the uncovered components.
The region is labeled as it is, so a covered wall one cell thick, or a
diagonal pinch, still keeps the pockets on either side apart.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .limit import PartitionAlgebra, partition_algebra
from .rasterize import FiberBoundary, _complement_holes

__all__ = ["HomologyError", "alexander_image"]


class HomologyError(ValueError):
    """Bad region for the duality partition."""


def alexander_image(c_region: np.ndarray, boundary: FiberBoundary) -> PartitionAlgebra:
    """Partition of boundary labels by the complement components of c_region.

    c_region is the covered region including the fence collar. Each boundary
    component's representative is its least uncovered contact cell
    (FiberBoundary.rep_uncovered), off c_region, so it lies in one
    complement component: a hole, or the unbounded component. Labels in the
    same one share a block.
    """
    if c_region.ndim != 2:
        raise HomologyError("boundary reconstruction needs a 2d region")
    ground = range(1, boundary.count + 1)
    labels, _ = _complement_holes(c_region)
    nx = c_region.shape[1]
    groups: Dict[int, List[int]] = {}
    for label, flat in zip(ground, boundary.rep_uncovered):
        iy, ix = divmod(int(flat), nx)
        # the complement labels carry a one-cell pad on every side
        hole = int(labels[iy + 1, ix + 1])
        if hole == 0:
            raise HomologyError("boundary representatives must lie off the covered region")
        groups.setdefault(hole, []).append(label)
    return partition_algebra(ground, groups.values())
