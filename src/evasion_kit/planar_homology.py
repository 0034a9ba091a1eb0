"""The duality partition of boundary labels.

Boundary-only reconstruction pairs the boundary components with the homology
of the covered region. Removing the boundary cells from the covered region
fattens each uncovered pocket into a hole, a bounded complement component,
that holds every boundary cell next to the pocket. Each boundary component's
representative cell therefore lies in exactly one complement component of
that region, and grouping the labels by that component gives the partition
whose dual recovers the uncovered components.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .limit import PartitionAlgebra, partition_algebra
from .rasterize import BoundaryComponents, _complement_holes

__all__ = ["HomologyError", "alexander_image"]


class HomologyError(ValueError):
    """Bad region for the duality partition."""


def alexander_image(c_region: np.ndarray, boundary: BoundaryComponents) -> PartitionAlgebra:
    """Partition of boundary labels by the complement components of c_region.

    c_region is the covered region including the fence collar. Its boundary
    cells are removed before labeling the complement, so each component's
    representative cell lies in one complement component: a hole, or the
    unbounded component. Labels in the same one share a block.
    """
    if c_region.ndim != 2:
        raise HomologyError("boundary reconstruction needs a 2d region")
    bitmap = boundary.labels != 0
    if np.any(bitmap & ~c_region):
        raise HomologyError("boundary cells must lie inside the covered region")
    ground = range(1, boundary.count + 1)
    labels, _ = _complement_holes(c_region & ~bitmap)
    nx = c_region.shape[1]
    groups: Dict[int, List[int]] = {}
    for label, flat in zip(ground, boundary.rep_covered):
        iy, ix = divmod(int(flat), nx)
        # the complement labels carry a one-cell pad on every side
        groups.setdefault(int(labels[iy + 1, ix + 1]), []).append(label)
    return partition_algebra(ground, groups.values())
