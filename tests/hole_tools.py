"""Flood-fill reference for holes and the duality partition of boundary labels."""

import numpy as np
from scipy import ndimage

from evasion_kit.limit import partition_algebra

_ST4 = ndimage.generate_binary_structure(2, 1)


def reference_holes(mask):
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


def fill_partition(c_region, boundary):
    """Boundary labels grouped by which hole fills hold their representative.

    The holes are those of c_region minus the boundary cells; each hole gives
    the functional "the representative lies in this hole's fill", and the
    labels are split into the joint level sets of those functionals.
    """
    region = c_region & (boundary.labels == 0)
    fills = [fill for _, fill in reference_holes(region)]
    groups = {}
    for label, flat in enumerate(boundary.rep_covered, start=1):
        cell = np.unravel_index(flat, region.shape)
        key = tuple(bool(fill[cell]) for fill in fills)
        groups.setdefault(key, []).append(label)
    return partition_algebra(range(1, boundary.count + 1), groups.values())
