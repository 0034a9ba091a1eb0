"""Reference boundary pairs, the one every test file checks the program's against.

The reference labels a complex's uncovered and covered-with-collar regions
with scipy and renumbers both by first cell, gathers every contact with a
boolean read per direction on strided views, and ranks the pairs with
np.unique, so it shares no code with the program's pair readers.
"""

import numpy as np
from scipy import ndimage

from evasion_kit.rasterize import FiberBoundary

FACE = {
    1: np.ones(3, dtype=bool),
    2: ndimage.generate_binary_structure(2, 1),
    3: ndimage.generate_binary_structure(3, 1),
}


def reference_canonical(labels):
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


def reference_boundary_pairs(c, dimension):
    """The boundary pairs of a fiber or of a cobordism's stack of slices.

    Returns a dict of the ranked pairs, each pair's least uncovered and
    covered contact cell (flat in c's arrays), and the uncovered and
    covered-with-collar labels. A stack's labels join the same cell across
    consecutive slices.
    """
    stacked = c.uncovered.ndim > dimension
    disk = c.disk[None] if stacked else c.disk
    inside = c.inside[None] if stacked else c.inside
    u_lab, _ = reference_canonical(ndimage.label(c.uncovered, structure=FACE[c.uncovered.ndim])[0])
    v_lab, _ = reference_canonical(ndimage.label(disk & ~c.uncovered,
                                                 structure=FACE[c.uncovered.ndim])[0])
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
        return dict(pairs=(), rep_uncovered=(), rep_covered=(),
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
    return dict(
        pairs=tuple((int(uniq_key[i] // (nv + 1)), int(uniq_key[i] % (nv + 1))) for i in order),
        rep_uncovered=tuple(int(min_uc[i]) for i in order),
        rep_covered=tuple(int(min_wc[i]) for i in order),
        uncovered_labels=u_lab, covered_labels=v_lab)


def reference_fiber_boundary(f):
    """reference_boundary_pairs of a fiber, as the FiberBoundary it must equal."""
    want = reference_boundary_pairs(f, f.uncovered.ndim)
    return FiberBoundary(count=len(want["pairs"]), pairs=want["pairs"],
                         rep_uncovered=want["rep_uncovered"], rep_covered=want["rep_covered"])
