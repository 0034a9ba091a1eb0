"""Rasterization of scenarios onto regular cell grids.

Cells are axis-aligned squares (segments in dimension 1) sampled at their
centers. A cell is uncovered at time t when its center lies strictly inside
the fenced part of the domain and strictly farther than the sensing radius
from every sensor; covered cells are the cell-exact complement within the
fenced region. The fence collar is the ring of in-disk cells outside the
fenced region; collar cells count as covered but never as covered_boundary.

Component labeling is canonical: labels are assigned in order of each
component's least flat cell index. This is scipy's raster-order numbering,
used as ndimage.label returns it; a property test pins that assumption.
Boundary components are adjacency pairs (uncovered component, covered
component), the discrete counterparts of the boundary curves; see
components() for the rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage

from .scenario import Scenario, positions_at

__all__ = [
    "GridSpec",
    "grid_for_scenario",
    "FiberComplex",
    "CobordismComplex",
    "rasterize_fiber",
    "rasterize_fibers",
    "rasterize_cobordism",
    "BoxCoverage",
    "ComponentLabels",
    "CobordismComponents",
    "BoundaryComponents",
    "components",
    "face_contacts",
    "bounding_box",
    "label_components",
    "label_slices",
    "StackGraph",
    "stack_graph",
    "sweep",
    "domain_masks",
    "count_holes",
    "cell_center",
]


class RasterError(ValueError):
    """Invalid grid or rasterization request."""


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid covering the domain's bounding box.

    origin is the lower corner of the box; shape follows array layout, so a
    two-dimensional grid of shape (ny, nx) stores masks indexed [iy, ix].
    """

    cell_size: float
    origin: Tuple[float, ...]
    shape: Tuple[int, ...]
    fine_time_samples: int = 64

    def __post_init__(self) -> None:
        if self.cell_size <= 0.0:
            raise RasterError("cell size must be positive")
        if self.fine_time_samples < 2:
            raise RasterError("fine time samples must be at least 2")
        if len(self.origin) != len(self.shape) or not self.shape:
            raise RasterError("origin and shape must have matching positive length")
        if any(n < 1 for n in self.shape):
            raise RasterError("grid shape entries must be positive")

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.shape))


def grid_for_scenario(s: Scenario, cells: int = 128, fine_time_samples: int = 64,
                      margin_cells: int = 4) -> GridSpec:
    """Square grid of `cells` per axis whose box exceeds the disk by a margin."""
    if cells <= 2 * margin_cells:
        raise RasterError("grid too small for the requested margin")
    h = 2.0 * s.radius / (cells - 2 * margin_cells)
    half = 0.5 * cells * h
    if s.dimension == 1:
        origin: Tuple[float, ...] = (s.center[0] - half,)
        shape: Tuple[int, ...] = (cells,)
    else:
        origin = (s.center[0] - half, s.center[1] - half)
        shape = (cells, cells)
    return GridSpec(cell_size=h, origin=origin, shape=shape, fine_time_samples=fine_time_samples)


def cell_center(grid: GridSpec, cell: Tuple[int, ...]) -> Tuple[float, ...]:
    """World coordinates of a cell center; cell is an array index tuple."""
    h = grid.cell_size
    if grid.dimension == 1:
        return (grid.origin[0] + (cell[0] + 0.5) * h,)
    iy, ix = cell
    return (grid.origin[0] + (ix + 0.5) * h, grid.origin[1] + (iy + 0.5) * h)


@lru_cache(maxsize=32)
def _axis_centers(grid: GridSpec) -> Tuple[np.ndarray, ...]:
    """Cell center coordinates along each world axis: (xs,) or (xs, ys)."""
    h = grid.cell_size
    sizes = grid.shape if grid.dimension == 1 else grid.shape[::-1]
    return tuple(o + (np.arange(n) + 0.5) * h for o, n in zip(grid.origin, sizes))


@lru_cache(maxsize=32)
def _center_grids(grid: GridSpec) -> Tuple[np.ndarray, ...]:
    if grid.dimension == 1:
        return _axis_centers(grid)
    xs, ys = _axis_centers(grid)
    shape = grid.shape
    return (np.broadcast_to(xs[None, :], shape), np.broadcast_to(ys[:, None], shape))


@lru_cache(maxsize=64)
def _domain_masks(s: Scenario, grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """(disk, inside): cell centers within the disk / strictly inside the fence."""
    if grid.dimension != s.dimension:
        raise RasterError("grid dimension does not match the scenario")
    cg = _center_grids(grid)
    if s.dimension == 1:
        d = np.abs(cg[0] - s.center[0])
    else:
        d = np.hypot(cg[0] - s.center[0], cg[1] - s.center[1])
    disk = d <= s.radius
    inside = d < s.radius - s.fence_width
    disk.flags.writeable = False
    inside.flags.writeable = False
    return disk, inside


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def _in_ball(offsets: Sequence[np.ndarray], r2: float) -> np.ndarray:
    """The ball test every coverage read shares.

    offsets holds, per world axis (x, then y), cell centers minus the ball's
    center; they broadcast against each other.
    """
    d2 = offsets[0] * offsets[0]
    for d in offsets[1:]:
        d2 = d2 + d * d
    return d2 <= r2


@lru_cache(maxsize=64)
def _static_union(s: Scenario, grid: GridSpec) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Union of the balls of constant tracks, plus the moving track indices."""
    cg = _center_grids(grid)
    r2 = s.sensing_radius * s.sensing_radius
    union = np.zeros(grid.shape, dtype=bool)
    moving = []
    for j, track in enumerate(s.tracks):
        pts = {wp[1] for wp in track.waypoints}
        if len(pts) > 1:
            moving.append(j)
            continue
        p = next(iter(pts))
        union |= _in_ball([c - x for c, x in zip(cg, p)], r2)
    union.flags.writeable = False
    return union, tuple(moving)


def _spread(v: np.ndarray, k: int, dim: int) -> np.ndarray:
    """v (times, cells along world axis k), shaped to broadcast over
    (times, *cells) in array order."""
    shape = [v.shape[0]] + [1] * dim
    shape[dim - k] = v.shape[1]
    return v.reshape(shape)


def _patch_balls(axes: Sequence[np.ndarray], idx: Sequence[np.ndarray],
                 p: np.ndarray, r2: float) -> np.ndarray:
    """Per time, the ball around p (times, world axes) on a patch of cells.

    idx holds, per world axis, each time's cell indices (times, cells); the
    result is (times, *patch) in array order.
    """
    dim = len(axes)
    return _in_ball([_spread(a[i] - p[:, k][:, None], k, dim)
                     for k, (a, i) in enumerate(zip(axes, idx))], r2)


class BoxCoverage:
    """Coverage of a box of cells at each of a list of times.

    box holds slices in array order, such as bounding_box returns; each
    cell's arithmetic is that of the whole grid. The static union is read
    off its cached mask, and a moving ball is tested only on a window around
    it: cells beyond one cell of the ball's extent on an axis fail the
    distance test on that coordinate alone, so the window leaves the result
    exact. Every ball test is _in_ball, so masks, covered and flips agree
    cell by cell.
    """

    def __init__(self, s: Scenario, times: Sequence[float], grid: GridSpec,
                 box: Optional[Tuple[slice, ...]] = None) -> None:
        if box is None:
            box = (slice(None),) * grid.dimension
        static, moving = _static_union(s, grid)
        # A contiguous crop lets masks fill each time as one block.
        self.static = np.ascontiguousarray(static[box])
        # World axes run (x, y); array axes run (y, x).
        self.axes = tuple(c[b] for c, b in zip(_axis_centers(grid), box[::-1]))
        times = np.asarray(times, dtype=float)
        self.positions = (positions_at(s, times)[list(moving)] if moving
                          else np.zeros((0, times.size, grid.dimension)))
        r = s.sensing_radius
        self.r2 = r * r
        self.reach = r + grid.cell_size
        self.width = int(np.ceil(2.0 * r / grid.cell_size)) + 3

    def _window(self, p: np.ndarray, k: int) -> Tuple[int, np.ndarray]:
        """The window width on world axis k, and per time its first cell: the
        window holds every center within reach of the track's position p."""
        c = self.axes[k]
        w = min(self.width, c.size)
        return w, np.minimum(np.searchsorted(c, p[:, k] - self.reach), c.size - w)

    def masks(self) -> np.ndarray:
        """Boolean stack (T, *box shape) of the covered cells."""
        n = self.positions.shape[1]
        dim = len(self.axes)
        ball = np.broadcast_to(self.static, (n,) + self.static.shape).copy()
        steps = np.arange(n).reshape((-1,) + (1,) * dim)
        for p in self.positions:
            idx = []
            for k in range(dim):
                w, start = self._window(p, k)
                idx.append(start[:, None] + np.arange(w))
            cells = tuple(_spread(i, k, dim) for k, i in enumerate(idx))
            ball[(steps,) + cells[::-1]] |= _patch_balls(self.axes, idx, p, self.r2)
        return ball

    def covered(self, steps: np.ndarray, cells: Sequence[np.ndarray]) -> np.ndarray:
        """Whether cell i (index arrays in array order) is covered at time steps[i]."""
        cells = tuple(cells)
        out = self.static[cells]
        for p in self.positions:
            out = out | _in_ball([a[i] - p[steps, k] for k, (a, i)
                                  in enumerate(zip(self.axes, cells[::-1]))], self.r2)
        return out

    def flips(self, inside: np.ndarray) -> Tuple[np.ndarray, ...]:
        """The cells of inside whose coverage changes from each time to the next.

        Returns index arrays (step, *cell) in array order, sorted by step and
        then in raster order; step k runs from time k to time k + 1, so they
        are np.nonzero of the step diff of the uncovered stack. Coverage is
        the static union or'ed with every moving ball, so a cell that flips
        in step k flips in some ball j. Ball j holds no cell outside its
        window at either time, so a patch holding both windows holds every
        such cell: those are the candidates, and reading coverage at each
        candidate's two times keeps exactly the flips.
        """
        shape = self.static.shape
        dim = len(shape)
        n = self.positions.shape[1] - 1
        keys = [np.zeros(0, dtype=np.intp)]
        for p in self.positions:
            idx = []
            for k in range(dim):
                w, start = self._window(p, k)
                size = self.axes[k].size
                span = min(w + int(np.abs(np.diff(start)).max(initial=0)), size)
                lo = np.minimum(np.minimum(start[:-1], start[1:]), size - span)
                idx.append(lo[:, None] + np.arange(span))
            moved = (_patch_balls(self.axes, idx, p[:-1], self.r2)
                     != _patch_balls(self.axes, idx, p[1:], self.r2))
            # flatnonzero then unravel: np.nonzero walks a 3-D mask far slower.
            hit = np.unravel_index(np.flatnonzero(moved), moved.shape)
            cells = [idx[k][hit[0], hit[dim - k]] for k in range(dim)][::-1]
            keys.append(np.ravel_multi_index((hit[0], *cells), (n,) + shape))
        # A cell may be a candidate of several balls. This is np.unique of
        # the keys, by sorting and dropping repeats: on a few hundred keys it
        # is several times faster than np.unique in numpy 2.
        key = np.sort(np.concatenate(keys))
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        step, *cells = np.unravel_index(key[first], (n,) + shape)
        keep = inside[tuple(cells)]
        step, cells = step[keep], [c[keep] for c in cells]
        keep = self.covered(step, cells) != self.covered(step + 1, cells)
        return (step[keep],) + tuple(c[keep] for c in cells)


def coverage_masks(s: Scenario, times: Sequence[float], grid: GridSpec,
                   box: Optional[Tuple[slice, ...]] = None) -> np.ndarray:
    """Boolean stack (T, *shape): cell center within sensing range of a sensor.

    box, slices in array order such as bounding_box returns, restricts the
    stack to those cells; each cell's arithmetic is that of the whole grid,
    so the result equals the whole-grid stack cropped to the box. The stack
    is BoxCoverage.masks: each moving ball is tested on a window around it,
    by the one ball test _in_ball that BoxCoverage's single-cell reads and
    flips share, so those equal the cells of this stack.
    """
    return BoxCoverage(s, times, grid, box).masks()


def _boundary_bitmap(uncovered: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Covered cells with an uncovered face neighbor."""
    near = np.zeros_like(uncovered)
    for axis in range(uncovered.ndim):
        lead = [slice(None)] * uncovered.ndim
        trail = [slice(None)] * uncovered.ndim
        lead[axis] = slice(1, None)
        trail[axis] = slice(None, -1)
        near[tuple(lead)] |= uncovered[tuple(trail)]
        near[tuple(trail)] |= uncovered[tuple(lead)]
    return covered & near


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


@dataclass
class FiberComplex:
    """One time slice: uncovered cells and the covered boundary cells."""

    grid: GridSpec
    time: float
    uncovered: np.ndarray
    covered_boundary: np.ndarray
    disk: np.ndarray
    inside: np.ndarray

    @property
    def covered(self) -> np.ndarray:
        return self.inside & ~self.uncovered

    @property
    def covered_with_collar(self) -> np.ndarray:
        return self.disk & ~self.uncovered

    @property
    def collar(self) -> np.ndarray:
        return self.disk & ~self.inside


@dataclass
class CobordismComplex:
    """Uniform time samples over one interval, stacked along axis 0."""

    grid: GridSpec
    interval: Tuple[float, float]
    times: np.ndarray
    uncovered: np.ndarray
    disk: np.ndarray
    inside: np.ndarray

    @property
    def slice_count(self) -> int:
        return int(self.times.size)


def rasterize_fiber(s: Scenario, t: float, grid: GridSpec) -> FiberComplex:
    return rasterize_fibers(s, [t], grid)[0]


def rasterize_fibers(s: Scenario, times: Sequence[float], grid: GridSpec) -> List[FiberComplex]:
    """Rasterize many fibers with one batched coverage evaluation."""
    disk, inside = _domain_masks(s, grid)
    balls = coverage_masks(s, times, grid)
    out = []
    for t, ball in zip(times, balls):
        uncovered = inside & ~ball
        boundary = _boundary_bitmap(uncovered, inside & ball)
        out.append(FiberComplex(grid=grid, time=float(t), uncovered=uncovered,
                                covered_boundary=boundary, disk=disk, inside=inside))
    return out


def rasterize_cobordism(s: Scenario, interval: Tuple[float, float], grid: GridSpec,
                        fine_time_samples: Optional[int] = None) -> CobordismComplex:
    """Rasterize every sub-sample of `interval`, endpoints included.

    On a circle time base the interval may extend past the span end; sample
    times are stored as given and wrapped only for sensor evaluation.
    """
    t0, t1 = interval
    if not t1 > t0:
        raise RasterError("cobordism interval must have positive length")
    n = fine_time_samples if fine_time_samples is not None else grid.fine_time_samples
    if n < 2:
        raise RasterError("a cobordism needs at least two time samples")
    times = np.linspace(t0, t1, n)
    disk, inside = _domain_masks(s, grid)
    uncovered = inside[None] & ~coverage_masks(s, times, grid)
    return CobordismComplex(grid=grid, interval=(float(t0), float(t1)), times=times,
                            uncovered=uncovered, disk=disk, inside=inside)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


@dataclass
class ComponentLabels:
    """Face-adjacency components of a region, canonically labeled 1..count."""

    which: str
    labels: np.ndarray
    count: int

    def label_at(self, cell: Tuple[int, ...]) -> int:
        return int(self.labels[cell])


@dataclass
class BoundaryComponents:
    """Components of the covered boundary as (pocket, covered body) pairs.

    A 1-cell-thick covered wall can be face-adjacent to two pockets at once,
    and a rasterized curve is routinely broken as a 4-connected cell chain, so
    chaining boundary cells misstates the number of boundary curves at every
    resolution. Each component here is an adjacency pair of an uncovered
    component and a covered component (collar-only contacts are dropped),
    which matches the curve count whenever the walls are at least a few cells
    thick and stays stable when they are not. Contact cells shared by several
    pairs are assigned to the least pair, so the labels bitmap partitions
    covered_boundary.
    """

    which: str
    count: int
    pairs: Tuple[Tuple[int, int], ...]
    rep_uncovered: Tuple[int, ...]
    rep_covered: Tuple[int, ...]
    labels: np.ndarray
    uncovered_labels: np.ndarray
    covered_labels: np.ndarray


_STRUCTS = {
    1: np.ones(3, dtype=bool),
    2: ndimage.generate_binary_structure(2, 1),
    3: ndimage.generate_binary_structure(3, 1),
}


def _label_canonical(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Face-adjacency labels, numbered in order of each component's first cell.

    scipy assigns labels in raster order already, so its output is used as is.
    """
    return ndimage.label(mask, structure=_STRUCTS[mask.ndim])


def face_contacts(source: np.ndarray, target: np.ndarray,
                  axes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices (source cell, target cell) of every face neighbor pair.

    Only neighbors along the given axes count. Each direction is one
    contiguous flat shift; a shifted pair that wraps past the end of its
    axis is dropped.
    """
    shape = source.shape
    a = source.ravel()
    b = target.ravel()
    srcs: List[np.ndarray] = []
    dsts: List[np.ndarray] = []
    for axis in axes:
        n = shape[axis]
        step = 1
        for m in shape[axis + 1:]:
            step *= m
        for lo, hi, forward in ((a, b, True), (b, a, False)):
            idx = np.flatnonzero(lo[:a.size - step] & hi[step:])
            idx = idx[idx % (n * step) < (n - 1) * step]
            srcs.append(idx if forward else idx + step)
            dsts.append(idx + step if forward else idx)
    return np.concatenate(srcs), np.concatenate(dsts)


def bounding_box(mask: np.ndarray) -> Tuple[slice, ...]:
    """The least box holding every set cell of mask; the whole array if none is.

    Cropping to it keeps the raster order and the face adjacency of the cells
    inside, and a cell on its edge has no set neighbor beyond it.
    """
    box = []
    for axis in range(mask.ndim):
        other = tuple(k for k in range(mask.ndim) if k != axis)
        hits = np.flatnonzero(mask.any(axis=other))
        if not hits.size:
            return (slice(None),) * mask.ndim
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


def _boundary_pairs(c: Union[FiberComplex, CobordismComplex]) -> BoundaryComponents:
    uncovered = c.uncovered
    u_lab, _ = _label_canonical(uncovered)
    v_lab, nv = _label_canonical(c.disk & ~uncovered)
    labels = np.zeros(uncovered.shape, dtype=np.int32)
    # Contacts end on covered cells: covered-with-collar cells off the collar.
    ndim = uncovered.ndim
    UC, WC = face_contacts(uncovered, c.inside & ~uncovered,
                           range(ndim - c.grid.dimension, ndim))
    if not UC.size:
        return BoundaryComponents(
            which="covered_boundary", count=0, pairs=(), rep_uncovered=(), rep_covered=(),
            labels=labels, uncovered_labels=u_lab, covered_labels=v_lab)

    key = u_lab.ravel()[UC].astype(np.int64) * (nv + 1) + v_lab.ravel()[WC]
    uniq_key, inv = np.unique(key, return_inverse=True)
    k = uniq_key.size
    min_wc = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    min_uc = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(min_wc, inv, WC)
    np.minimum.at(min_uc, inv, UC)
    order = np.argsort(min_wc, kind="stable")
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)

    pairs = tuple((int(uniq_key[i] // (nv + 1)), int(uniq_key[i] % (nv + 1))) for i in order)
    rep_covered = tuple(int(min_wc[i]) for i in order)
    rep_uncovered = tuple(int(min_uc[i]) for i in order)

    # Disjoint cell assignment: each contact cell goes to its least pair.
    pair_rank = rank[inv]
    by_cell = np.lexsort((pair_rank, WC))
    wc_sorted = WC[by_cell]
    first = np.ones(wc_sorted.size, dtype=bool)
    first[1:] = wc_sorted[1:] != wc_sorted[:-1]
    labels.ravel()[wc_sorted[first]] = pair_rank[by_cell][first] + 1

    return BoundaryComponents(
        which="covered_boundary",
        count=k,
        pairs=pairs,
        rep_uncovered=rep_uncovered,
        rep_covered=rep_covered,
        labels=labels,
        uncovered_labels=u_lab,
        covered_labels=v_lab,
    )


def label_components(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Canonical face-adjacency labeling of a bare bitmap."""
    return _label_canonical(mask)


def _slice_structure(ndim: int) -> np.ndarray:
    """Face adjacency within a slice of a (T, *shape) stack, none across slices."""
    structure = np.zeros((3,) * ndim, dtype=bool)
    structure[1] = ndimage.generate_binary_structure(ndim - 1, 1)
    return structure


_SLICE_STRUCTS = {2: _slice_structure(2), 3: _slice_structure(3)}


def label_slices(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Label every slice of a stack (T, *shape) in one pass.

    Returns the labels and, per slice, the largest label up to and including
    it. scipy numbers components in raster order and none spans slices, so
    each slice owns the contiguous range above its predecessor's maximum,
    and subtracting that offset gives the slice's label_components.
    """
    labels, _ = ndimage.label(mask, structure=_SLICE_STRUCTS[mask.ndim])
    tops = np.maximum.accumulate(labels.reshape(labels.shape[0], -1).max(axis=1))
    return labels, tops


@dataclass(frozen=True)
class StackGraph:
    """The components of every slice of a stack, and how they meet.

    labels are stack-wide: slice j owns offsets[j]+1 .. offsets[j+1], in
    the canonical order of label_components. A standing edge (src, dst)
    joins a component of slice j to one of slice j+1 that shares a set cell
    with it; edges are sorted, and cuts[j]:cuts[j+1] are those leaving
    slice j.
    """

    labels: np.ndarray
    offsets: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    cuts: np.ndarray


def _slice_of(offsets: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The slice owning each stack-wide label."""
    return np.searchsorted(offsets, labels) - 1


def stack_graph(mask: np.ndarray) -> StackGraph:
    """Label the stack (T, *shape) in one call and collect its standing edges.

    Keys pair a stack-wide source label with a target label local to its
    slice, so they stay below (labels + 1) * (largest slice count + 1).
    """
    labels, tops = label_slices(mask)
    offsets = np.concatenate(([0], tops)).astype(np.int64)
    a = labels[:-1].ravel()
    b = labels[1:].ravel()
    # A component pair repeats along every cell it shares: keep run starts.
    run = (mask[:-1] & mask[1:]).ravel()
    run[1:] &= (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    idx = np.flatnonzero(run)
    pa = a[idx].astype(np.int64)
    pb = b[idx].astype(np.int64)
    width = int(np.diff(offsets).max(initial=0)) + 1
    keys = np.unique(pa * width + pb - offsets[_slice_of(offsets, pb)])
    src = keys // width
    dst = keys % width + offsets[_slice_of(offsets, src) + 1]
    cuts = np.searchsorted(src, offsets, side="right")
    return StackGraph(labels=labels, offsets=offsets, src=src, dst=dst, cuts=cuts)


def sweep(g: StackGraph, seeds: Sequence[int], backward: bool = False) -> np.ndarray:
    """Which labels each seed reaches by time-monotone paths.

    Returns a boolean (labels + 1, seeds) matrix. A forward path steps from
    slice j to slice j + 1 along standing edges; a backward one runs the
    edges in reverse, from the last slice to the first.
    """
    reach = np.zeros((int(g.offsets[-1]) + 1, len(seeds)), dtype=bool)
    reach[np.asarray(seeds, dtype=np.int64), np.arange(len(seeds))] = True
    steps = range(g.labels.shape[0] - 1)
    origin, target = g.src, g.dst
    if backward:
        steps = reversed(steps)
        origin, target = g.dst, g.src
    for j in steps:
        e = slice(g.cuts[j], g.cuts[j + 1])
        np.logical_or.at(reach, target[e], reach[origin[e]])
    return reach


def _graph_components(g: StackGraph) -> Tuple[np.ndarray, int]:
    """The connected components of a stack graph, edges taken both ways.

    Returns, per stack-wide label, its component (0 for label 0), and the
    component count. Components are numbered in order of their least label;
    labels follow the stack's raster order, so this is the order of each
    component's first cell, as in a labeling of the whole stack. A union-find
    hooks each edge's larger root under its smaller one and then jumps
    pointers to the roots, until both ends of every edge share a root.
    """
    root = np.arange(int(g.offsets[-1]) + 1)
    while True:
        a = root[g.src]
        b = root[g.dst]
        if np.array_equal(a, b):
            break
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    firsts = np.unique(root[1:])
    comp = np.searchsorted(firsts, root) + 1
    comp[0] = 0
    return comp, int(firsts.size)


@dataclass
class CobordismComponents:
    """Space-time components of a region of a cobordism, labeled 1..count.

    They are the connected components of the region's slice graph, and are
    numbered as a face-adjacency labeling of the whole stack would number
    them. The graph is built on the stack cropped to box, the bounding box
    of the fenced region: it holds every cell of either region and keeps
    their raster order. The witness search walks the graph in those cropped
    coordinates. Only the first and last slices are labeled on the whole
    grid (ends[0] and ends[-1]), since fibers map in at those.
    """

    which: str
    count: int
    ends: Tuple[np.ndarray, np.ndarray]
    graph: StackGraph
    box: Tuple[slice, ...]


def domain_masks(s: Scenario, grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """(disk, inside) masks of the domain on this grid; both are read-only."""
    return _domain_masks(s, grid)


def components(c: Union[FiberComplex, CobordismComplex], which: str = "uncovered"
               ) -> Union[ComponentLabels, CobordismComponents, BoundaryComponents]:
    """Labeled components of a region of a fiber or cobordism.

    Face adjacency within a slice; cobordisms additionally connect the same
    cell across consecutive sub-samples. A cobordism's components are read
    off one slice graph: the same cell set in consecutive slices is exactly
    a standing edge, so the space-time components are the graph's connected
    components, and the witness search walks that same graph.
    covered_boundary components are adjacency pairs, see BoundaryComponents.
    """
    if which == "covered_boundary":
        return _boundary_pairs(c)
    if which == "uncovered":
        mask = c.uncovered
    elif which == "covered":
        mask = c.inside & ~c.uncovered
    else:
        raise RasterError(f"unknown region '{which}'")
    if isinstance(c, FiberComplex):
        labels, count = _label_canonical(mask)
        return ComponentLabels(which=which, labels=labels, count=count)
    box = bounding_box(c.inside)
    g = stack_graph(mask[(slice(None),) + box])
    comp, count = _graph_components(g)
    first, last = np.zeros((2,) + c.inside.shape, dtype=comp.dtype)
    first[box] = comp[g.labels[0]]
    last[box] = comp[g.labels[-1]]
    return CobordismComponents(which=which, count=count, ends=(first, last),
                               graph=g, box=box)


def _complement_holes(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Labels of the complement of a 2d mask padded by one cell, and the
    number of holes (bounded complement components).

    The padding joins every complement cell on the grid edge into one
    component. It holds the first cell, so in raster order it is label 1, and
    the holes are labels 2 to count + 1, in order of their first cell.
    """
    labels, n = ndimage.label(np.pad(~mask, 1, constant_values=True), structure=_STRUCTS[2])
    return labels, n - 1


def count_holes(mask: np.ndarray) -> int:
    """Bounded complement components of a 2d mask (its first Betti number)."""
    if mask.ndim != 2:
        return 0
    return _complement_holes(mask)[1]
