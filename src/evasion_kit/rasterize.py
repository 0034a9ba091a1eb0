"""Rasterization of scenarios onto regular cell grids.

Cells are axis-aligned squares (segments in dimension 1) sampled at their
centers. A cell is uncovered at time t when its center lies strictly inside
the fenced part of the domain and strictly farther than the sensing radius
from every sensor; covered cells are the cell-exact complement within the
fenced region. The fence collar is the ring of in-disk cells outside the
fenced region; collar cells count as covered but never as covered_boundary.

Component labeling is canonical: labels are assigned in order of each
component's least flat cell index, independent of the labeling backend.
Boundary components are adjacency pairs (uncovered component, covered
component), the discrete counterparts of the boundary curves; see
components() for the rationale.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    "ComponentLabels",
    "BoundaryComponents",
    "components",
    "covered_with_collar_labels",
    "label_components",
    "domain_masks",
    "count_holes",
    "cell_center",
    "dump_slices",
    "thread_count",
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


def thread_count() -> int:
    raw = os.environ.get("EVASION_KIT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise RasterError("EVASION_KIT_THREADS must be an integer") from None
    return max(1, n)


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
        if s.dimension == 1:
            dx = cg[0] - p[0]
            union |= dx * dx <= r2
        else:
            dx = cg[0] - p[0]
            dy = cg[1] - p[1]
            union |= dx * dx + dy * dy <= r2
    union.flags.writeable = False
    return union, tuple(moving)


def _windows(centers: np.ndarray, p: np.ndarray, width: int, reach: float) -> np.ndarray:
    """Per time, `width` consecutive cell indices holding every center within reach of p."""
    start = np.clip(np.searchsorted(centers, p - reach), 0, centers.size - width)
    return start[:, None] + np.arange(width)


def _coverage_chunk(s: Scenario, times: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coverage of the times; a moving ball is tested only on a window around it.

    Cells beyond one cell of the ball's extent on an axis fail the distance
    test on that coordinate alone, so the window leaves the result exact.
    """
    r = s.sensing_radius
    r2 = r * r
    if not s.tracks:
        return np.zeros((times.size,) + grid.shape, dtype=bool)
    static, moving = _static_union(s, grid)
    ball = np.broadcast_to(static, (times.size,) + grid.shape).copy()
    if moving:
        pos = positions_at(s, times)
        axes = _axis_centers(grid)
        reach = r + grid.cell_size
        width = int(np.ceil(2.0 * r / grid.cell_size)) + 3
        steps = np.arange(times.size)
        for j in moving:
            idx = [_windows(c, pos[j, :, k], min(width, c.size), reach)
                   for k, c in enumerate(axes)]
            dx = axes[0][idx[0]] - pos[j, :, 0][:, None]
            if s.dimension == 1:
                ball[steps[:, None], idx[0]] |= dx * dx <= r2
            else:
                dy = axes[1][idx[1]] - pos[j, :, 1][:, None]
                near = (dx * dx)[:, None, :] + (dy * dy)[:, :, None] <= r2
                ball[steps[:, None, None], idx[1][:, :, None], idx[0][:, None, :]] |= near
    return ball


def coverage_masks(s: Scenario, times: Sequence[float], grid: GridSpec) -> np.ndarray:
    """Boolean stack (T, *shape): cell center within sensing range of a sensor."""
    ts = np.asarray(times, dtype=float)
    workers = thread_count()
    if workers <= 1 or ts.size < 2 * workers:
        return _coverage_chunk(s, ts, grid)
    chunks = np.array_split(np.arange(ts.size), workers)
    out = np.empty((ts.size,) + grid.shape, dtype=bool)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [(idx, pool.submit(_coverage_chunk, s, ts[idx], grid)) for idx in chunks if idx.size]
        for idx, fut in futures:
            out[idx] = fut.result()
    return out


def _spatial_any_neighbor(mask: np.ndarray, dimension: int) -> np.ndarray:
    """Cells with a face neighbor (same slice) set in `mask`."""
    out = np.zeros_like(mask)
    for axis in range(mask.ndim - dimension, mask.ndim):
        lead = [slice(None)] * mask.ndim
        trail = [slice(None)] * mask.ndim
        lead[axis] = slice(1, None)
        trail[axis] = slice(None, -1)
        out[tuple(lead)] |= mask[tuple(trail)]
        out[tuple(trail)] |= mask[tuple(lead)]
    return out


def _boundary_bitmap(uncovered: np.ndarray, inside: np.ndarray, ball: np.ndarray,
                     dimension: int) -> np.ndarray:
    covered = inside & ball
    return covered & _spatial_any_neighbor(uncovered, dimension)


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
    covered_boundary: np.ndarray
    disk: np.ndarray
    inside: np.ndarray

    @property
    def slice_count(self) -> int:
        return int(self.times.size)

    def slice_at(self, index: int) -> FiberComplex:
        return FiberComplex(
            grid=self.grid,
            time=float(self.times[index]),
            uncovered=self.uncovered[index],
            covered_boundary=self.covered_boundary[index],
            disk=self.disk,
            inside=self.inside,
        )

    @property
    def slices(self) -> List[FiberComplex]:
        return [self.slice_at(i) for i in range(self.slice_count)]


def rasterize_fiber(s: Scenario, t: float, grid: GridSpec) -> FiberComplex:
    return rasterize_fibers(s, [t], grid)[0]


def rasterize_fibers(s: Scenario, times: Sequence[float], grid: GridSpec) -> List[FiberComplex]:
    """Rasterize many fibers with one batched coverage evaluation."""
    disk, inside = _domain_masks(s, grid)
    balls = coverage_masks(s, times, grid)
    out = []
    for t, ball in zip(times, balls):
        uncovered = inside & ~ball
        boundary = _boundary_bitmap(uncovered, inside, ball, s.dimension)
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
    ball = coverage_masks(s, times, grid)
    uncovered = inside[None] & ~ball
    boundary = _boundary_bitmap(uncovered, inside[None], ball, s.dimension)
    return CobordismComplex(grid=grid, interval=(float(t0), float(t1)), times=times,
                            uncovered=uncovered, covered_boundary=boundary,
                            disk=disk, inside=inside)


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

    def cells_of(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels.ravel() == label)


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
    pairs are assigned to the least pair so the reported cell sets partition
    the covered_boundary bitmap.
    """

    which: str
    count: int
    pairs: Tuple[Tuple[int, int], ...]
    rep_uncovered: Tuple[int, ...]
    rep_covered: Tuple[int, ...]
    cells: Tuple[Tuple[int, ...], ...]
    labels: np.ndarray
    uncovered_labels: np.ndarray
    covered_labels: np.ndarray

    def index_of_pair(self, pocket_label: int, covered_label: int) -> int:
        return self.pairs.index((pocket_label, covered_label)) + 1


_STRUCTS = {
    1: np.ones(3, dtype=bool),
    2: ndimage.generate_binary_structure(2, 1),
    3: ndimage.generate_binary_structure(3, 1),
}


def _label_canonical(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    labels, n = ndimage.label(mask, structure=_STRUCTS[mask.ndim])
    if n == 0:
        return labels.astype(np.int32), 0
    flat = labels.ravel()
    nz = np.flatnonzero(flat)
    vals = flat[nz]
    uniq, first = np.unique(vals, return_index=True)
    order = np.argsort(first, kind="stable")
    remap = np.zeros(int(uniq.max()) + 1, dtype=np.int32)
    remap[uniq[order]] = np.arange(1, uniq.size + 1, dtype=np.int32)
    return remap[labels], int(uniq.size)


def _region_masks(c: Union[FiberComplex, CobordismComplex]) -> Dict[str, np.ndarray]:
    stacked = isinstance(c, CobordismComplex)
    disk = c.disk[None] if stacked else c.disk
    inside = c.inside[None] if stacked else c.inside
    return {
        "uncovered": c.uncovered,
        "covered": inside & ~c.uncovered,
        "covered_with_collar": disk & ~c.uncovered,
        "collar": np.broadcast_to(disk & ~inside, c.uncovered.shape),
    }


def _boundary_pairs(c: Union[FiberComplex, CobordismComplex], dimension: int) -> BoundaryComponents:
    regions = _region_masks(c)
    u_lab, _ = _label_canonical(regions["uncovered"])
    v_lab, _ = _label_canonical(regions["covered_with_collar"])
    collar = regions["collar"]
    shape = c.uncovered.shape
    ndim = c.uncovered.ndim

    ps: List[np.ndarray] = []
    ws: List[np.ndarray] = []
    ucells: List[np.ndarray] = []
    wcells: List[np.ndarray] = []
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
            if not keep.any():
                continue
            ps.append(pu[keep])
            ws.append(pv[keep])
            ucells.append(flat_index[tuple(src)][keep])
            wcells.append(flat_index[tuple(dst)][keep])

    labels = np.zeros(shape, dtype=np.int32)
    if not ps:
        return BoundaryComponents(
            which="covered_boundary", count=0, pairs=(), rep_uncovered=(), rep_covered=(),
            cells=(), labels=labels, uncovered_labels=u_lab, covered_labels=v_lab)

    P = np.concatenate(ps)
    W = np.concatenate(ws)
    UC = np.concatenate(ucells)
    WC = np.concatenate(wcells)
    nv = int(v_lab.max())
    key = P.astype(np.int64) * (nv + 1) + W
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
    owner_cells = wc_sorted[first]
    owner_rank = pair_rank[by_cell][first]
    cell_lists: List[List[int]] = [[] for _ in range(k)]
    for cell, r in zip(owner_cells.tolist(), owner_rank.tolist()):
        cell_lists[r].append(cell)
    labels.ravel()[owner_cells] = owner_rank + 1

    return BoundaryComponents(
        which="covered_boundary",
        count=k,
        pairs=pairs,
        rep_uncovered=rep_uncovered,
        rep_covered=rep_covered,
        cells=tuple(tuple(sorted(lst)) for lst in cell_lists),
        labels=labels,
        uncovered_labels=u_lab,
        covered_labels=v_lab,
    )


def label_components(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Canonical face-adjacency labeling of a bare bitmap."""
    return _label_canonical(mask)


def domain_masks(s: Scenario, grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """(disk, inside) masks of the domain on this grid; both are read-only."""
    return _domain_masks(s, grid)


def components(c: Union[FiberComplex, CobordismComplex], which: str = "uncovered"
               ) -> Union[ComponentLabels, BoundaryComponents]:
    """Labeled components of a region of a fiber or cobordism.

    Face adjacency within a slice; cobordisms additionally connect the same
    cell across consecutive sub-samples. covered_boundary components are
    adjacency pairs, see BoundaryComponents.
    """
    dimension = c.grid.dimension
    if which == "covered_boundary":
        return _boundary_pairs(c, dimension)
    regions = _region_masks(c)
    if which not in ("uncovered", "covered"):
        raise RasterError(f"unknown region '{which}'")
    labels, count = _label_canonical(regions[which])
    return ComponentLabels(which=which, labels=labels, count=count)


def covered_with_collar_labels(c: Union[FiberComplex, CobordismComplex]) -> ComponentLabels:
    """Components of the covered region including the fence collar."""
    regions = _region_masks(c)
    labels, count = _label_canonical(regions["covered_with_collar"])
    return ComponentLabels(which="covered_with_collar", labels=labels, count=count)


def count_holes(mask: np.ndarray) -> int:
    """Bounded complement components of a 2d mask (its first Betti number)."""
    if mask.ndim != 2:
        return 0
    comp = np.pad(~mask, 1, constant_values=True)
    labels, n = ndimage.label(comp, structure=_STRUCTS[2])
    border = np.unique(np.concatenate([
        labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]]))
    border = border[border != 0]
    return int(n - border.size)


# ---------------------------------------------------------------------------
# debug dumps
# ---------------------------------------------------------------------------


def dump_slices(cob: CobordismComplex, out_dir: str, prefix: str = "slice") -> List[str]:
    """Write each sub-sample's uncovered bitmap as an ASCII PBM (1 = uncovered)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i in range(cob.slice_count):
        mask = cob.uncovered[i]
        if mask.ndim == 1:
            mask = mask[None, :]
        rows = ["P1", f"{mask.shape[1]} {mask.shape[0]}"]
        for row in mask.astype(int):
            rows.append(" ".join(str(v) for v in row))
        path = os.path.join(out_dir, f"{prefix}_{i:03d}.pbm")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(rows) + "\n")
        paths.append(path)
    return paths
