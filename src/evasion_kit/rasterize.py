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
BoundaryComponents for the rationale. They are read off the uncovered
components a complex already has (boundary_pairs), so the uncovered region
is labeled once for both.

The ring test (_simple_flips) says which steps between time slices keep
the signature, which the event scan reads; the ring certificate
(_flip_anchors, _Transitions) says which ones also match the components of
their two slices one to one, so the oracle and every cobordism label only
the slices around the other steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage

from .scenario import TIME_SPAN, Scenario, positions_at

__all__ = [
    "GridSpec",
    "grid_for_scenario",
    "FiberComplex",
    "CobordismComplex",
    "rasterize_fiber",
    "rasterize_fibers",
    "rasterize_cobordism",
    "BoxCoverage",
    "sorted_unique",
    "ComponentLabels",
    "CobordismComponents",
    "BoundaryComponents",
    "components",
    "boundary_pairs",
    "face_contacts",
    "bounding_box",
    "label_components",
    "first_cells",
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
def domain_masks(s: Scenario, grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """(disk, inside) masks of the domain on this grid: cell centers within
    the disk / strictly inside the fence. Both are read-only."""
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


def sorted_unique(keys: np.ndarray, return_inverse: bool = False
                  ) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """np.unique of a 1-D integer array, by sorting and dropping repeats.

    On integer keys numpy 2's np.unique takes a hashing path that is several
    times slower than a sort on the few hundred to few thousand keys a stack
    or cobordism yields. With return_inverse, also returns each key's index
    into the result.
    """
    if return_inverse:
        order = np.argsort(keys)
        key = keys[order]
    else:
        key = np.sort(keys)
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    if not return_inverse:
        return key[first]
    inverse = np.empty(key.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return key[first], inverse


def _in_ball(offsets: Sequence[np.ndarray], r2: float) -> np.ndarray:
    """The ball test every coverage read shares.

    offsets holds, per world axis (x, then y), cell centers minus the ball's
    center; they broadcast against each other.
    """
    d2 = offsets[0] * offsets[0]
    for d in offsets[1:]:
        d2 = d2 + d * d
    return d2 <= r2


# A crossing band holds the times when f = |c - p(t)|^2 - r^2 lies within
# _BAND_SLACK * scale^2 of zero, scale bounding the radius and every
# coordinate of the grid and the tracks. The float error of _in_ball's d2
# and of positions_at's np.interp is a few ulps of scale^2, far below it.
_BAND_SLACK = 2.0 ** -30
# Band ends are widened by this share of 1 + |t|, past the rounding of the
# time arithmetic that places them.
_TIME_SLACK = 2.0 ** -48


@dataclass(frozen=True)
class _Bands:
    """Crossing bands of a scenario's moving tracks on a grid.

    Band i is the closed time interval [lo[i], hi[i]] of the cell whose
    array-order indices are cells[0][i], ...; bands are sorted by lo, and
    none is longer than longest.
    """

    cells: Tuple[np.ndarray, ...]
    lo: np.ndarray
    hi: np.ndarray
    longest: float


@dataclass(frozen=True)
class _RasterTables:
    """A scenario's coverage tables on one grid, cached as one entry: the
    union of the balls of the constant tracks, the indices of the other
    tracks, and their crossing bands (_crossing_bands)."""

    static: np.ndarray
    moving: Tuple[int, ...]
    bands: _Bands


@lru_cache(maxsize=64)
def _raster_tables(s: Scenario, grid: GridSpec) -> _RasterTables:
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
    return _RasterTables(union, tuple(moving), _crossing_bands(s, grid, moving))


def _crossing_bands(s: Scenario, grid: GridSpec, moving: Sequence[int]) -> _Bands:
    """Per moving track and cell, the closed times when |f| <= eps.

    f(t) = |c - p(t)|^2 - r^2 for the cell center c and the track's exact
    position p(t), and eps = _BAND_SLACK * scale^2. On a linear piece from
    p0 to p1, let a be the signed length along the piece from p0 to the
    foot of c on its line, and q2 the squared distance from c to that line;
    at arc length x, f = (x - a)^2 + q2 - r^2. So |f| <= eps where |x - a|
    lies in [h_in, h_out], h_out^2 = r^2 + eps - q2 and h_in^2 = max(r^2 -
    eps - q2, 0): two closed intervals, which meet when h_in = 0, clipped to
    the piece and mapped to time. A piece without motion has none (see
    BoxCoverage.flips). Each piece is cut into sub-pieces of at most one
    window of travel, and a sub-piece tests only the cells within reach of
    it, so each array is about two windows in size, and the table grows
    with the cells the balls sweep.
    """
    axes = _axis_centers(grid)
    dim = grid.dimension
    r = s.sensing_radius
    h = grid.cell_size
    reach = r + h
    travel = (int(np.ceil(2.0 * r / h)) + 3) * h
    points = [np.asarray(s.tracks[j].points, dtype=float) for j in moving]
    scale = r + max([float(np.abs(a).max()) for a in axes]
                    + [float(np.abs(p).max()) for p in points])
    eps = _BAND_SLACK * scale * scale
    r2 = r * r
    cells = [[np.zeros(0, dtype=np.intp)] for _ in range(dim)]
    los, his = [np.zeros(0)], [np.zeros(0)]
    for j, pts in zip(moving, points):
        wt = np.asarray(s.tracks[j].times, dtype=float)
        for i in range(len(wt) - 1):
            d = pts[i + 1] - pts[i]
            if not d.any():
                continue
            # hypot neither overflows nor underflows on a tiny step.
            length = float(np.hypot(*d)) if dim == 2 else float(abs(d[0]))
            unit = d / length
            ta, tb = wt[i], wt[i + 1]
            n = max(1, int(np.ceil(length / travel)))
            for k in range(n):
                xa, xb = length * (k / n), length * ((k + 1) / n)
                q = pts[i] + np.outer([k / n, (k + 1) / n], d)
                idx = [np.arange(np.searchsorted(a, q[:, m].min() - reach),
                                 np.searchsorted(a, q[:, m].max() + reach, side="right"))
                       for m, a in enumerate(axes)]
                # World axis m is array axis dim - 1 - m.
                off = [(a[i_] - pts[i][m]).reshape((-1,) + (1,) * m)
                       for m, (a, i_) in enumerate(zip(axes, idx))]
                along = sum(o * u for o, u in zip(off, unit))
                q2 = np.maximum(sum(o * o for o in off) - along * along, 0.0)
                near = np.nonzero(r2 + eps - q2 >= 0.0)
                a_, q2 = along[near], q2[near]
                h_out = np.sqrt(r2 + eps - q2)
                h_in = np.sqrt(np.maximum(r2 - eps - q2, 0.0))
                x_lo = np.concatenate((a_ - h_out, a_ + h_in))
                x_hi = np.concatenate((a_ - h_in, a_ + h_out))
                # Clipped to the sub-piece first, so x / length <= 1.
                keep = (x_lo <= xb) & (x_hi >= xa)
                los.append(ta + np.maximum(x_lo[keep], xa) / length * (tb - ta))
                his.append(ta + np.minimum(x_hi[keep], xb) / length * (tb - ta))
                for ax in range(dim):
                    c = idx[dim - 1 - ax][near[ax]]
                    cells[ax].append(np.concatenate((c, c))[keep])
    lo = np.concatenate(los)
    order = np.argsort(lo, kind="stable")
    hi = np.concatenate(his)[order]
    lo = lo[order]
    return _Bands(tuple(np.concatenate(c)[order] for c in cells), lo, hi,
                  float((hi - lo).max(initial=0.0)))


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
    off its cached mask. masks tests a moving ball only on a window around
    it: cells beyond one cell of the ball's extent on an axis fail the
    distance test on that coordinate alone, so the window leaves the result
    exact. flips reads its candidates off the scenario's crossing bands and
    keeps those whose coverage changes. Every ball test is _in_ball, so
    masks, covered and flips agree cell by cell. positions, when given, are
    the moving tracks' positions at the times (the positions of another
    BoxCoverage of the scenario, at some of its times), so the tracks are
    not evaluated again.
    """

    def __init__(self, s: Scenario, times: Sequence[float], grid: GridSpec,
                 box: Optional[Tuple[slice, ...]] = None,
                 positions: Optional[np.ndarray] = None) -> None:
        if box is None:
            box = (slice(None),) * grid.dimension
        self.tables = _raster_tables(s, grid)
        # A contiguous crop lets masks fill each time as one block.
        self.static = np.ascontiguousarray(self.tables.static[box])
        self.corner = tuple(b.indices(n)[0] for b, n in zip(box, grid.shape))
        # World axes run (x, y); array axes run (y, x).
        self.axes = tuple(c[b] for c, b in zip(_axis_centers(grid), box[::-1]))
        self.times = np.asarray(times, dtype=float)
        self.circle = s.time_base == "circle"
        if positions is None:
            positions = positions_at(s, self.times, self.tables.moving)
        self.positions = positions
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
        are np.nonzero of the step diff of the uncovered stack. The times
        must not decrease.

        The candidates come from the crossing bands (_crossing_bands). A
        cell that flips in step k flips in some moving ball j, since
        coverage is the static union or'ed with every moving ball. Take
        f(t) = |c - p_j(t)|^2 - r^2 on the exact track through the float
        waypoints: the d2 of _in_ball at np.interp's position differs from
        f + r^2 by far less than the bands' eps, so where |f| > eps the
        float test agrees with the sign of f. If the tests at t_k and
        t_{k+1} differ, then f <= eps at one end and f > -eps at the other:
        either f changes sign, and the track being continuous, has a root
        in [t_k, t_{k+1}], or |f| <= eps at an end. Either time lies in c's
        band. A piece without motion has no band: np.interp gives the same
        bits at every time on it, and a step that reaches past it reaches
        the moving piece next to it, where f has the same value at their
        shared waypoint. Times past an interval track's ends clamp, which is
        a piece without motion too; on a circle base every track closes up,
        as validate_scenario requires, so the bands repeat with the period
        and are shifted by whole periods onto the times. So every flip is a
        cell of inside whose band, widened by _TIME_SLACK, meets the closed
        span of step k; reading coverage at each candidate's two times
        keeps exactly the flips. The bands grow with the cells the balls
        sweep, not with the times.
        """
        times = self.times
        n = times.size - 1
        if n < 1:
            return tuple(np.zeros(0, dtype=np.intp) for _ in range(inside.ndim + 1))
        lo, hi, cells = self._bands_meeting(inside)
        first = np.maximum(np.searchsorted(times, lo) - 1, 0)
        count = np.maximum(np.minimum(np.searchsorted(times, hi, side="right") - 1, n - 1)
                           - first + 1, 0)
        step = (np.repeat(first - np.cumsum(count) + count, count)
                + np.arange(int(count.sum())))
        flat = np.repeat(np.ravel_multi_index(cells, inside.shape), count)
        # A cell may have several bands in one step.
        step, *cells = np.unravel_index(sorted_unique(step * inside.size + flat),
                                        (n,) + inside.shape)
        keep = self.covered(step, cells) != self.covered(step + 1, cells)
        return (step[keep],) + tuple(c[keep] for c in cells)

    def _bands_meeting(self, inside: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """The bands of cells of inside that may meet the times, shifted by
        whole periods on a circle base and widened by _TIME_SLACK: lo, hi
        and their cells in the box's array order."""
        bands = self.tables.bands
        t_first, t_last = float(self.times.min()), float(self.times.max())
        shifts = [0.0]
        if self.circle:
            t0, t1 = TIME_SPAN
            span = t1 - t0
            shifts = span * np.arange(np.floor((t_first - t0) / span) - 1,
                                      np.floor((t_last - t0) / span) + 1)
        lo, hi = [np.zeros(0)], [np.zeros(0)]
        cells = [[np.zeros(0, dtype=np.intp)] for _ in range(inside.ndim)]
        for m in shifts:
            # Well past the widening below, so the slice drops no band that
            # meets the times once widened.
            pad = 16.0 * _TIME_SLACK * (2.0 + abs(t_first) + abs(t_last) + abs(m)
                                        + bands.longest)
            pick = slice(np.searchsorted(bands.lo, t_first - m - bands.longest - pad),
                         np.searchsorted(bands.lo, t_last - m + pad, side="right"))
            local = [c[pick] - o for c, o in zip(bands.cells, self.corner)]
            ok = np.ones(local[0].size, dtype=bool)
            for c, size in zip(local, inside.shape):
                ok &= (c >= 0) & (c < size)
            ok[ok] = inside[tuple(c[ok] for c in local)]
            a = bands.lo[pick][ok] + m
            b = bands.hi[pick][ok] + m
            lo.append(a - _TIME_SLACK * (1.0 + np.abs(a)))
            hi.append(b + _TIME_SLACK * (1.0 + np.abs(b)))
            for out, c in zip(cells, local):
                out.append(c[ok])
        return np.concatenate(lo), np.concatenate(hi), [np.concatenate(c) for c in cells]


def coverage_masks(s: Scenario, times: Sequence[float], grid: GridSpec,
                   box: Optional[Tuple[slice, ...]] = None,
                   positions: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean stack (T, *shape): cell center within sensing range of a sensor.

    box, slices in array order such as bounding_box returns, restricts the
    stack to those cells; each cell's arithmetic is that of the whole grid,
    so the result equals the whole-grid stack cropped to the box. The stack
    is BoxCoverage.masks: each moving ball is tested on a window around it,
    by the one ball test _in_ball that BoxCoverage's single-cell reads and
    flips share, so those equal the cells of this stack. positions, when
    given, are the moving tracks' positions at the times, as BoxCoverage
    takes them.
    """
    return BoxCoverage(s, times, grid, box, positions).masks()


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
# the ring certificate
# ---------------------------------------------------------------------------


def _arc_table() -> np.ndarray:
    """Per 8-bit ring pattern: its face cells are set and lie on one arc.

    Bit i is ring cell i in the cyclic order NW, N, NE, E, SE, S, SW, W;
    the face cells N, E, S, W are bits 1, 3, 5, 7. Consecutive ring cells
    are face-adjacent and no others are, so an arc is a cyclic run of set
    bits, and the set face cells are connected through the set ring cells
    exactly when one run holds them all.
    """
    table = np.zeros(256, dtype=bool)
    for pattern in range(256):
        bits = [(pattern >> i) & 1 for i in range(8)]
        # Walk from an unset bit, if there is one, so that no run wraps.
        start = bits.index(0) if 0 in bits else 0
        run, runs = 0, set()
        for step in range(1, 9):
            i = (start + step) % 8
            if not bits[i]:
                run += 1
            elif i % 2:
                runs.add(run)
        table[pattern] = len(runs) == 1
    return table


_ONE_ARC = _arc_table()

# (dy, dx, read from the later slice) per ring bit; see _simple_flips.
_RING = ((-1, -1, True), (-1, 0, True), (-1, 1, True), (0, 1, False),
         (1, 1, False), (1, 0, False), (1, -1, False), (0, -1, True))
# The same as (8, 1) columns, and each bit's weight in a ring pattern.
_RING_DY, _RING_DX, _RING_LATER = (np.array(v)[:, None] for v in zip(*_RING))
_RING_WEIGHTS = 1 << np.arange(8)


def _simple_flips(flips: Tuple[np.ndarray, ...],
                  uncovered: Callable[[np.ndarray, Tuple[np.ndarray, ...]], np.ndarray],
                  disk: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Per flip, whether it is simple; a step of simple flips keeps the signature.

    flips are the index arrays (step, *cell) of the cells each step flips,
    in raster order within a step, and uncovered(slices, cells) reads the
    uncovered region at single cells: cell i, given as index arrays in array
    order, at slice slices[i].
    The flips of a step are applied one at a time in raster order, so when
    cell p flips, its earlier ring cells NW, N, NE, W hold slice k + 1 and
    the later ones E, SE, S, SW hold slice k. p is simple when (a) it is not
    a rim cell, (b) its uncovered face neighbors are not empty and lie on
    one arc of uncovered ring cells, (c) the same holds for
    covered-with-collar cells (disk & ~uncovered; cells off the box or the
    disk are neither), and (d) a covered-with-collar face neighbor lies
    inside the fence.
    """
    return _ring_test(flips, uncovered, disk, inside)[0]


def _ring_test(flips: Tuple[np.ndarray, ...],
               uncovered: Callable[[np.ndarray, Tuple[np.ndarray, ...]], np.ndarray],
               disk: np.ndarray, inside: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_simple_flips, and per flip its uncovered and its covered-with-collar
    ring cells as read there, (8, flips) arrays in ring bit order.

    Every flip's eight ring cells are read in one call. A flipped cell lies
    on the disk, and it is a rim cell when a face neighbor is off the box or
    off the disk, as zigzag._rim has it.
    """
    step, y, x = flips
    h, w = disk.shape
    yy, xx = y + _RING_DY, x + _RING_DX
    on_box = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    yy, xx = np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)
    on_disk = disk[yy, xx] & on_box
    u = uncovered((step + _RING_LATER).ravel(), (yy.ravel(), xx.ravel())).reshape(yy.shape)
    u &= on_box
    v = on_disk & ~u
    contact = (v[1::2] & inside[yy[1::2], xx[1::2]]).any(axis=0)
    rim = ~on_disk[1::2].all(axis=0)
    simple = _ONE_ARC[_RING_WEIGHTS @ u] & _ONE_ARC[_RING_WEIGHTS @ v] & contact & ~rim
    return simple, u, v


# The face cells' ring bits in raster order, N, W, E, S: of the cells
# nearest a point, the witness walk (analysis._slice_path) goes to the
# first in raster order.
_FACES = np.array([1, 7, 3, 5])


def _flip_anchors(flips: Tuple[np.ndarray, ...],
                  uncovered: Callable[[np.ndarray, Tuple[np.ndarray, ...]], np.ndarray],
                  disk: np.ndarray, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per flip, the flat box indices of its two anchors where it is
    certified, else -1 for both.

    A flip is certified when it is simple (_simple_flips, same arguments)
    and two face neighbors stand: one uncovered at both ends of the step,
    and one covered-with-collar at both ends. Each anchor is the first such
    neighbor in raster order: N, W, E, S. A face neighbor that the step does not
    flip holds the same value at both ends, so the ring read already says
    whether it stands; one that the step flips does not stand. flips must be
    sorted by step and then in raster order, as BoxCoverage.flips and
    np.nonzero give them.

    A step whose flips are all certified joins the components of its two
    slices one to one through their shared cells, the standing edges of
    their band, in the uncovered and in the covered-with-collar region
    alike: no simple flip merges, splits, creates or removes a component of
    either, and a flipped cell's component keeps its anchor across the
    step. A simple flip also keeps the one contact pair it touches, so the
    two slices have the same boundary pairs of space-time components.
    Simplicity alone is not enough: a one-cell pocket, or a one-cell
    covered island, that moves one cell in one step is two simple flips,
    yet its two slices share no cell of it.
    """
    simple, u, v = _ring_test(flips, uncovered, disk, inside)
    step, y, x = flips
    h, w = disk.shape
    anchor = np.full(step.size, -1, dtype=np.intp)
    covered_anchor = anchor.copy()
    if not step.size:
        return anchor, covered_anchor
    keys = (step * h + y) * w + x
    # The face cells, flat in the box, and as keys of their step.
    faces = (y + _RING_DY[_FACES]) * w + (x + _RING_DX[_FACES])
    wanted = step * (h * w) + faces
    flipped = keys[np.minimum(np.searchsorted(keys, wanted), keys.size - 1)] == wanted
    stands = u[_FACES] & ~flipped
    covered_stands = v[_FACES] & ~flipped
    ok = simple & stands.any(axis=0) & covered_stands.any(axis=0)
    at = np.flatnonzero(ok)
    anchor[ok] = faces[stands.argmax(axis=0)[ok], at]
    covered_anchor[ok] = faces[covered_stands.argmax(axis=0)[ok], at]
    return anchor, covered_anchor


@dataclass(frozen=True)
class _BoxFlips:
    """A list of times' coverage flips inside the fence, on the disk's box.

    box is the disk's bounding box in the grid, disk and inside are cropped
    to it, and flips are BoxCoverage.flips(inside): index arrays (step,
    *cell) in box coordinates, sorted by step and then in raster order.
    """

    box: Tuple[slice, ...]
    disk: np.ndarray
    inside: np.ndarray
    coverage: BoxCoverage
    flips: Tuple[np.ndarray, ...]

    def uncovered(self, slices: np.ndarray, cells: Tuple[np.ndarray, ...]) -> np.ndarray:
        """Whether cell i (index arrays in box order) is uncovered at slices[i]."""
        return self.inside[cells] & ~self.coverage.covered(slices, cells)

    def simple(self) -> np.ndarray:
        """_simple_flips of the flips."""
        return _simple_flips(self.flips, self.uncovered, self.disk, self.inside)

    def anchors(self) -> Tuple[np.ndarray, np.ndarray]:
        """_flip_anchors of the flips."""
        return _flip_anchors(self.flips, self.uncovered, self.disk, self.inside)


def _box_flips(s: Scenario, times: Sequence[float], grid: GridSpec) -> _BoxFlips:
    """The coverage flips between consecutive times, read on the disk's box.

    Every flip lies inside the fence, hence in the disk's box, and a disk
    cell on its edge is a rim cell in both frames, so the ring test there
    is that of the whole grid.
    """
    disk, inside = domain_masks(s, grid)
    box = bounding_box(disk)
    disk, inside = disk[box], inside[box]
    coverage = BoxCoverage(s, times, grid, box)
    return _BoxFlips(box, disk, inside, coverage, coverage.flips(inside))


class _Transitions:
    """The distinct slices of a list of times, and which steps between them
    the ring certificate vouches for; the oracle and every cobordism label
    only the slices around the others.

    kept are the distinct slices' time indices: the first time, the last,
    and each time after a step that flips a cell inside the fence; every
    other slice equals its predecessor. Transition i, from kept[i] to
    kept[i + 1], is step kept[i + 1] - 1 alone, the only one between them
    with flips, and certified[i] says whether each of its flips is
    (_flip_anchors). Then the band's standing edges match the two slices'
    uncovered components one to one, and their covered-with-collar
    components too, and both slices have the same boundary pairs.

    labeled are the time indices of the slices to label: the first and the
    last distinct slice and both ends of every uncertified transition.
    gaps[i] says whether labeled[i] and labeled[i + 1] are not consecutive
    distinct slices, so that certified transitions alone lie between them:
    across a gap, components are carried by a cell each (follow), not
    labeled, and join puts the matching into a slice graph. Every
    component of a stack that is not the first slice's appears after an
    uncertified transition, so its first slice is labeled.

    The flips and the ring are read on the disk's box, as the event scan
    reads them; the ring test is 2-D only, so in 1-D no transition is
    certified and every distinct slice is labeled.
    """

    def __init__(self, s: Scenario, times: Sequence[float], grid: GridSpec) -> None:
        self.scenario = s
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        bf = _box_flips(s, self.times, grid)
        self.box = bf.box
        self.coverage = bf.coverage
        step, *cells = bf.flips
        n = self.times.size
        self.kept = sorted_unique(np.concatenate(([0], step + 1, [n - 1])))
        if s.dimension == 2:
            anchor, covered_anchor = bf.anchors()
        else:
            anchor = covered_anchor = np.full(step.size, -1, dtype=np.intp)
        vouched = np.ones(n, dtype=bool)
        vouched[step[anchor < 0]] = False
        self.certified = vouched[self.kept[1:] - 1]
        labeled = np.zeros(self.kept.size, dtype=bool)
        labeled[[0, -1]] = True
        labeled[:-1] |= ~self.certified
        labeled[1:] |= ~self.certified
        at = np.flatnonzero(labeled)
        self.labeled = self.kept[at]
        self.gaps = np.diff(at) > 1
        # Each cell's flips in step order, to follow a cell from step to step.
        self._shape = bf.disk.shape
        keys = np.ravel_multi_index(cells, self._shape) * n + step
        order = np.argsort(keys)
        self._keys = keys[order]
        self._anchors = (anchor[order], covered_anchor[order])

    def uncovered(self, at: np.ndarray, box: Tuple[slice, ...]) -> np.ndarray:
        """The uncovered stack (slices, *box shape) at the time indices at.

        One coverage_masks call, which reads the moving tracks' positions
        off this object's coverage instead of evaluating them again.
        """
        _, inside = domain_masks(self.scenario, self.grid)
        unc = coverage_masks(self.scenario, self.times[at], self.grid, box,
                             positions=self.coverage.positions[:, at])
        np.logical_not(unc, out=unc)
        unc &= inside[box]
        return unc

    def _shift(self, box: Tuple[slice, ...]) -> Tuple[int, ...]:
        """How far box's corner lies from the disk's box's, per axis."""
        return tuple(b.indices(n)[0] - d.indices(n)[0]
                     for b, d, n in zip(box, self.box, self.grid.shape))

    def trail(self, cell: Tuple[int, ...], a: int, b: int, box: Tuple[slice, ...],
              covered: bool = False) -> List[Tuple[int, Tuple[int, ...]]]:
        """Where a cell moves across the certified steps a .. b - 1, as
        (step, cell) per move; cells are index tuples in box.

        The cell is uncovered at time a, or covered-with-collar with
        covered. It keeps its state until a step flips it, and then moves
        to that flip's anchor of its kind, which the step leaves as it was;
        so it ends at time b in the component matched to its own.
        """
        shift = self._shift(box)
        flat = int(np.ravel_multi_index(tuple(c + o for c, o in zip(cell, shift)), self._shape))
        anchors = self._anchors[covered]
        n = self.times.size
        moves = []
        while True:
            i = int(np.searchsorted(self._keys, flat * n + a))
            if i == self._keys.size or self._keys[i] >= flat * n + b:
                return moves
            a = int(self._keys[i]) % n + 1
            flat = int(anchors[i])
            moves.append((a - 1, tuple(int(v) - o for v, o
                                       in zip(np.unravel_index(flat, self._shape), shift))))

    def follow(self, cells: Tuple[np.ndarray, ...], a: int, b: int, box: Tuple[slice, ...],
               covered: bool = False) -> Tuple[np.ndarray, ...]:
        """Where each cell (index arrays in box) ends at time b (trail)."""
        ends = []
        for cell in zip(*(c.tolist() for c in cells)):
            moves = self.trail(cell, a, b, box, covered)
            ends.append(moves[-1][1] if moves else cell)
        return tuple(np.array(c, dtype=np.intp) for c in zip(*ends))

    def join(self, g: StackGraph, box: Tuple[slice, ...], first: int = 0,
             covered: bool = False) -> StackGraph:
        """A slice graph of the labeled slices first, first + 1, ... on box,
        with the edges across each gap read off the certificate.

        The slices on either side of a gap are not consecutive distinct
        slices, so the cells they share say nothing; the certified
        transitions between them match their components one to one
        instead. The first cell of each component of the earlier slice is
        followed to the later one (follow), and the component it lands in
        is its match. They must land one per component; anything else is a
        bug, not a resolution limit, and raises RuntimeError.
        """
        gaps = np.flatnonzero(self.gaps[first:first + len(g.table) - 1])
        if not gaps.size:
            return g
        src: List[np.ndarray] = []
        dst: List[np.ndarray] = []
        done = 0
        for i in gaps.tolist():
            cells = np.unravel_index(g.firsts(i), g.shape)
            moved = self.follow(cells, int(self.labeled[first + i]),
                                int(self.labeled[first + i + 1]), box, covered)
            to = g.labels_at(np.full(cells[0].size, i + 1), np.ravel_multi_index(moved, g.shape))
            if not np.array_equal(np.sort(to), np.arange(g.offsets[i + 1], g.offsets[i + 2]) + 1):
                raise RuntimeError("certified transitions did not carry the components "
                                   "one to one")
            src += [g.src[done:g.cuts[i]], np.arange(g.offsets[i], g.offsets[i + 1]) + 1]
            dst += [g.dst[done:g.cuts[i]], to.astype(np.int64)]
            done = g.cuts[i + 1]
        src = np.concatenate(src + [g.src[done:]])
        dst = np.concatenate(dst + [g.dst[done:]])
        return replace(g, src=src, dst=dst, cuts=np.searchsorted(src, g.offsets, side="right"))


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


@dataclass
class FiberComplex:
    """One time slice: the uncovered cells, and the regions read off them."""

    grid: GridSpec
    time: float
    uncovered: np.ndarray
    disk: np.ndarray
    inside: np.ndarray

    @property
    def covered(self) -> np.ndarray:
        return self.inside & ~self.uncovered

    @property
    def covered_boundary(self) -> np.ndarray:
        """Covered cells with an uncovered face neighbor."""
        return _boundary_bitmap(self.uncovered, self.covered)

    @property
    def covered_with_collar(self) -> np.ndarray:
        return self.disk & ~self.uncovered

    @property
    def collar(self) -> np.ndarray:
        return self.disk & ~self.inside


@dataclass
class CobordismComplex:
    """Uniform time samples over one interval, and the slices labeled there.

    transitions (_Transitions) holds every sample (times), the
    distinct slices (kept), each standing for every sample up to the next
    one, which all equal it, and the labeled slices (labeled): the first
    and the last sample and both ends of every transition between distinct
    slices that the ring certificate does not vouch for. Only the labeled
    slices are stacked along axis 0: uncovered[i] is the slice at
    times[labeled[i]]. Between two labeled slices that are not consecutive
    distinct ones lie certified transitions alone (transitions.gaps); they
    match components one to one, and components() carries the components
    across them instead of labeling them.
    """

    grid: GridSpec
    interval: Tuple[float, float]
    transitions: _Transitions
    uncovered: np.ndarray
    disk: np.ndarray
    inside: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.transitions.times

    @property
    def kept(self) -> np.ndarray:
        return self.transitions.kept

    @property
    def labeled(self) -> np.ndarray:
        return self.transitions.labeled


def rasterize_fiber(s: Scenario, t: float, grid: GridSpec) -> FiberComplex:
    return rasterize_fibers(s, [t], grid)[0]


def rasterize_fibers(s: Scenario, times: Sequence[float], grid: GridSpec) -> List[FiberComplex]:
    """Rasterize many fibers with one batched coverage evaluation."""
    disk, inside = domain_masks(s, grid)
    balls = coverage_masks(s, times, grid)
    return [FiberComplex(grid=grid, time=float(t), uncovered=inside & ~ball,
                         disk=disk, inside=inside)
            for t, ball in zip(times, balls)]


def rasterize_cobordism(s: Scenario, interval: Tuple[float, float], grid: GridSpec,
                        fine_time_samples: Optional[int] = None) -> CobordismComplex:
    """Rasterize the labeled sub-samples of `interval`, endpoints included.

    The flips between sub-samples and their ring certificate pick the
    labeled slices (CobordismComplex), so the others are never rasterized.
    On a circle time base the interval may extend past the span end; sample
    times are stored as given and wrapped only for sensor evaluation.
    """
    t0, t1 = interval
    if not t1 > t0:
        raise RasterError("cobordism interval must have positive length")
    n = fine_time_samples if fine_time_samples is not None else grid.fine_time_samples
    if n < 2:
        raise RasterError("a cobordism needs at least two time samples")
    disk, inside = domain_masks(s, grid)
    tr = _Transitions(s, np.linspace(t0, t1, n), grid)
    uncovered = tr.uncovered(tr.labeled, (slice(None),) * grid.dimension)
    return CobordismComplex(grid=grid, interval=(float(t0), float(t1)), transitions=tr,
                            uncovered=uncovered, disk=disk, inside=inside)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


@dataclass
class ComponentLabels:
    """Face-adjacency components of a fiber's uncovered region, canonically
    labeled 1..count."""

    labels: np.ndarray
    count: int


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

    A pair's uncovered component is numbered as in the complex's uncovered
    components (ComponentLabels.labels, CobordismComponents.ends), and its
    covered one as in covered_labels. A fiber's labels and covered_labels
    are whole-grid bitmaps. A cobordism's pairs and representatives cover
    all its slices, the representatives as flat indices of the stack of
    its distinct slices (kept, *grid shape), but its two label fields keep
    only the end slices, where fibers map in: each is a (2, *grid shape)
    stack, [0] the first slice and [-1] the last.
    """

    count: int
    pairs: Tuple[Tuple[int, int], ...]
    rep_uncovered: Tuple[int, ...]
    rep_covered: Tuple[int, ...]
    labels: np.ndarray
    covered_labels: np.ndarray


@lru_cache(maxsize=8)
def _face_structure(ndim: int) -> np.ndarray:
    """Face adjacency of cells in ndim dimensions."""
    return ndimage.generate_binary_structure(ndim, 1)


def face_contacts(source: np.ndarray, target: np.ndarray,
                  axes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices (source cell, target cell) of every face neighbor pair.

    Only neighbors along the given axes count. Each direction ands the two
    masks shifted by one cell along its axis, as strided views, so neither
    mask is copied; an index of the shifted shape, which is one cell
    shorter on that axis, skips one cell per row of the axis to be flat in
    the whole shape.
    """
    shape = source.shape
    srcs: List[np.ndarray] = []
    dsts: List[np.ndarray] = []
    for axis in axes:
        n = shape[axis]
        step = 1
        for m in shape[axis + 1:]:
            step *= m
        lead = (slice(None),) * axis + (slice(1, None),)
        trail = (slice(None),) * axis + (slice(None, -1),)
        for lo, hi, forward in ((source, target, True), (target, source, False)):
            idx = np.flatnonzero(lo[trail] & hi[lead])
            if n > 1:
                idx += idx // ((n - 1) * step) * step
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


def _rank_pairs(u: np.ndarray, v: np.ndarray, uc: np.ndarray, wc: np.ndarray,
                nv: int) -> Tuple[Tuple[Tuple[int, int], ...], np.ndarray, np.ndarray,
                                  np.ndarray]:
    """The (uncovered, covered) component pairs of a list of contacts.

    Contact i joins uncovered cell uc[i], of component u[i], to covered
    cell wc[i], of component v[i] <= nv; cells are flat indices in one
    raster order. Pairs are ranked by their least covered cell. Returns the
    pairs in rank order, their least uncovered and covered cells, and each
    contact's pair rank.
    """
    key, inv = sorted_unique(u.astype(np.int64) * (nv + 1) + v, return_inverse=True)
    least_uc = np.full(key.size, np.iinfo(np.int64).max, dtype=np.int64)
    least_wc = least_uc.copy()
    np.minimum.at(least_uc, inv, uc)
    np.minimum.at(least_wc, inv, wc)
    order = np.argsort(least_wc, kind="stable")
    rank = np.empty(key.size, dtype=np.int64)
    rank[order] = np.arange(key.size)
    pairs = tuple((int(k // (nv + 1)), int(k % (nv + 1))) for k in key[order])
    return pairs, least_uc[order], least_wc[order], rank[inv]


def _least_pairs(out: np.ndarray, cells: np.ndarray, rank: np.ndarray) -> None:
    """Write into the flat array out, at each contact cell, 1 + the least
    rank of the pairs it is a contact of."""
    by_cell = np.lexsort((rank, cells))
    sorted_cells = cells[by_cell]
    first = np.ones(sorted_cells.size, dtype=bool)
    first[1:] = sorted_cells[1:] != sorted_cells[:-1]
    out[sorted_cells[first]] = rank[by_cell][first] + 1


def boundary_pairs(c: Union[FiberComplex, CobordismComplex],
                   uncovered: Union[ComponentLabels, CobordismComponents]
                   ) -> BoundaryComponents:
    """The boundary components of a complex, given its uncovered components
    (components(c)); only the covered region is labeled here."""
    if isinstance(c, FiberComplex):
        v_lab, nv = label_components(c.disk & ~c.uncovered)
        # Contacts end on covered cells: covered-with-collar cells off the collar.
        uc, wc = face_contacts(c.uncovered, c.inside & ~c.uncovered, range(c.uncovered.ndim))
        pairs, rep_u, rep_w, rank = _rank_pairs(uncovered.labels.ravel()[uc],
                                                v_lab.ravel()[wc], uc, wc, nv)
        labels = np.zeros(c.uncovered.shape, dtype=np.int32)
        _least_pairs(labels.ravel(), wc, rank)
        return BoundaryComponents(
            count=len(pairs), pairs=pairs,
            rep_uncovered=tuple(rep_u.tolist()), rep_covered=tuple(rep_w.tolist()),
            labels=labels, covered_labels=v_lab)
    return _cobordism_pairs(c, uncovered)


def _cobordism_pairs(c: CobordismComplex, uncovered: CobordismComponents
                     ) -> BoundaryComponents:
    """boundary_pairs of a cobordism, read off two slice graphs.

    The covered-with-collar graph is built on the labeled stack cropped to
    the disk's bounding box, which the collar needs, and carried across
    each gap as the uncovered one is (_Transitions.join); the
    uncovered graph is the one of uncovered, on the fenced region's box.
    Each box holds every cell of its region and keeps their raster order,
    so the graph components are numbered as a labeling of the whole stack
    numbers them. The contacts are read on the disk's box, so they come in
    the whole stack's order. A pair's least contacts lie in the first slice
    where it exists, which is labeled, so the pairs and their ranks are
    those of the whole stack; only the representatives, mapped to the
    stack of distinct slices, and the end slices are mapped back to the
    whole grid.
    """
    box = bounding_box(c.disk)
    crop = (slice(None),) + box
    # The crop is a view, and the covered-with-collar stack its one complement.
    unc = c.uncovered[crop]
    steps, size = len(unc), unc[0].size
    covered = np.logical_not(unc)
    covered &= c.disk[box]
    gv = c.transitions.join(stack_graph(covered), box, covered=True)
    comp_v, nv = _graph_components(gv)
    # Contacts end on covered cells: covered-with-collar cells inside the fence.
    uc, wc = face_contacts(unc, covered, range(1, unc.ndim))
    del covered
    w_step, w_cell = np.divmod(wc, size)
    keep = c.inside[box].ravel()[w_cell]
    uc, wc, w_step, w_cell = uc[keep], wc[keep], w_step[keep], w_cell[keep]
    corner = [b.start or 0 for b in box]
    # An uncovered cell lies inside the fence, so in the uncovered graph's box.
    gu = uncovered.graph
    u_step, u_cell = np.divmod(uc, size)
    u_at = np.unravel_index(u_cell, unc.shape[1:])
    u_cell = np.ravel_multi_index([k + o - (b.start or 0) for k, o, b
                                   in zip(u_at, corner, uncovered.box)], gu.shape)
    pairs, rep_u, rep_w, rank = _rank_pairs(uncovered.component[gu.labels_at(u_step, u_cell)],
                                            comp_v[gv.labels_at(w_step, w_cell)], uc, wc, nv)
    labels = np.zeros((2, size), dtype=np.int32)
    for end, step in enumerate((0, steps - 1)):
        at = w_step == step
        _least_pairs(labels[end], w_cell[at], rank[at])

    def ends(values: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros((2,) + c.disk.shape, dtype=np.int32)
        out[crop] = np.reshape(values, (2,) + unc.shape[1:])
        return out

    def whole(flat: np.ndarray) -> Tuple[int, ...]:
        step, *cell = np.unravel_index(flat, unc.shape)
        cell = [k + o for k, o in zip(cell, corner)]
        step = np.searchsorted(c.kept, c.labeled)[step]
        return tuple(np.ravel_multi_index((step, *cell),
                                          (c.kept.size,) + c.disk.shape).tolist())

    return BoundaryComponents(
        count=len(pairs), pairs=pairs,
        rep_uncovered=whole(rep_u), rep_covered=whole(rep_w), labels=ends(labels),
        covered_labels=ends([comp_v[gv.labels(0)], comp_v[gv.labels(-1)]]))


def label_components(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Canonical face-adjacency labeling of a bare bitmap.

    Labels are numbered in order of each component's first cell; scipy
    assigns them in raster order already, so its output is used as is.
    """
    return ndimage.label(mask, structure=_face_structure(mask.ndim))


def first_cells(labels: np.ndarray) -> np.ndarray:
    """Flat index of the first cell of each label 1..count, in label order.

    labels is a canonical labeling, numbered by each component's first cell
    in raster order (label_components, or label_slices' stack-wide labels),
    so the first cells are where the running maximum of the flat labels
    rises.
    """
    top = np.maximum.accumulate(labels.ravel())
    rise = np.empty(top.size, dtype=bool)
    rise[:1] = top[:1] != 0
    np.not_equal(top[1:], top[:-1], out=rise[1:])
    return np.flatnonzero(rise)


def _slice_structure(ndim: int) -> np.ndarray:
    """Face adjacency within a slice of a (T, *shape) stack, none across slices."""
    structure = np.zeros((3,) * ndim, dtype=bool)
    structure[1] = _face_structure(ndim - 1)
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
    """The components of every slice of a stack (T, *shape), and how they meet.

    table is the (T, cells) int32 array of label_slices' stack-wide labels,
    one row per slice: slice j owns offsets[j]+1 .. offsets[j+1], in the
    canonical order of label_components. Readers ask for one slice
    (labels), for given (slice, flat cell) pairs (labels_at) or for a
    slice's components' first cells (firsts). A standing edge (src, dst)
    joins a component of slice j to one of slice j+1 that shares a set cell
    with it; edges are sorted, and cuts[j]:cuts[j+1] are those leaving
    slice j.
    """

    shape: Tuple[int, ...]
    table: np.ndarray
    offsets: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    cuts: np.ndarray

    def labels(self, j: int) -> np.ndarray:
        """Slice j's stack-wide labels, shaped as a slice (a view of the table)."""
        return self.table[j].reshape(self.shape)

    def labels_at(self, steps: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The stack-wide label of each flat cell cells[i] in slice steps[i]."""
        return self.table[steps, cells]

    def firsts(self, j: int) -> np.ndarray:
        """The flat first cell of each of slice j's components, in label order."""
        return first_cells(self.table[j])


def _slice_of(offsets: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The slice owning each stack-wide label."""
    return np.searchsorted(offsets, labels) - 1


def stack_graph(mask: np.ndarray) -> StackGraph:
    """Label the slices of the stack (T, *shape) and collect its standing edges.

    Every slice is labeled in one label_slices call, whose labels are the
    table. Keys pair a stack-wide source label with a target label local to
    its slice, so they stay below (labels + 1) * (largest slice count + 1).
    """
    labels, tops = label_slices(mask)
    offsets = np.concatenate(([0], tops)).astype(np.int64)
    table = labels.reshape(len(mask), -1)
    a = table[:-1].ravel()
    b = table[1:].ravel()
    # A component pair repeats along every cell it shares: keep run starts.
    run = (mask[:-1] & mask[1:]).ravel()
    run[1:] &= (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    idx = np.flatnonzero(run)
    pa = a[idx].astype(np.int64)
    pb = b[idx].astype(np.int64)
    width = int(np.diff(offsets).max(initial=0)) + 1
    keys = sorted_unique(pa * width + pb - offsets[_slice_of(offsets, pb)])
    src = keys // width
    dst = keys % width + offsets[_slice_of(offsets, src) + 1]
    cuts = np.searchsorted(src, offsets, side="right")
    return StackGraph(shape=mask.shape[1:], table=table, offsets=offsets,
                      src=src, dst=dst, cuts=cuts)


def sweep(g: StackGraph, seeds: Sequence[int], backward: bool = False) -> np.ndarray:
    """Which labels each seed reaches by time-monotone paths.

    Returns a boolean (labels + 1, seeds) matrix. A forward path steps from
    slice j to slice j + 1 along standing edges; a backward one runs the
    edges in reverse, from the last slice to the first.
    """
    reach = np.zeros((int(g.offsets[-1]) + 1, len(seeds)), dtype=bool)
    reach[np.asarray(seeds, dtype=np.int64), np.arange(len(seeds))] = True
    steps = range(len(g.table) - 1)
    origin, target = g.src, g.dst
    if backward:
        steps = reversed(steps)
        origin, target = g.dst, g.src
    for j in steps:
        e = slice(g.cuts[j], g.cuts[j + 1])
        np.logical_or.at(reach, target[e], reach[origin[e]])
    return reach


def _union_roots(size: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per node 0..size-1, the least node of its component, edges taken both ways.

    A vectorized union-find: each round hooks every edge's larger root under
    its smaller one and then jumps pointers to the roots, until both ends of
    every edge share a root. A pointer never rises, so each component's
    root is its least node.
    """
    root = np.arange(size, dtype=src.dtype)
    while True:
        a = root[src]
        b = root[dst]
        if np.array_equal(a, b):
            return root
        lo = np.minimum(a, b)
        np.maximum(a, b, out=a)
        del b
        np.minimum.at(root, a, lo)
        del a, lo
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def _graph_components(g: StackGraph) -> Tuple[np.ndarray, int]:
    """The connected components of a stack graph, edges taken both ways.

    Returns, per stack-wide label, its component (0 for label 0), and the
    component count. Components are numbered in order of their least label;
    labels follow the stack's raster order, so this is the order of each
    component's first cell, as in a labeling of the whole stack.
    """
    root = _union_roots(int(g.offsets[-1]) + 1, g.src, g.dst)
    firsts = sorted_unique(root[1:])
    comp = np.searchsorted(firsts, root) + 1
    comp[0] = 0
    return comp, int(firsts.size)


@dataclass
class CobordismComponents:
    """Space-time components of a cobordism's uncovered region, labeled
    1..count.

    They are the connected components of the region's slice graph, and are
    numbered as a face-adjacency labeling of the whole stack of every
    sample would number them: component[x] is the component of the graph's
    stack-wide label x (0 for label 0). The graph is built on the stack
    cropped to box, the bounding box of the fenced region: it holds every
    uncovered cell and keeps their raster order. The graph's slices are the
    cobordism's labeled ones, graph slice i at times[labeled[i]], and its
    edges across a gap between them are the certified matching
    (_Transitions.join). The witness search walks the graph in those
    cropped coordinates, reading a slice's labels only where its path
    moves. Only the first and last slices are labeled on the whole grid
    (ends[0] and ends[-1]), since fibers map in at those.
    """

    count: int
    ends: Tuple[np.ndarray, np.ndarray]
    graph: StackGraph
    component: np.ndarray
    box: Tuple[slice, ...]


def components(c: Union[FiberComplex, CobordismComplex]
               ) -> Union[ComponentLabels, CobordismComponents]:
    """Labeled components of the uncovered region of a fiber or cobordism.

    Face adjacency within a slice; cobordisms additionally connect the same
    cell across consecutive sub-samples. A cobordism's components are read
    off one slice graph: the same cell set in consecutive slices is exactly
    a standing edge, so the space-time components are the graph's connected
    components, and the witness search walks that same graph. Only the end
    slices' labels are written, on the whole grid; no stack is labeled with
    adjacency across slices. boundary_pairs reads the boundary components
    off these.

    A cobordism holds only its labeled slices, and that changes nothing
    here. Equal slices have the same components, and their standing edges
    join each to its copy one to one; so do a certified transition's two
    slices (_flip_anchors). Across a gap the graph's edges are that
    matching, carried by one cell per component, so the space-time
    components and the time-monotone reachability are those of the stack
    of every sample. A component appears only at the first slice or after
    an uncertified transition, where a slice is labeled, so each
    component's first cell in raster order lies in a labeled slice and the
    numbering is that of the whole stack.
    """
    if isinstance(c, FiberComplex):
        labels, count = label_components(c.uncovered)
        return ComponentLabels(labels=labels, count=count)
    box = bounding_box(c.inside)
    # The crop is a view.
    g = c.transitions.join(stack_graph(c.uncovered[(slice(None),) + box]), box)
    comp, count = _graph_components(g)
    # int32, as every label array here is.
    first, last = np.zeros((2,) + c.inside.shape, dtype=np.int32)
    first[box] = comp[g.labels(0)]
    last[box] = comp[g.labels(-1)]
    return CobordismComponents(count=count, ends=(first, last), graph=g,
                               component=comp, box=box)


def _complement_holes(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Labels of the complement of a 2d mask padded by one cell, and the
    number of holes (bounded complement components).

    The padding joins every complement cell on the grid edge into one
    component. It holds the first cell, so in raster order it is label 1, and
    the holes are labels 2 to count + 1, in order of their first cell.
    """
    labels, n = ndimage.label(np.pad(~mask, 1, constant_values=True), structure=_face_structure(2))
    return labels, n - 1


def count_holes(mask: np.ndarray) -> int:
    """Bounded complement components of a 2d mask (its first Betti number)."""
    if mask.ndim != 2:
        return 0
    return _complement_holes(mask)[1]
