"""Critical coverage events and interleaved diagrams of component sets.

A scenario's topology changes at finitely many times. Events are located by
scanning a coarse signature (uncovered components, uncovered holes, boundary
components) over the time span and bisecting every change down to a narrow
window; each window is classified by the direction of the single coverage
flip inside it. Samples interleaved between the windows then carry fibers,
and the spans between consecutive samples carry cobordisms, yielding a zigzag
of component sets with restriction maps induced by inclusion of slices.
The scan below is the one for dimension 2; in dimension 1, detect_events
returns the exact events of the gap sweep (gapsweep) instead.

The bisection probes no slice on its own. For each changing scan step it
lists the midpoints its halving can visit, with its own arithmetic, a few
levels deep, and reads their signatures as the scan does; the step's end
signatures are known, so with one step of non-simple flips (see below) the
table labels nothing. A window is classified from the flips of the probe
table that holds its two ends, the scan itself for a step already at or
below tol: the table's flips in the steps between them whose coverage at
the two ends differs, which are exactly the window's. So each event's flips
are read once, and no whole-grid slice is rasterized either.

Between critical values the topology is constant, so the scan labels only
the slices where it can change. The cells that flip between two slices are
applied one at a time in raster order, and each is tested locally on its
eight-cell ring: it is simple when it is off the rim, its uncovered and its
covered-with-collar face neighbors each lie on one arc of like ring cells,
and one covered-with-collar face neighbor is inside the fence. A simple flip
grows or shrinks one uncovered and one covered component without merging,
splitting, creating or removing any, keeps every rim reach, and keeps the
one contact pair it touches; so a step of simple flips keeps the signature
exactly, and the later slice repeats the earlier one's signature unlabeled.
A simple flip that also keeps an uncovered and a covered-with-collar face
neighbor as they were keeps more: the components of both regions, matched
one to one across the step. The oracle and every cobordism label only the
slices around the steps without that certificate
(rasterize._Transitions).

The flips come from the moving sensors alone, and the scan builds no stack
of every slice. Coverage is the static union or'ed with every moving ball,
so a cell whose coverage changes in a step changes in some ball, and its
distance to that ball's center crosses the radius in the step, or is within
float error of it at an end. The scenario's crossing bands hold those times
per cell in closed form (BoxCoverage.flips); the cells whose band meets a
step are the candidates, and reading full coverage at each candidate's two
times keeps exactly the flips of the dense step diff. The ring cells are
read the same way, and only the labeled slices are then rasterized, so the
scan's memory does not grow with its samples.

The sample fibers are labeled once, as one stack on the disk's box, which
gives both their components and their signatures (build_zigzag). On an
interval base the end samples are the span's endpoints, which are also the
scan's first and last slices, so they are labeled before the scan and their
signatures handed to it: a scan with one step of non-simple flips then
labels no slice at all.

A window narrowed to _WINDOW_FLOOR that still holds flips both ways is
classified on its non-simple flips (_classify_at_floor): when a ball whose
diameter is a whole number of cells runs along a row of cell centers, its
leading and trailing edges cross centers at the same instants, and no
window separates them.

Type D events flip the locus cell from uncovered to covered (a pocket pinches
or vanishes; the cobordism retracts onto its earlier fiber). Type N events
flip it from covered to uncovered (pockets merge or appear; the cobordism
retracts onto its later fiber). Both letters refer to the uncovered region;
the covered region sees the opposite letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage

from .errors import KnobError, ResolutionError, SimultaneousEventsError
from .limit import ZigzagSetDiagram
from .rasterize import (CobordismComplex, CobordismComponents,
                        ComponentLabels, FiberBoundary, FiberComplex, GridSpec,
                        _box_flips, _disk_view, _DiskView, _rank_pairs,
                        _raster_tables, _simple_flips, components,
                        coverage_masks, face_contacts, first_cells,
                        grid_for_scenario, label_slices, rasterize_cobordism,
                        rasterize_fibers, sorted_unique)
from .scenario import TIME_SPAN, Scenario

__all__ = [
    "Event",
    "Signature",
    "fiber_signature",
    "detect_events",
    "interleave",
    "ZigzagBundle",
    "build_zigzag",
]

Signature = Tuple[int, int, int]

DEFAULT_SCAN_SAMPLES = 512
DEFAULT_TOL = 1e-4


@dataclass(frozen=True)
class Event:
    """One topology change, bracketed by a window of width at most tol."""

    window: Tuple[float, float]
    locus: Tuple[int, ...]
    type_x: str
    before: Signature
    after: Signature

    @property
    def time(self) -> float:
        return 0.5 * (self.window[0] + self.window[1])

    @property
    def type_c(self) -> str:
        """The same event seen from the covered region."""
        return "N" if self.type_x == "D" else "D"


def _per_slice(tops: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """How many of the given nonzero labels each slice owns."""
    return np.bincount(np.searchsorted(tops, labels), minlength=tops.size)


def _stack_signatures(uncovered: np.ndarray, disk: np.ndarray, inside: np.ndarray,
                      rim: np.ndarray
                      ) -> Tuple[List[Signature], np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Signatures of every slice of a 2-D uncovered stack (T, ny, nx), with
    the stack's uncovered labels and tops (label_slices) and the boundary
    pairs they were read off. rim is _rim(disk).

    Callers crop the stack and masks to the disk's bounding box (_DiskView):
    every uncovered cell lies in it, and a disk cell on its edge is a rim
    cell in both frames, so the signatures are those of the whole grid.

    One _rank_pairs call ranks the whole stack's pairs: stack-wide labels
    each name one slice, and stack-flat indices order by slice first, so
    each slice's pairs are one run, ranked as labeling it alone ranks them.
    They are arrays in rank order: slice, uncovered and covered component
    and representatives (FiberBoundary), all within the slice.
    """
    u_lab, u_tops = label_slices(uncovered)
    covered_with_collar = disk & ~uncovered
    v_lab, v_tops = label_slices(covered_with_collar)
    pi0 = np.diff(u_tops, prepend=0)
    # The uncovered region lies inside the disk, so its complement is the
    # covered-with-collar region plus the cells off the disk, which are
    # connected to each other and to the grid border. The holes are the
    # covered-with-collar components that do not reach the rim.
    outer = sorted_unique(v_lab[:, rim].ravel())
    v_counts = np.diff(v_tops, prepend=0)
    b1 = v_counts - _per_slice(v_tops, outer[outer != 0])
    # Contacts end on covered cells: covered-with-collar cells off the collar.
    uc, wc = face_contacts(uncovered, covered_with_collar & inside, range(1, uncovered.ndim))
    u, v, rep_u, rep_w = _rank_pairs(u_lab.ravel()[uc], v_lab.ravel()[wc], uc, wc,
                                     int(v_tops[-1]))
    at, rep_w = np.divmod(rep_w, disk.size)
    pb = np.bincount(at, minlength=len(uncovered))
    pairs = (at, u - (u_tops - pi0)[at], v - (v_tops - v_counts)[at], rep_u % disk.size, rep_w)
    sigs = [(int(a), int(b), int(c)) for a, b, c in zip(pi0, b1, pb)]
    return sigs, u_lab, u_tops, pairs


def fiber_signature(f: FiberComplex) -> Signature:
    """(uncovered components, uncovered holes, boundary components) of a
    2-D fiber, labeled alone. A 1-D fiber's signature is its gap sweep's
    (gapsweep)."""
    if f.uncovered.ndim != 2:
        raise ValueError("fiber signatures are read off 2-D fibers only")
    return _label_fibers([f], _disk_view(f.disk, f.inside))[1][0]


class _Table:
    """Signatures at a list of times, with the coverage flips they were
    read off, so that a window between two of its times is classified from
    them (_flip_split) without reading its flips again.

    flips are the times' _box_flips, and at maps each time to its index.
    """

    def __init__(self, s: Scenario, times: Sequence[float], grid: GridSpec,
                 ends: Optional[Tuple[Signature, Signature]] = None) -> None:
        self.times = np.asarray(times, dtype=float)
        self.at = {t: i for i, t in enumerate(self.times.tolist())}
        self.flips = _box_flips(s, self.times, grid)
        self.signatures = self._read(s, grid, ends)

    def _read(self, s: Scenario, grid: GridSpec,
              ends: Optional[Tuple[Signature, Signature]]) -> List[Signature]:
        """The signatures at the times (see _signatures)."""
        times, bf = self.times, self.flips
        labeled = np.ones(times.size, dtype=bool)
        if times.size > 1:
            labeled[1:] = np.bincount(bf.flips[0][~bf.simple()], minlength=times.size - 1) > 0
        last = times.size
        if ends is not None:
            steps = np.flatnonzero(labeled[1:])
            if not steps.size:
                if ends[0] == ends[1]:
                    return [ends[0]] * times.size
                raise ResolutionError(
                    f"signature changed across ({times[0]:.6f}, {times[-1]:.6f}) "
                    "although every coverage flip inside it is simple", hint="raise --cells")
            last = int(steps[-1]) + 1
            labeled[0] = labeled[last] = False
        sigs = []
        if labeled.any():
            view = bf.view
            sigs = _stack_signatures(view.inside & ~coverage_masks(s, times[labeled], grid, view.box),
                                     view.disk, view.inside, view.rim)[0]
        if ends is None:
            return [sigs[i] for i in np.cumsum(labeled) - 1]
        sigs = [ends[0]] + sigs
        return [sigs[i] for i in np.cumsum(labeled[:last])] + [ends[1]] * (times.size - last)


def _signatures(s: Scenario, times: Sequence[float], grid: GridSpec,
                ends: Optional[Tuple[Signature, Signature]] = None) -> List[Signature]:
    """Signatures at the given times, computed on the disk's box only.

    Only slice 0 and the slices after a step with a flip that is not simple
    (see _simple_flips) are rasterized and labeled; every other slice repeats
    its predecessor's signature. The flips come from the crossing bands of
    the moving sensors (BoxCoverage.flips), and the ring cells are read one
    at a time, so no stack of every slice is built.

    The rule is exact. Under (b) and (c), one uncovered component and one
    covered-with-collar component each gain or lose the flipped cell and
    stay connected; no component merges, splits, appears or vanishes. By
    (a) the rim reach is unchanged, so b1 is too. The only contact pair
    touching the cell joins those two components, and by (b) and (d) it
    exists on both sides of the flip. A step without flips is simple. The
    flips and ring reads equal the step diff and the cells of the stack
    coverage_masks would build, as BoxCoverage argues, so the labeled
    slices and the signatures are those of labeling every slice.

    ends, when given, are the known signatures of the first and the last
    slice. Then slice 0 is not labeled, and neither is the slice after the
    last step that is not simple: every step after it is simple, so it and
    every later slice carry the last slice's signature. A bisection table,
    or a scan given its end fibers' signatures, with one such step labels
    nothing. Without such a step every slice carries the first slice's
    signature, so equal ends give that constant, and differing ends
    contradict the certificate and raise ResolutionError.
    """
    return _Table(s, times, grid, ends).signatures


def _jump_ok(before: Signature, after: Signature) -> bool:
    """Whether the signature change fits a single elementary transition.

    One event moves exactly one of the two connectivity counts by one.
    The boundary pair count may move by two: a dying gap has a covered
    neighbor on each side and the neighbors fuse at the same instant.
    """
    dp = abs(after[0] - before[0])
    db = abs(after[1] - before[1])
    dr = abs(after[2] - before[2])
    return dp + db <= 1 and dr <= 2


_WINDOW_FLOOR = 1e-12

# Bisection levels per probe table: 33 times, enough for the default scan
# step (1/512) to reach the default tol (1e-4) in one table.
_TABLE_LEVELS = 5


def _clusters(cells: Tuple[np.ndarray, ...]) -> int:
    """How many face-or-corner clusters the cells form, labeled on their
    own bounding box."""
    if not cells[0].size:
        return 0
    lo = [c.min() for c in cells]
    box = np.zeros([int(c.max() - m) + 1 for c, m in zip(cells, lo)], dtype=bool)
    box[tuple(c - m for c, m in zip(cells, lo))] = True
    return int(ndimage.label(box, structure=np.ones((3,) * box.ndim, dtype=int))[1])


def _flip_split(table: _Table, a: float, b: float, non_simple: bool = False
                ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, int]:
    """Coverage flips across a window, with their direction and cluster count.

    a and b are two of the table's times, i and j. Returns the flipped
    cells as index arrays in raster order, whether each flips to covered,
    and how many face-or-corner clusters they form. Every flip of the
    window lies inside the fence, so its coverage changes in some step of
    the table between i and j, whose flips are exact (BoxCoverage.flips):
    the window's flips are the cells the table flips in steps i .. j - 1
    whose coverage at i and at j differs. They are read in the disk's box,
    whose raster order is the grid's, and shifted by its corner. With
    non_simple, the flips that _simple_flips calls simple across the window,
    its ring read at i and at j, are dropped.
    """
    bf = table.flips
    view = bf.view
    i, j = table.at[a], table.at[b]
    step, *cells = bf.flips
    lo, hi = np.searchsorted(step, (i, j))
    cells = np.unravel_index(sorted_unique(np.ravel_multi_index(
        [c[lo:hi] for c in cells], view.inside.shape)), view.inside.shape)
    before, after = (bf.coverage.covered(np.full(cells[0].size, k), cells) for k in (i, j))
    flipped = before != after
    cells, to_covered = tuple(c[flipped] for c in cells), after[flipped]
    if non_simple:
        ends = np.array([i, j])
        keep = ~_simple_flips((np.zeros(to_covered.size, dtype=np.intp), *cells),
                              lambda k, c: bf.uncovered(ends[k], c), view.disk, view.inside)
        cells, to_covered = tuple(c[keep] for c in cells), to_covered[keep]
    return tuple(c + o for c, o in zip(cells, view.corner)), to_covered, _clusters(cells)


def _ambiguous(to_covered: np.ndarray, n_clusters: int) -> bool:
    """Whether the flips go both ways or form more than one cluster."""
    return 0 < to_covered.sum() < to_covered.size or n_clusters > 1


def _classified(a: float, b: float, sa: Signature, sb: Signature,
                split: Tuple[Tuple[np.ndarray, ...], np.ndarray, int]) -> Optional[Event]:
    """The event of a window whose flips (a _flip_split) are unambiguous."""
    cells, to_covered, n_clusters = split
    if _ambiguous(to_covered, n_clusters) or not _jump_ok(sa, sb):
        return None
    return Event(window=(float(a), float(b)), locus=tuple(int(c[0]) for c in cells),
                 type_x="D" if to_covered[0] else "N", before=sa, after=sb)


def _try_classify(table: _Table, a: float, b: float,
                  sa: Signature, sb: Signature) -> Optional[Event]:
    """Classify the window (a, b) of the table if its coverage flips are
    unambiguous.

    A moving sensor covers cells at its leading edge and uncovers them at its
    trailing edge, so a window can hold flips unrelated to the signature
    change; those are excluded by narrowing the window further, which is
    signaled here by returning None. The same applies when the signature
    jump exceeds one unit: cells of a thin channel flip close together and
    may still separate at a finer width.
    """
    split = _flip_split(table, a, b)
    if not split[1].size:
        raise ResolutionError(
            f"signature changed across ({a:.6f}, {b:.6f}) without a coverage flip",
            hint="raise --cells")
    return _classified(a, b, sa, sb, split)


def _classify_at_floor(table: _Table, a: float, b: float,
                       sa: Signature, sb: Signature) -> Event:
    """Classify a window of the table that cannot be narrowed on its
    non-simple flips, or raise the right error.

    When a ball's diameter is a whole number of cells, its leading and
    trailing edges cross cell centers at the same instants, so no window
    separates their flips. A simple flip keeps the signature, so the change
    lies in the others: one cluster of them going one way is the event.
    Flips that cannot be separated otherwise break the distinct-critical-
    values hypothesis.
    """
    split = _flip_split(table, a, b, non_simple=True)
    if split[1].size:
        event = _classified(a, b, sa, sb, split)
        if event is not None:
            return event
        if _ambiguous(split[1], split[2]):
            # No grid separates transitions that share an instant.
            raise SimultaneousEventsError(
                f"coverage transitions inside ({a:.12f}, {b:.12f}) cannot "
                "be separated in time",
                hint="perturb the scenario: two transitions share one instant")
    raise ResolutionError(
        f"resolution too coarse: signature jumped {sa} -> {sb} "
        f"across ({a:.6f}, {b:.6f})", hint="raise --cells")


def _probe_table(s: Scenario, grid: GridSpec, a: float, b: float,
                 sa: Signature, sb: Signature, tol: float) -> _Table:
    """The times _bisect can probe in (a, b), with their signatures.

    The times are a, b and the midpoints m = 0.5 * (a + b) of _bisect's own
    arithmetic, for _TABLE_LEVELS levels, stopping where it stops: at
    b - a <= tol, where it classifies first, or where not a < m < b. A
    window at or below tol is probed only after an ambiguous
    classification, so a table over one stops at _WINDOW_FLOOR instead.
    The times are bit-identical to those the loop visits, whether or not
    the scan grid is dyadic, and their signatures are read with known ends
    (see _signatures), so each equals labeling that probe alone.
    """
    stop = tol if b - a > tol else _WINDOW_FLOOR
    times, level = [a, b], [(a, b)]
    for _ in range(_TABLE_LEVELS):
        deeper = []
        for lo, hi in level:
            m = 0.5 * (lo + hi)
            if hi - lo > stop and lo < m < hi:
                times.append(m)
                deeper += [(lo, m), (m, hi)]
        level = deeper
    times.sort()
    return _Table(s, times, grid, ends=(sa, sb))


def _bisect(s: Scenario, grid: GridSpec, a: float, b: float,
            sa: Signature, sb: Signature, tol: float,
            out: List[Event], table: _Table) -> None:
    """Narrow (a, b) to events of width at most tol, appended to out.

    a and b are times of table: the scan, or the probe table (_probe_table)
    whose probes narrowed the window to them. Each probe's signature is read
    from it, and each window is classified from its flips (_flip_split); a
    probe missing from it, below the table's last level or below tol after
    an ambiguous classification, builds the next table over (a, b).
    """
    while True:
        if b - a <= tol:
            event = _try_classify(table, a, b, sa, sb)
            if event is None and b - a <= _WINDOW_FLOOR:
                event = _classify_at_floor(table, a, b, sa, sb)
            if event is not None:
                out.append(event)
                return
        m = 0.5 * (a + b)
        if not a < m < b:
            out.append(_classify_at_floor(table, a, b, sa, sb))
            return
        if m not in table.at:
            table = _probe_table(s, grid, a, b, sa, sb, tol)
        sm = table.signatures[table.at[m]]
        if sm == sa:
            a = m
        elif sm == sb:
            b = m
        else:
            _bisect(s, grid, a, m, sa, sm, tol, out, table)
            _bisect(s, grid, m, b, sm, sb, tol, out, table)
            return


def check_scan_knobs(scan_samples: int, tol: float) -> None:
    """Raise KnobError when scan_samples is below 2 or tol is not a finite
    positive number."""
    if scan_samples < 2:
        raise KnobError(f"scan_samples must be at least 2, got {scan_samples}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise KnobError(f"tol must be a finite positive number, got {tol}")


def detect_events(s: Scenario, grid: Optional[GridSpec] = None,
                  scan_samples: int = DEFAULT_SCAN_SAMPLES,
                  tol: float = DEFAULT_TOL,
                  ends: Optional[Tuple[Signature, Signature]] = None) -> Tuple[Event, ...]:
    """Locate all signature changes over the time span.

    Changes that cancel exactly between two adjacent scan samples are
    invisible at this granularity; raise scan_samples for fast scenarios.
    Each changing step is bisected on probe tables (_probe_table): their
    times are the bisection's own midpoints, bit for bit, and their
    signatures are those of labeling each probe alone, so the events are
    those of probing one slice at a time. Each window is classified from
    the flips of the table that holds its ends, the scan's own for a step
    already at or below tol, so no flips are read again.
    On a circle time base the closed tracks make the signature at both span
    endpoints agree, so scanning the span once covers the whole loop.
    In dimension 1 the events are the gap sweep's (gapsweep): exact, at
    zero-width windows, whatever scan_samples and tol are; the grid places
    their loci only.
    ends, in 2-D, are the signatures of the fibers at the span's two
    endpoints when the caller has them (build_zigzag). The scan's first and
    last slices are those fibers cropped to the disk's box, so the scan
    labels neither (see _signatures), and a scan with one step of
    non-simple flips labels nothing.
    Raises KnobError when scan_samples is below 2 or tol is not a finite
    positive number.
    """
    check_scan_knobs(scan_samples, tol)
    if grid is None:
        grid = grid_for_scenario(s)
    if s.dimension == 1:
        from .gapsweep import sweep_gaps  # gapsweep builds on this module
        return sweep_gaps(s, grid).events
    t0, t1 = TIME_SPAN
    scan = _Table(s, np.linspace(t0, t1, scan_samples + 1), grid, ends=ends)
    times, sigs = scan.times.tolist(), scan.signatures
    events: List[Event] = []
    for i in range(scan_samples):
        if sigs[i] != sigs[i + 1]:
            _bisect(s, grid, times[i], times[i + 1], sigs[i], sigs[i + 1], tol, events, scan)
    events.sort(key=lambda e: e.window[0])
    for prev, cur in zip(events, events[1:]):
        if cur.window[0] < prev.window[1]:
            raise SimultaneousEventsError(
                f"event windows ({prev.window[0]:.6f}, {prev.window[1]:.6f}) and "
                f"({cur.window[0]:.6f}, {cur.window[1]:.6f}) overlap",
                hint="lower --tol")
    return tuple(events)


def interleave(events: Sequence[Event], time_base: str) -> Tuple[float, ...]:
    """Sample times separating consecutive event windows.

    Interval bases get both span endpoints plus one sample in each gap
    between events. Circle bases get one sample per gap only (the span
    endpoints are identified); an event-free circle keeps a single sample
    at the span start so the wrap-around cobordism is still well formed.
    Events with one window share its span. An exact event, whose window has
    zero width, may lie on an interval base's endpoint, the first or last
    sample; a wider window touching an endpoint is a ResolutionError.
    """
    t0, t1 = TIME_SPAN
    windows = sorted(set(e.window for e in events))
    for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
        if not b1 < a2:
            raise SimultaneousEventsError(
                f"event windows ({a1:.6f}, {b1:.6f}) and ({a2:.6f}, {b2:.6f}) "
                "leave no room for a sample between them", hint="lower --tol")
    if time_base == "interval":
        if not windows:
            return (t0, t1)
        (a0, b0), (an, bn) = windows[0], windows[-1]
        if a0 < t0 or bn > t1 or a0 == t0 < b0 or an < t1 == bn:
            raise ResolutionError("an event window touches the time span endpoint",
                                  hint="lower --tol")
        mids = [0.5 * (b1 + a2) for (_, b1), (a2, _) in zip(windows, windows[1:])]
        return (t0, *mids, t1)
    if time_base == "circle":
        if not windows:
            return (t0,)
        span = t1 - t0
        mids = [0.5 * (b1 + a2) for (_, b1), (a2, _) in zip(windows, windows[1:])]
        wrap_gap = (windows[0][0] + span) - windows[-1][1]
        if not wrap_gap > 0:
            raise SimultaneousEventsError(
                "the first and last event windows overlap around the span wrap",
                hint="lower --tol")
        wrap_mid = t0 + (windows[-1][1] + 0.5 * wrap_gap - t0) % span
        return tuple(sorted(mids + [wrap_mid]))
    raise ValueError(f"unknown time base {time_base!r}")


# ---------------------------------------------------------------------------
# diagram assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZigzagBundle:
    """A zigzag diagram of uncovered components together with the geometry
    it was read off from.

    Fibers sit at the sample times and cobordisms span consecutive samples
    (plus the wrap-around span on a circle base). The diagram's maps send
    each fiber component to the spacetime component containing it.
    signatures are the 2-D fibers' fiber_signature, and boundaries their
    boundary pairs, read off the labeling that gives fiber_parts; a 1-D
    bundle carries None for both.
    """

    scenario: Scenario
    grid: GridSpec
    time_base: str
    samples: Tuple[float, ...]
    events: Tuple[Event, ...]
    fibers: Tuple[FiberComplex, ...]
    fiber_parts: Tuple[ComponentLabels, ...]
    signatures: Optional[Tuple[Signature, ...]]
    boundaries: Optional[Tuple[FiberBoundary, ...]]
    cobordisms: Tuple[CobordismComplex, ...]
    cobordism_parts: Tuple[CobordismComponents, ...]
    diagram: ZigzagSetDiagram


def _label_fibers(fibers: Sequence[FiberComplex], view: _DiskView
                  ) -> Tuple[Tuple[ComponentLabels, ...], Optional[Tuple[Signature, ...]],
                             Optional[Tuple[FiberBoundary, ...]]]:
    """Each fiber's components(), and in 2-D its fiber_signature and its
    boundary pairs, from one labeling of the fibers' stack on the disk's box
    (view, the _DiskView of the fibers' domain).

    The box holds every uncovered cell in raster order, so a slice's labels
    less the tops below it, written back onto the whole grid, are that
    fiber's label_components. A fiber's pairs are its slice's run of the
    stack's pairs (_stack_signatures), whose representatives are mapped back
    onto the whole grid the same way. In 1-D only the uncovered region is
    labeled, and there are no signatures or pairs.
    """
    f0 = fibers[0]
    box = view.box
    stack = np.stack([f.uncovered[box] for f in fibers])
    if stack.ndim == 2:
        u_lab, u_tops = label_slices(stack)
        sigs = bounds = None
    else:
        signatures, u_lab, u_tops, (at, u, v, *reps) = _stack_signatures(
            stack, view.disk, view.inside, view.rim)
        sigs = tuple(signatures)
        whole = np.arange(f0.disk.size).reshape(f0.disk.shape)[box].ravel()
        rep_u, rep_w = (whole[r].tolist() for r in reps)
        u, v = u.tolist(), v.tolist()
        cuts = np.searchsorted(at, np.arange(len(fibers) + 1)).tolist()
        bounds = tuple(FiberBoundary(b - a, tuple(zip(u[a:b], v[a:b])), tuple(rep_u[a:b]),
                                     tuple(rep_w[a:b])) for a, b in zip(cuts, cuts[1:]))
    parts = []
    below = 0
    for lab, top in zip(u_lab, u_tops.tolist()):
        labels = np.zeros(f0.uncovered.shape, dtype=u_lab.dtype)
        np.subtract(lab, below, out=labels[box], where=lab > 0)
        parts.append(ComponentLabels(labels=labels, count=top - below))
        below = top
    return tuple(parts), sigs, bounds


def _between(ends: Tuple, mids: Optional[Tuple]) -> Optional[Tuple]:
    """mids between the first and the last of ends, which is empty or a pair;
    None when mids is (a 1-D bundle's signatures and pairs)."""
    return None if mids is None else (*ends[:1], *mids, *ends[1:])


def _labels_of(parts: Union[ComponentLabels, CobordismComponents]) -> Tuple[int, ...]:
    return tuple(range(1, parts.count + 1))


def _region_map(fparts: ComponentLabels, cparts: CobordismComponents,
                slice_index: int) -> Dict[int, int]:
    values = cparts.ends[slice_index].ravel()[first_cells(fparts.labels)]
    if not values.all():
        raise ResolutionError(
            "a fiber component is missing from the spanning cobordism",
            hint="raise --cells")
    return dict(enumerate(values.tolist(), 1))


def _is_bijection(mapping: Dict[int, int], target_count: int) -> bool:
    values = list(mapping.values())
    return len(set(values)) == len(values) == target_count


def _validate_tracking(bundle_events: Sequence[Event], left: Dict[int, int],
                       right: Dict[int, int], count: int,
                       interval: Tuple[float, float]) -> None:
    where = f"({interval[0]:.6f}, {interval[1]:.6f})"
    if not bundle_events:
        if not (_is_bijection(left, count) and _is_bijection(right, count)):
            raise ResolutionError(
                f"resolution too coarse: component maps across the event-free "
                f"span {where} are not bijections", hint="raise --scan-samples")
        return
    if len(bundle_events) > 1:
        raise SimultaneousEventsError(
            f"{len(bundle_events)} events share the span {where}", hint="lower --tol")
    side = left if bundle_events[0].type_x == "D" else right
    if not _is_bijection(side, count):
        raise ResolutionError(
            f"resolution too coarse: the incoming component map across {where} "
            "is not a bijection", hint="raise --fine-time-samples")


def build_zigzag(s: Scenario, grid: Optional[GridSpec] = None,
                 scan_samples: int = DEFAULT_SCAN_SAMPLES,
                 tol: float = DEFAULT_TOL) -> ZigzagBundle:
    """Assemble the zigzag of uncovered components over interleaved samples.

    Component tracking across each cobordism is validated: event-free spans
    must restrict bijectively from both ends, spans holding one event from
    the end the cobordism retracts onto. Boundary mode reads the fibers'
    pairs and the cobordisms' components (analysis.extract_boundary_data).

    The sample fibers are labeled once (_label_fibers), which gives their
    components, signatures and boundary pairs. On a 2-D interval base the end
    samples are the span's endpoints whatever the events are, and they are
    the scan's first and last slices (np.linspace returns both endpoints
    exactly), so those two fibers are rasterized and labeled first and their
    signatures passed to detect_events as ends. The other samples, every one
    on a circle base or in 1-D, follow in one more labeling.
    """
    if grid is None:
        grid = grid_for_scenario(s)
    view = _raster_tables(s, grid).view
    ends: Tuple[FiberComplex, ...] = ()
    labels: Tuple[Optional[Tuple], ...] = ((), (), ())
    if s.time_base == "interval" and s.dimension == 2:
        ends = tuple(rasterize_fibers(s, TIME_SPAN, grid))
        labels = _label_fibers(ends, view)
    events = detect_events(s, grid, scan_samples=scan_samples, tol=tol,
                           ends=labels[1] if ends else None)
    samples = tuple(float(t) for t in interleave(events, s.time_base))

    fibers = ends
    rest = samples[1:-1] if ends else samples
    if rest:
        mid = tuple(rasterize_fibers(s, rest, grid))
        fibers = _between(ends, mid)
        labels = tuple(_between(e, m) for e, m in zip(labels, _label_fibers(mid, view)))
    fiber_parts, signatures, boundaries = labels

    t0, t1 = TIME_SPAN
    span = t1 - t0
    spans = list(zip(samples, samples[1:]))
    if s.time_base == "circle":
        spans.append((samples[-1], samples[0] + span))
    cobordisms = tuple(rasterize_cobordism(s, sp, grid) for sp in spans)
    cobordism_parts = tuple(components(c) for c in cobordisms)

    # Events with one window share its span, as interleave gives them; a
    # span holding more than one fails its tracking check below.
    per_cob = [tuple(e for e in events if a < (e.time if e.time > a else e.time + span) < b)
               for a, b in spans]
    if sum(len(es) for es in per_cob) != len(events):
        raise ResolutionError("an event window straddles a sample time",
                              hint="lower --tol")

    left_maps = []
    right_maps = []
    for i, parts in enumerate(cobordism_parts):
        left = _region_map(fiber_parts[i], parts, 0)
        right = _region_map(fiber_parts[(i + 1) % len(fibers)], parts, -1)
        left_maps.append(left)
        right_maps.append(right)
        _validate_tracking(per_cob[i], left, right, parts.count, spans[i])

    fiber_sets = [_labels_of(p) for p in fiber_parts]
    if s.time_base == "circle":
        fiber_sets.append(fiber_sets[0])
    diagram = ZigzagSetDiagram(
        shape=s.time_base,
        fiber_sets=tuple(fiber_sets),
        cobordism_sets=tuple(_labels_of(p) for p in cobordism_parts),
        left_maps=tuple(left_maps),
        right_maps=tuple(right_maps),
    )
    return ZigzagBundle(
        scenario=s, grid=grid, time_base=s.time_base,
        samples=samples, events=events, fibers=fibers,
        fiber_parts=fiber_parts, signatures=signatures, boundaries=boundaries,
        cobordisms=cobordisms,
        cobordism_parts=cobordism_parts, diagram=diagram,
    )
