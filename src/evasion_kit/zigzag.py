"""Critical coverage events and interleaved diagrams of component sets.

A scenario's topology changes at finitely many times. Events are located by
scanning a coarse signature (uncovered components, uncovered holes, boundary
components) over the time span and bisecting every change down to a narrow
window; each window is classified by the direction of the single coverage
flip inside it. Samples interleaved between the windows then carry fibers,
and the spans between consecutive samples carry cobordisms, yielding a zigzag
of component sets with restriction maps induced by inclusion of slices.

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

The flips come from the moving sensors alone, and the scan builds no stack
of every slice. Coverage is the static union or'ed with every moving ball,
so a cell whose coverage changes in a step changes in some ball, inside the
windows that ball has at the step's two times. The cells of those windows
whose ball membership changes are the candidates; reading full coverage at
each candidate's two times keeps exactly the flips of the dense step diff,
and the ring cells are read the same way. Only the labeled slices are then
rasterized.

Type D events flip the locus cell from uncovered to covered (a pocket pinches
or vanishes; the cobordism retracts onto its earlier fiber). Type N events
flip it from covered to uncovered (pockets merge or appear; the cobordism
retracts onto its later fiber). Both letters refer to the uncovered region;
the covered region sees the opposite letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage

from .errors import KnobError, ResolutionError, SimultaneousEventsError
from .limit import ZigzagSetDiagram
from .rasterize import (BoundaryComponents, BoxCoverage, CobordismComplex,
                        CobordismComponents, ComponentLabels, FiberComplex,
                        GridSpec, bounding_box, components,
                        coverage_masks, domain_masks, face_contacts,
                        grid_for_scenario, label_slices, rasterize_cobordism,
                        rasterize_fibers)
from .scenario import TIME_SPAN, Scenario

__all__ = [
    "Event",
    "Signature",
    "fiber_signature",
    "fiber_signatures",
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


def _rim(disk: np.ndarray) -> np.ndarray:
    """Disk cells on the grid border or face-adjacent to a cell off the disk."""
    off = np.pad(~disk, 1, constant_values=True)
    return disk & (off[:-2, 1:-1] | off[2:, 1:-1] | off[1:-1, :-2] | off[1:-1, 2:])


def _pair_counts(uncovered: np.ndarray, u_lab: np.ndarray, u_tops: np.ndarray,
                 v_lab: np.ndarray, v_tops: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Per-slice count of distinct (uncovered, covered-with-collar) label pairs.

    The count-only form of rasterize's boundary pairs: a contact is a face
    neighbor pair of an uncovered cell and a covered cell off the collar.
    """
    src, dst = face_contacts(uncovered, covered, range(1, uncovered.ndim))
    stride = np.int64(v_tops[-1]) + 1
    keys = u_lab.ravel()[src].astype(np.int64) * stride + v_lab.ravel()[dst]
    return _per_slice(u_tops, np.unique(keys) // stride)


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

# (dy, dx, read from the later slice) per ring bit; see _simple_steps.
_RING = ((-1, -1, True), (-1, 0, True), (-1, 1, True), (0, 1, False),
         (1, 1, False), (1, 0, False), (1, -1, False), (0, -1, True))


def _simple_steps(flips: Tuple[np.ndarray, ...],
                  uncovered: Callable[[np.ndarray, Tuple[np.ndarray, ...]], np.ndarray],
                  disk: np.ndarray, inside: np.ndarray, steps: int) -> np.ndarray:
    """Per step k (slice k to k + 1), whether every flip in it is simple.

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
    A 1-D stack is read as rows of one cell, so its ring is W and E alone
    and (a) is dropped: its b1 is 0 whatever the rim does.
    """
    step, *cell = flips
    one_d = disk.ndim == 1
    if one_d:
        cell = [np.zeros_like(step)] + cell
        disk, inside = disk[None], inside[None]
        rim = np.zeros(disk.shape, dtype=bool)
    else:
        rim = _rim(disk)
    h, w = disk.shape
    y, x = cell
    u_bits = np.zeros(step.size, dtype=np.intp)
    v_bits = np.zeros(step.size, dtype=np.intp)
    contact = np.zeros(step.size, dtype=bool)
    for bit, (dy, dx, later) in enumerate(_RING):
        if dy and h == 1:
            continue
        yy, xx = y + dy, x + dx
        on_box = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        yy, xx = np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)
        u = uncovered(step + 1 if later else step, (xx,) if one_d else (yy, xx)) & on_box
        v = disk[yy, xx] & ~u & on_box
        u_bits |= u << bit
        v_bits |= v << bit
        if bit % 2:
            contact |= v & inside[yy, xx]
    simple = _ONE_ARC[u_bits] & _ONE_ARC[v_bits] & contact & ~rim[y, x]
    return np.bincount(step[~simple], minlength=steps) == 0


def _stack_signatures(uncovered: np.ndarray, disk: np.ndarray,
                      inside: np.ndarray) -> List[Signature]:
    """Signatures of every slice of an uncovered stack (T, *shape).

    Callers crop the stack and masks to the disk's bounding box: every
    uncovered cell lies in it, and a disk cell on its edge is a rim cell in
    both frames, so the signatures are those of the whole grid.
    """
    u_lab, u_tops = label_slices(uncovered)
    covered_with_collar = disk & ~uncovered
    v_lab, v_tops = label_slices(covered_with_collar)
    pi0 = np.diff(u_tops, prepend=0)
    if uncovered.ndim == 3:
        # The uncovered region lies inside the disk, so its complement is the
        # covered-with-collar region plus the cells off the disk, which are
        # connected to each other and to the grid border. The holes are the
        # covered-with-collar components that do not reach the rim.
        outer = np.unique(v_lab[:, _rim(disk)])
        b1 = np.diff(v_tops, prepend=0) - _per_slice(v_tops, outer[outer != 0])
    else:
        b1 = np.zeros_like(pi0)
    pb = _pair_counts(uncovered, u_lab, u_tops, v_lab, v_tops,
                      covered_with_collar & inside)
    return [(int(a), int(b), int(c)) for a, b, c in zip(pi0, b1, pb)]


def fiber_signatures(fibers: Sequence[FiberComplex]) -> List[Signature]:
    """fiber_signature of each fiber of one grid and domain, in one labeling."""
    box = bounding_box(fibers[0].disk)
    return _stack_signatures(np.stack([f.uncovered[box] for f in fibers]),
                             fibers[0].disk[box], fibers[0].inside[box])


def fiber_signature(f: FiberComplex) -> Signature:
    """(uncovered components, uncovered holes, boundary components)."""
    return fiber_signatures([f])[0]


def _signatures(s: Scenario, times: Sequence[float], grid: GridSpec) -> List[Signature]:
    """Signatures at the given times, computed on the disk's box only.

    Only slice 0 and the slices after a step that is not simple (see
    _simple_steps) are rasterized and labeled; every other slice repeats
    its predecessor's signature. The flips come from the moving sensors'
    windows (BoxCoverage.flips), and the ring cells are read one at a time,
    so no stack of every slice is built.

    The rule is exact. Under (b) and (c), one uncovered component and one
    covered-with-collar component each gain or lose the flipped cell and
    stay connected; no component merges, splits, appears or vanishes. By
    (a) the rim reach is unchanged, so b1 is too. The only contact pair
    touching the cell joins those two components, and by (b) and (d) it
    exists on both sides of the flip. A step without flips is simple. The
    flips and ring reads equal the step diff and the cells of the stack
    coverage_masks would build, as BoxCoverage argues, so the labeled
    slices and the signatures are those of labeling every slice.
    """
    disk, inside = domain_masks(s, grid)
    box = bounding_box(disk)
    disk, inside = disk[box], inside[box]
    times = np.asarray(times, dtype=float)
    labeled = np.ones(times.size, dtype=bool)
    if times.size > 1:
        coverage = BoxCoverage(s, times, grid, box)

        def uncovered(slices: np.ndarray, cells: Tuple[np.ndarray, ...]) -> np.ndarray:
            return inside[cells] & ~coverage.covered(slices, cells)

        labeled[1:] = ~_simple_steps(coverage.flips(inside), uncovered, disk, inside,
                                     times.size - 1)
    sigs = _stack_signatures(inside & ~coverage_masks(s, times[labeled], grid, box),
                             disk, inside)
    return [sigs[i] for i in np.cumsum(labeled) - 1]


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


def _flip_split(s: Scenario, grid: GridSpec, a: float, b: float
                ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Coverage flips across a window, split by direction, with cluster count."""
    fa, fb = rasterize_fibers(s, [a, b], grid)
    to_covered = fa.uncovered & ~fb.uncovered
    to_uncovered = fb.uncovered & ~fa.uncovered
    flips = to_covered | to_uncovered
    full = np.ones((3,) * flips.ndim, dtype=int)
    _, n_clusters = ndimage.label(flips, structure=full)
    return to_covered, to_uncovered, int(n_clusters)


def _try_classify(s: Scenario, grid: GridSpec, a: float, b: float,
                  sa: Signature, sb: Signature) -> Optional[Event]:
    """Classify the window if its coverage flips are unambiguous.

    A moving sensor covers cells at its leading edge and uncovers them at its
    trailing edge, so a window can hold flips unrelated to the signature
    change; those are excluded by narrowing the window further, which is
    signaled here by returning None. The same applies when the signature
    jump exceeds one unit: cells of a thin channel flip close together and
    may still separate at a finer width.
    """
    to_covered, to_uncovered, n_clusters = _flip_split(s, grid, a, b)
    flips = to_covered | to_uncovered
    if not flips.any():
        raise ResolutionError(
            f"signature changed across ({a:.6f}, {b:.6f}) without a coverage flip",
            hint="raise --cells")
    if (to_covered.any() and to_uncovered.any()) or n_clusters > 1:
        return None
    if not _jump_ok(sa, sb):
        return None
    locus_flat = int(np.flatnonzero(flips.ravel())[0])
    locus = tuple(int(v) for v in np.unravel_index(locus_flat, flips.shape))
    type_x = "D" if to_covered.any() else "N"
    return Event(window=(float(a), float(b)), locus=locus, type_x=type_x,
                 before=sa, after=sb)


def _raise_unresolvable(s: Scenario, grid: GridSpec, a: float, b: float,
                        sa: Signature, sb: Signature) -> None:
    """Pick the right error for a window that cannot be narrowed further."""
    to_covered, to_uncovered, n_clusters = _flip_split(s, grid, a, b)
    if (to_covered.any() and to_uncovered.any()) or n_clusters > 1:
        # No grid separates transitions that share an instant: the scenario
        # breaks the distinct-critical-values hypothesis.
        raise SimultaneousEventsError(
            f"coverage transitions inside ({a:.12f}, {b:.12f}) cannot "
            "be separated in time",
            hint="perturb the scenario: two transitions share one instant")
    raise ResolutionError(
        f"resolution too coarse: signature jumped {sa} -> {sb} "
        f"across ({a:.6f}, {b:.6f})", hint="raise --cells")


def _bisect(s: Scenario, grid: GridSpec, a: float, b: float,
            sa: Signature, sb: Signature, tol: float,
            out: List[Event]) -> None:
    while True:
        if b - a <= tol:
            event = _try_classify(s, grid, a, b, sa, sb)
            if event is not None:
                out.append(event)
                return
            if b - a <= _WINDOW_FLOOR:
                _raise_unresolvable(s, grid, a, b, sa, sb)
        m = 0.5 * (a + b)
        if not a < m < b:
            _raise_unresolvable(s, grid, a, b, sa, sb)
        sm = _signatures(s, [m], grid)[0]
        if sm == sa:
            a = m
        elif sm == sb:
            b = m
        else:
            _bisect(s, grid, a, m, sa, sm, tol, out)
            _bisect(s, grid, m, b, sm, sb, tol, out)
            return


def detect_events(s: Scenario, grid: Optional[GridSpec] = None,
                  scan_samples: int = DEFAULT_SCAN_SAMPLES,
                  tol: float = DEFAULT_TOL) -> Tuple[Event, ...]:
    """Locate all signature changes over the time span.

    Changes that cancel exactly between two adjacent scan samples are
    invisible at this granularity; raise scan_samples for fast scenarios.
    On a circle time base the closed tracks make the signature at both span
    endpoints agree, so scanning the span once covers the whole loop.
    Raises KnobError when scan_samples is below 2 or tol is not a finite
    positive number.
    """
    if scan_samples < 2:
        raise KnobError(f"scan_samples must be at least 2, got {scan_samples}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise KnobError(f"tol must be a finite positive number, got {tol}")
    if grid is None:
        grid = grid_for_scenario(s)
    t0, t1 = TIME_SPAN
    times = np.linspace(t0, t1, scan_samples + 1)
    sigs = _signatures(s, times, grid)
    events: List[Event] = []
    for i in range(scan_samples):
        if sigs[i] != sigs[i + 1]:
            _bisect(s, grid, float(times[i]), float(times[i + 1]),
                    sigs[i], sigs[i + 1], tol, events)
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
    """
    t0, t1 = TIME_SPAN
    windows = sorted(e.window for e in events)
    for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
        if not b1 < a2:
            raise SimultaneousEventsError(
                f"event windows ({a1:.6f}, {b1:.6f}) and ({a2:.6f}, {b2:.6f}) "
                "leave no room for a sample between them", hint="lower --tol")
    if time_base == "interval":
        if not windows:
            return (t0, t1)
        if windows[0][0] <= t0 or windows[-1][1] >= t1:
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

FiberParts = Union[ComponentLabels, BoundaryComponents]
CobordismParts = Union[CobordismComponents, BoundaryComponents]


@dataclass(frozen=True)
class ZigzagBundle:
    """A zigzag diagram together with the geometry it was read off from.

    Fibers sit at the sample times and cobordisms span consecutive samples
    (plus the wrap-around span on a circle base). The diagram's maps send
    each fiber component to the spacetime component containing it.
    """

    scenario: Scenario
    grid: GridSpec
    region: str
    time_base: str
    samples: Tuple[float, ...]
    events: Tuple[Event, ...]
    fibers: Tuple[FiberComplex, ...]
    fiber_parts: Tuple[FiberParts, ...]
    cobordisms: Tuple[CobordismComplex, ...]
    cobordism_parts: Tuple[CobordismParts, ...]
    cobordism_events: Tuple[Tuple[Event, ...], ...]
    diagram: ZigzagSetDiagram


def _labels_of(parts: Union[FiberParts, CobordismParts]) -> Tuple[int, ...]:
    return tuple(range(1, parts.count + 1))


def _region_map(fparts: ComponentLabels, cparts: CobordismComponents,
                slice_index: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    flat = fparts.labels.ravel()
    end = cparts.ends[slice_index].ravel()
    for label in range(1, fparts.count + 1):
        value = int(end[int(np.flatnonzero(flat == label)[0])])
        if value == 0:
            raise ResolutionError(
                "a fiber component is missing from the spanning cobordism",
                hint="raise --cells")
        out[label] = value
    return out


def _pair_map(fparts: BoundaryComponents, cparts: BoundaryComponents,
              slice_index: int) -> Dict[int, int]:
    index = {pair: i + 1 for i, pair in enumerate(cparts.pairs)}
    shape = fparts.labels.shape
    out: Dict[int, int] = {}
    for i in range(fparts.count):
        u_cell = np.unravel_index(int(fparts.rep_uncovered[i]), shape)
        w_cell = np.unravel_index(int(fparts.rep_covered[i]), shape)
        u_lab = int(cparts.uncovered_labels[(slice_index,) + tuple(u_cell)])
        w_lab = int(cparts.covered_labels[(slice_index,) + tuple(w_cell)])
        value = index.get((u_lab, w_lab))
        if value is None:
            raise ResolutionError(
                "a boundary component is missing from the spanning cobordism",
                hint="raise --cells")
        out[i + 1] = value
    return out


def _fiber_to_cob(fparts: FiberParts, cparts: CobordismParts,
                  slice_index: int) -> Dict[int, int]:
    if isinstance(fparts, BoundaryComponents):
        return _pair_map(fparts, cparts, slice_index)
    return _region_map(fparts, cparts, slice_index)


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
                 region: str = "uncovered",
                 events: Optional[Sequence[Event]] = None,
                 samples: Optional[Sequence[float]] = None,
                 scan_samples: int = DEFAULT_SCAN_SAMPLES,
                 tol: float = DEFAULT_TOL) -> ZigzagBundle:
    """Assemble the zigzag of `region` components over interleaved samples.

    Component tracking across each cobordism is validated for the uncovered
    region: event-free spans must restrict bijectively from both ends, spans
    holding one event from the end the cobordism retracts onto.
    """
    if grid is None:
        grid = grid_for_scenario(s)
    if region not in ("uncovered", "covered", "covered_boundary"):
        raise ValueError(f"unknown region {region!r}")
    if events is None:
        events = detect_events(s, grid, scan_samples=scan_samples, tol=tol)
    events = tuple(sorted(events, key=lambda e: e.window[0]))
    if samples is None:
        samples = interleave(events, s.time_base)
    samples = tuple(float(t) for t in samples)

    t0, t1 = TIME_SPAN
    span = t1 - t0
    if s.time_base == "interval":
        if len(samples) != max(len(events), 1) + 1:
            raise ValueError("need exactly one sample between consecutive events")
        spans = [(samples[i], samples[i + 1]) for i in range(len(samples) - 1)]
        if not spans:
            raise ValueError("an interval base needs at least two samples")
    else:
        spans = [(samples[i], samples[i + 1]) for i in range(len(samples) - 1)]
        spans.append((samples[-1], samples[0] + span))
        if len(spans) != max(len(events), 1) or len(samples) != max(len(events), 1):
            raise ValueError("need exactly one sample per gap between events")

    fibers = tuple(rasterize_fibers(s, samples, grid))
    fiber_parts = tuple(components(f, region) for f in fibers)
    cobordisms = tuple(rasterize_cobordism(s, sp, grid) for sp in spans)
    cobordism_parts = tuple(components(c, region) for c in cobordisms)

    per_cob: List[Tuple[Event, ...]] = []
    for a, b in spans:
        inside = tuple(e for e in events
                       if a < (e.time if e.time > a else e.time + span) < b)
        per_cob.append(inside)
    if sum(len(es) for es in per_cob) != len(events):
        raise ResolutionError("an event window straddles a sample time",
                              hint="lower --tol")

    n = len(cobordisms)
    left_maps = []
    right_maps = []
    for i in range(n):
        fp_left = fiber_parts[i]
        fp_right = fiber_parts[(i + 1) % len(fibers)]
        left = _fiber_to_cob(fp_left, cobordism_parts[i], 0)
        right = _fiber_to_cob(fp_right, cobordism_parts[i], -1)
        left_maps.append(left)
        right_maps.append(right)
        if region == "uncovered":
            _validate_tracking(per_cob[i], left, right,
                               cobordism_parts[i].count, spans[i])

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
        scenario=s, grid=grid, region=region, time_base=s.time_base,
        samples=samples, events=events, fibers=fibers,
        fiber_parts=fiber_parts, cobordisms=cobordisms,
        cobordism_parts=cobordism_parts, cobordism_events=tuple(per_cob),
        diagram=diagram,
    )
