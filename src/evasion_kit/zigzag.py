"""Critical coverage events and interleaved diagrams of component sets.

A scenario's topology changes at finitely many times. Events are located by
scanning a coarse signature (uncovered components, uncovered holes, boundary
components) over the time span and bisecting every change down to a narrow
window; each window is classified by the direction of the single coverage
flip inside it. Samples interleaved between the windows then carry fibers,
and the spans between consecutive samples carry cobordisms, yielding a zigzag
of component sets with restriction maps induced by inclusion of slices.

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
from .rasterize import (BoundaryComponents, CobordismComplex,
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


def _stack_signatures(uncovered: np.ndarray, disk: np.ndarray,
                      inside: np.ndarray) -> List[Signature]:
    """Signatures of every slice of an uncovered stack (T, *shape).

    The stack and masks are cropped to the disk's bounding box: every
    uncovered cell lies in it, and a disk cell on its edge is a rim cell in
    both frames, so the signatures are those of the whole grid.

    A signature depends on the uncovered mask alone, so a slice equal to its
    predecessor repeats its signature; only the changed slices are labeled.
    """
    n = uncovered.shape[0]
    changed = np.ones(n, dtype=bool)
    if n > 1:
        flat = uncovered.reshape(n, -1)
        changed[1:] = np.any(flat[1:] != flat[:-1], axis=1)
    distinct = uncovered[changed]
    u_lab, u_tops = label_slices(distinct)
    covered_with_collar = disk & ~distinct
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
    pb = _pair_counts(distinct, u_lab, u_tops, v_lab, v_tops,
                      covered_with_collar & inside)
    sigs = [(int(a), int(b), int(c)) for a, b, c in zip(pi0, b1, pb)]
    return [sigs[i] for i in np.cumsum(changed) - 1]


def fiber_signature(f: FiberComplex) -> Signature:
    """(uncovered components, uncovered holes, boundary components)."""
    box = bounding_box(f.disk)
    return _stack_signatures(f.uncovered[box][None], f.disk[box], f.inside[box])[0]


def _signatures(s: Scenario, times: Sequence[float], grid: GridSpec) -> List[Signature]:
    """Signatures at the given times; coverage is computed on the disk's box only."""
    disk, inside = domain_masks(s, grid)
    box = bounding_box(disk)
    return _stack_signatures(inside[box] & ~coverage_masks(s, times, grid, box),
                             disk[box], inside[box])


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
            f"signature changed across ({a:.6f}, {b:.6f}) without a coverage flip")
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
        raise SimultaneousEventsError(
            f"coverage transitions inside ({a:.12f}, {b:.12f}) cannot "
            "be separated in time")
    raise ResolutionError(
        f"resolution too coarse: signature jumped {sa} -> {sb} "
        f"across ({a:.6f}, {b:.6f})")


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
                f"({cur.window[0]:.6f}, {cur.window[1]:.6f}) overlap")
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
                "leave no room for a sample between them")
    if time_base == "interval":
        if not windows:
            return (t0, t1)
        if windows[0][0] <= t0 or windows[-1][1] >= t1:
            raise ResolutionError("an event window touches the time span endpoint")
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
                "the first and last event windows overlap around the span wrap")
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
                "a fiber component is missing from the spanning cobordism")
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
                "a boundary component is missing from the spanning cobordism")
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
                f"span {where} are not bijections")
        return
    if len(bundle_events) > 1:
        raise SimultaneousEventsError(
            f"{len(bundle_events)} events share the span {where}")
    side = left if bundle_events[0].type_x == "D" else right
    if not _is_bijection(side, count):
        raise ResolutionError(
            f"resolution too coarse: the incoming component map across {where} "
            "is not a bijection")


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
        raise ResolutionError("an event window straddles a sample time")

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
