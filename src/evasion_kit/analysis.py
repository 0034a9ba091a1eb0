"""End-to-end analyses: direct, boundary-only, and brute-force oracle.

Direct mode tracks uncovered components through the interleaved zigzag and
takes the exact inverse limit; its cardinality is a lower bound for the
number of evasion path classes, and a nonempty limit is necessary but not
sufficient evidence that a path exists. Witness extraction upgrades that
evidence: a witness is a time-monotone cell path staying uncovered, found by
directed reachability through the fine sub-samples of each cobordism. In
dimension 1 direct mode reads its zigzag, diagnostics and witnesses off the
exact gap sweep (gapsweep) instead, and rasterizes nothing.

Boundary mode reads the boundary components at each sample, the pairs of an
uncovered and a covered component that touch; they are read off the uncovered
zigzag's own components, so `compare` labels the uncovered region once for
both modes. It groups them by the complement components of the covered
region, and rebuilds the uncovered zigzag as the dual of the resulting
partition diagram; the reconstruction sees only the boundary components'
counts, partitions and maps (BoundaryData).

Oracle mode ignores the event structure and answers reachability, and
counts the classes, on one uniformly fine time grid; it is the cross-check
for both. It shares with the event scan only how coverage flips are found
(the crossing bands) and the local ring certificate that vouches for a
step; no event, window or bisection enters it. Where the certificate
vouches for a step, the components of its two slices match one to one and
are carried by representative cells, unlabeled. The tests' per-slice
reference oracle labels every slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import KnobError, ResolutionError, WitnessError
from .gapsweep import GapSweep, sweep_gaps
from .limit import (AlgebraLimit, PartitionAlgebra, ZigzagAlgebraDiagram,
                    inverse_limit, join_partitions, limit_of_algebras,
                    partition_algebra, pullback_partition)
from .planar_homology import alexander_image
from .rasterize import (BoundaryComponents, CobordismComplex, CobordismComponents,
                        FiberBoundary, GridSpec, StackGraph, boundary_pairs, bounding_box,
                        cell_center, domain_masks, grid_for_scenario,
                        label_components, rasterize_cobordism, rasterize_fiber,
                        stack_graph, sweep, _Transitions, _union_roots)
from .scenario import TIME_SPAN, Scenario, positions_at
from .zigzag import (DEFAULT_SCAN_SAMPLES, DEFAULT_TOL, Event, Signature,
                     ZigzagBundle, build_zigzag, check_scan_knobs, detect_events)

__all__ = [
    "Witness",
    "point_uncovered",
    "verify_witness",
    "extract_witness",
    "analyze_direct",
    "BoundaryData",
    "boundary_data_from_document",
    "extract_boundary_data",
    "boundary_limit",
    "analyze_boundary",
    "OracleResult",
    "oracle_reachability",
    "analyze_oracle",
    "d1_count",
    "AnalysisReport",
    "analyze",
]

DEFAULT_MAX_ELEMENTS = 10000
DEFAULT_MAX_WITNESSES = 64
DEFAULT_ORACLE_SAMPLES = 512


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A time-monotone evasion path through cell centers.

    Samples may repeat a time: the model puts no bound on evader speed, so
    repositioning within one uncovered component is recorded as consecutive
    samples at the same instant.
    """

    element: Tuple[int, ...]
    samples: Tuple[Tuple[float, Tuple[float, ...]], ...]


def _points_uncovered(s: Scenario, times: Sequence[float],
                      points: Sequence[Sequence[float]], eta: float) -> np.ndarray:
    """point_uncovered for each (time, point) pair, with one track evaluation."""
    p = np.asarray(points, dtype=float).reshape(len(times), s.dimension)
    center = np.asarray(s.center, dtype=float)
    dist_center = np.sqrt(np.sum((p - center) ** 2, axis=1))
    ok = dist_center < s.radius - s.fence_width
    if not s.tracks:
        return ok
    pos = positions_at(s, times)
    d2 = np.sum((pos - p[None]) ** 2, axis=2)
    r = max(s.sensing_radius - eta, 0.0)
    return ok & np.all(d2 > r * r, axis=0)


def point_uncovered(s: Scenario, t: float, point: Sequence[float], eta: float = 0.0) -> bool:
    """Exact continuous-time check that a point is strictly uncovered.

    eta shrinks the sensing radius, giving marginal samples the benefit of
    the doubt; zero keeps the check strict.
    """
    return bool(_points_uncovered(s, [t], [point], eta)[0])


def verify_witness(s: Scenario, w: Witness, eta: float = 0.0) -> bool:
    """Check every sample, and the midpoint of every standing span.

    Times must not decrease. All checked points go through one
    point_uncovered evaluation.
    """
    times: List[float] = []
    points: List[Tuple[float, ...]] = []
    prev = None
    for t, p in w.samples:
        if prev is not None:
            pt, pp = prev
            if t < pt:
                return False
            if pp == p and t > pt:
                times.append(0.5 * (pt + t))
                points.append(p)
        times.append(t)
        points.append(p)
        prev = (t, p)
    return bool(np.all(_points_uncovered(s, times, points, eta)))


def _slice_path(labels: np.ndarray, comp: int, start: Tuple[int, ...],
                goal: Union[Tuple[int, ...], np.ndarray]) -> List[Tuple[int, ...]]:
    """Cells of a shortest face-adjacent path inside one component, start excluded.

    goal is one cell, or a boolean mask of goal cells, of which the path
    reaches the nearest, the first in raster order among those as near.
    Breadth-first search over flat indices of the component's mask, padded
    by one cell outside it on every side so that no step needs a bounds
    check, one distance at a time. Neighbors are tried axis by axis, the
    lower one first, and a cell's parent is the cell that discovered it, so
    the search may stop at the first distance that holds a goal.
    """
    free = np.pad(labels == comp, 1)
    shape = free.shape
    origin = int(np.ravel_multi_index(tuple(v + 1 for v in start), shape))
    if isinstance(goal, tuple):
        goals = np.zeros(shape, dtype=bool)
        goals[tuple(v + 1 for v in goal)] = True
    else:
        # Padding keeps the raster order of the cells.
        goals = np.pad(goal, 1)
    goals = goals.ravel()
    if goals[origin]:
        return []
    steps = []
    for axis in range(len(shape)):
        stride = int(np.prod(shape[axis + 1:], dtype=np.int64))
        steps += [-stride, stride]
    open_cells = free.ravel().tolist()
    open_cells[origin] = False
    parents = {origin: origin}
    level = [origin]
    hits: List[int] = []
    while level and not hits:
        found = []
        for cur in level:
            for step in steps:
                nxt = cur + step
                if open_cells[nxt]:
                    open_cells[nxt] = False
                    parents[nxt] = cur
                    found.append(nxt)
        hits = [cell for cell in found if goals.item(cell)]
        level = found
    if not hits:
        raise WitnessError("cells reported in one component are not connected")
    target = min(hits)
    path = [target]
    while path[-1] != origin:
        path.append(parents[path[-1]])
    cells = np.unravel_index(np.asarray(path[-2::-1], dtype=np.int64), shape)
    return [tuple(int(v) - 1 for v in cell) for cell in zip(*cells)]


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


@dataclass
class _CobData:
    """A cobordism and the slice graph of its uncovered region on box, the
    one its components were read from or one built alike."""

    cob: CobordismComplex
    graph: StackGraph
    box: Tuple[slice, ...]


def _segment(data: _CobData, start: Tuple[int, ...], target_label: int,
             target_cell: Optional[Tuple[int, ...]]
             ) -> Optional[List[Tuple[float, Tuple[int, ...]]]]:
    """Monotone cell path from `start` to the target component, or None.

    target_label is numbered within the last slice. The components some
    path can use are those reached forward from the start's component and
    backward from the target. The path stands still across a slice step
    where it can; otherwise it walks inside its component to the nearest
    cell that stands on a usable component of the next slice, the first in
    raster order among those as near (_slice_path).

    The graph holds the labeled slices only, graph slice j at
    times[labeled[j]], yet the samples are those of the same search over
    every sample. A usable component's only edge into a slice that repeats
    it is to its copy, so the copy is usable too: the path stands still
    through a run of repeats, emitting one sample at each repeated time,
    and moves at most at the run's last time, the one before the next
    distinct slice. Across a gap (transitions.gaps) every transition is
    certified, and a usable component's match is usable; so the path
    stands still unless a step covers its cell, and then the nearest cell
    is its first standing face neighbor in raster order: the flip's
    anchor, where transitions.trail moves it. The walk to target_cell is
    stamped with the last time.
    """
    g = data.graph
    tr = data.cob.transitions
    times, kept, labeled = tr.times, tr.kept, tr.labeled
    m = len(g.table)

    # The path's label is read at its cell alone; only a slice the path
    # walks in is read whole.
    first = int(g.labels(0)[start])
    if first == 0 or not 0 < target_label <= g.offsets[m] - g.offsets[m - 1]:
        return None
    target = int(g.offsets[m - 1]) + target_label
    usable = sweep(g, [first])[:, 0] & sweep(g, [target], backward=True)[:, 0]
    if not usable[first]:
        return None

    path: List[Tuple[float, Tuple[int, ...]]] = [(float(times[0]), start)]
    cur = start
    for j in range(m - 1):
        a, b = int(labeled[j]), int(labeled[j + 1])
        if tr.gaps[j]:
            moves = dict(tr.trail(cur, a, b, data.box))
            run = kept[np.searchsorted(kept, a):np.searchsorted(kept, b) + 1].tolist()
            for p, q in zip(run, run[1:]):
                path.extend((float(times[r]), cur) for r in range(p + 1, q))
                if q - 1 in moves:
                    cur = moves[q - 1]
                    path.append((float(times[q - 1]), cur))
                path.append((float(times[q]), cur))
            continue
        path.extend((float(times[r]), cur) for r in range(a + 1, b))
        if usable[g.labels(j + 1)[cur]]:
            nxt = cur
        else:
            here = g.labels(j)
            comp = int(here[cur])
            cand = (here == comp) & usable[g.labels(j + 1)]
            if not cand.any():
                return None
            walk = _slice_path(here, comp, cur, cand)
            nxt = walk[-1]
            for cell in walk:
                path.append((float(times[b - 1]), cell))
        path.append((float(times[b]), nxt))
        cur = nxt
    if target_cell is not None and cur != target_cell:
        here = g.labels(m - 1)
        for cell in _slice_path(here, int(here[cur]), cur, target_cell):
            path.append((float(times[-1]), cell))
        cur = target_cell
    return path


class _WitnessBuilder:
    """Shared per-cobordism slice graphs across witness extractions.

    At refine level 0 a cobordism's graph is the one its space-time
    components were read from in build_zigzag, so the stack is labeled once
    for both; finer levels rasterize and label the span again. Every graph
    is cropped to the fenced region's bounding box, the same for each
    cobordism of a bundle, so paths are searched in cropped coordinates and
    shifted back to whole-grid cells at the end.
    """

    def __init__(self, bundle: ZigzagBundle, max_refine: int = 2) -> None:
        self.bundle = bundle
        self.max_refine = max_refine
        self.box = bundle.cobordism_parts[0].box
        self._cache: Dict[Tuple[int, int], _CobData] = {}

    def _data(self, i: int, level: int) -> _CobData:
        key = (i, level)
        if key not in self._cache:
            if level == 0:
                data = _CobData(self.bundle.cobordisms[i],
                                self.bundle.cobordism_parts[i].graph, self.box)
            else:
                base = self.bundle.grid.fine_time_samples
                cob = rasterize_cobordism(
                    self.bundle.scenario, self.bundle.cobordisms[i].interval,
                    self.bundle.grid, fine_time_samples=base * (2 ** level))
                graph = stack_graph(cob.uncovered[(slice(None),) + self.box])
                data = _CobData(cob, cob.transitions.join(graph, self.box), self.box)
            self._cache[key] = data
        return self._cache[key]

    def extract(self, element: Sequence[int]) -> Witness:
        bundle = self.bundle
        if len(element) != len(bundle.diagram.fiber_sets):
            raise WitnessError("element length does not match the diagram")
        first = bundle.fiber_parts[0]
        cells = np.flatnonzero(first.labels.ravel() == element[0])
        if cells.size == 0:
            raise WitnessError("element names a missing component")
        corner = tuple(b.start or 0 for b in self.box)
        start = tuple(int(v) - c for v, c in
                      zip(np.unravel_index(int(cells[0]), first.labels.shape), corner))

        closed = bundle.time_base == "circle"
        n = len(bundle.cobordisms)
        samples: List[Tuple[float, Tuple[int, ...]]] = []
        cur = start
        for i in range(n):
            target_label = int(element[i + 1])
            target_cell = start if (closed and i == n - 1) else None
            seg = None
            for level in range(self.max_refine + 1):
                seg = _segment(self._data(i, level), cur, target_label, target_cell)
                if seg is not None:
                    break
            if seg is None:
                a, b = bundle.cobordisms[i].interval
                raise WitnessError(
                    f"no monotone lift across ({a:.6f}, {b:.6f}) at this resolution")
            if samples:
                seg = seg[1:]
            samples.extend(seg)
            cur = seg[-1][1] if seg else cur

        grid = bundle.grid
        world = tuple((t, cell_center(grid, tuple(v + c for v, c in zip(cell, corner))))
                      for t, cell in samples)
        return Witness(element=tuple(int(v) for v in element), samples=world)


def extract_witness(bundle: ZigzagBundle, element: Sequence[int],
                    max_refine: int = 2) -> Witness:
    """Monotone uncovered path through the named component at every sample."""
    return _WitnessBuilder(bundle, max_refine=max_refine).extract(element)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

LOWER_BOUND_NOTE = (
    "lower bound only: the limit cardinality bounds the number of evasion "
    "path classes from below, and a nonempty limit does not by itself "
    "certify an evasion path; verified witnesses do")


@dataclass(frozen=True)
class AnalysisReport:
    mode: str
    exists: bool
    limit_cardinality: int
    limit_elements: Tuple[Tuple[object, ...], ...]
    witnesses: Tuple[Witness, ...]
    diagnostics: Dict[str, object]
    truncated: Dict[str, bool]

    def to_document(self) -> dict:
        elements = [[_label_doc(x) for x in el] for el in self.limit_elements]
        witnesses = [
            {"element": [_label_doc(x) for x in w.element],
             "samples": [[float(t), [float(c) for c in p]] for t, p in w.samples]}
            for w in self.witnesses
        ]
        return {
            "mode": self.mode,
            "exists": bool(self.exists),
            "limit_cardinality": self.limit_cardinality,
            "limit_elements": elements,
            "witnesses": witnesses,
            "diagnostics": self.diagnostics,
            "truncated": {k: bool(v) for k, v in self.truncated.items()},
        }


def _label_doc(x: object) -> object:
    if isinstance(x, tuple):
        return [_label_doc(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def _event_doc(e: Event) -> dict:
    return {
        "window": [float(e.window[0]), float(e.window[1])],
        "time": float(e.time),
        "locus": [int(v) for v in reversed(e.locus)],
        "type_uncovered": e.type_x,
        "type_covered": e.type_c,
    }


def _diagnostics(time_base: str, grid: GridSpec, samples: Sequence[float],
                 signatures: Sequence[Signature],
                 events: Sequence[Event]) -> Dict[str, object]:
    return {
        "time_base": time_base,
        "grid": {
            "shape": [int(v) for v in grid.shape],
            "cell_size": float(grid.cell_size),
            "origin": [float(v) for v in grid.origin],
            "fine_time_samples": int(grid.fine_time_samples),
        },
        "sample_times": [float(t) for t in samples],
        "fibers": [{"t": float(t), "pi0": pi0, "b1": b1, "boundary_pairs": pb}
                   for t, (pi0, b1, pb) in zip(samples, signatures)],
        "events": [_event_doc(e) for e in events],
        "note": LOWER_BOUND_NOTE,
    }


class _Direct:
    """Direct mode's zigzag, diagnostics, witnesses and report: the gap
    sweep's in dimension 1, build_zigzag's bundle otherwise."""

    def __init__(self, s: Scenario, grid: GridSpec, *, scan_samples: int, tol: float) -> None:
        self.scenario = s
        self.source: Union[GapSweep, ZigzagBundle]
        if s.dimension == 1:
            check_scan_knobs(scan_samples, tol)
            self.source = sweep_gaps(s, grid)
        else:
            self.source = build_zigzag(s, grid, scan_samples=scan_samples, tol=tol)
        self.diagram = self.source.diagram
        self._builder: Optional[_WitnessBuilder] = None

    def diagnostics(self) -> Dict[str, object]:
        src = self.source
        return _diagnostics(src.scenario.time_base, src.grid, src.samples,
                            src.signatures, src.events)

    def witness(self, element: Sequence[int]) -> Witness:
        if isinstance(self.source, GapSweep):
            return Witness(element=tuple(int(v) for v in element),
                           samples=self.source.path(element))
        if self._builder is None:
            self._builder = _WitnessBuilder(self.source)
        return self._builder.extract(element)

    def report(self, *, max_elements: int = DEFAULT_MAX_ELEMENTS,
               max_witnesses: int = DEFAULT_MAX_WITNESSES,
               witnesses: bool = True) -> AnalysisReport:
        """The inverse limit, and a verified witness per element up to max_witnesses."""
        limres = inverse_limit(self.diagram, max_elements=max_elements)
        diagnostics = self.diagnostics()

        found: List[Witness] = []
        failures: List[dict] = []
        attempted = 0
        if witnesses and limres.elements:
            for element in limres.elements[:max_witnesses]:
                attempted += 1
                try:
                    w = self.witness(element)
                except WitnessError as exc:
                    failures.append({"element": [int(v) for v in element],
                                     "detail": str(exc)})
                    continue
                if not verify_witness(self.scenario, w):
                    failures.append({"element": [int(v) for v in element],
                                     "detail": "witness failed exact re-verification"})
                    continue
                found.append(w)
        if failures:
            diagnostics["witness_failures"] = failures

        return AnalysisReport(
            mode="direct",
            exists=limres.cardinality > 0,
            limit_cardinality=int(limres.cardinality),
            limit_elements=limres.elements,
            witnesses=tuple(found),
            diagnostics=diagnostics,
            truncated={
                "elements": limres.truncated,
                "witnesses": bool(witnesses) and limres.cardinality > attempted,
            },
        )


def analyze_direct(s: Scenario, grid: Optional[GridSpec] = None, *,
                   scan_samples: int = DEFAULT_SCAN_SAMPLES,
                   tol: float = DEFAULT_TOL,
                   max_elements: int = DEFAULT_MAX_ELEMENTS,
                   max_witnesses: int = DEFAULT_MAX_WITNESSES,
                   witnesses: bool = True) -> AnalysisReport:
    """Track uncovered components and take the exact inverse limit."""
    if grid is None:
        grid = grid_for_scenario(s)
    return _Direct(s, grid, scan_samples=scan_samples, tol=tol).report(
        max_elements=max_elements, max_witnesses=max_witnesses, witnesses=witnesses)


# ---------------------------------------------------------------------------
# boundary-only analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryData:
    """Everything the boundary measurements provide, and nothing else.

    Fiber partitions group each sample's boundary components by the
    complement components of the covered region; the maps track boundary
    components into the spacetime boundary components of each span.
    """

    time_base: str
    sample_times: Tuple[float, ...]
    fiber_partitions: Tuple[PartitionAlgebra, ...]
    cobordism_counts: Tuple[int, ...]
    left_maps: Tuple[Dict[int, int], ...]
    right_maps: Tuple[Dict[int, int], ...]
    events: Tuple[dict, ...]

    def to_document(self) -> dict:
        return {
            "time_base": self.time_base,
            "sample_times": [float(t) for t in self.sample_times],
            "fibers": [
                {"labels": len(p.ground),
                 "blocks": [[int(x) for x in b] for b in p.blocks]}
                for p in self.fiber_partitions
            ],
            "cobordisms": [
                {"labels": int(c),
                 "left": [[int(k), int(v)] for k, v in sorted(l.items())],
                 "right": [[int(k), int(v)] for k, v in sorted(r.items())]}
                for c, l, r in zip(self.cobordism_counts, self.left_maps,
                                   self.right_maps)
            ],
            "events": list(self.events),
        }


def boundary_data_from_document(doc: dict) -> BoundaryData:
    fibers = []
    for f in doc["fibers"]:
        ground = range(1, int(f["labels"]) + 1)
        fibers.append(partition_algebra(ground, [tuple(b) for b in f["blocks"]]))
    counts = []
    lefts = []
    rights = []
    for c in doc["cobordisms"]:
        counts.append(int(c["labels"]))
        lefts.append({int(k): int(v) for k, v in c["left"]})
        rights.append({int(k): int(v) for k, v in c["right"]})
    return BoundaryData(
        time_base=str(doc["time_base"]),
        sample_times=tuple(float(t) for t in doc["sample_times"]),
        fiber_partitions=tuple(fibers),
        cobordism_counts=tuple(counts),
        left_maps=tuple(lefts),
        right_maps=tuple(rights),
        events=tuple(doc.get("events", ())),
    )


def _pair_map(fiber: FiberBoundary, cob: BoundaryComponents,
              uncovered: CobordismComponents, end: int) -> Dict[int, int]:
    """Each boundary component of a fiber, sent to the cobordism's pair that
    holds its two representative cells in the end slice (0 or -1) where the
    fiber maps in."""
    index = {pair: i + 1 for i, pair in enumerate(cob.pairs)}
    u_lab = uncovered.ends[end].ravel()
    w_lab = cob.covered_labels[end].ravel()
    out: Dict[int, int] = {}
    for i, (u, w) in enumerate(zip(fiber.rep_uncovered, fiber.rep_covered)):
        value = index.get((int(u_lab[u]), int(w_lab[w])))
        if value is None:
            raise ResolutionError(
                "a boundary component is missing from the spanning cobordism",
                hint="raise --cells")
        out[i + 1] = value
    return out


def extract_boundary_data(source: Union[Scenario, ZigzagBundle],
                          grid: Optional[GridSpec] = None, *,
                          scan_samples: int = DEFAULT_SCAN_SAMPLES,
                          tol: float = DEFAULT_TOL) -> BoundaryData:
    """Measure boundary components and their partitions by the complement
    components of the covered region, per sample.

    source is a scenario, whose zigzag is built here, or a built zigzag
    bundle, whose fibers, cobordisms and uncovered components are reused;
    grid and the scan knobs apply to a scenario only. Raises KnobError on a
    scenario that is not two-dimensional.
    """
    s = source.scenario if isinstance(source, ZigzagBundle) else source
    if s.dimension != 2:
        raise KnobError("boundary analysis is defined for dimension 2 only")
    if isinstance(source, ZigzagBundle):
        bundle = source
    else:
        bundle = build_zigzag(s, grid, scan_samples=scan_samples, tol=tol)
    fiber_pairs = [boundary_pairs(f, p) for f, p in zip(bundle.fibers, bundle.fiber_parts)]
    cob_pairs = [boundary_pairs(c, p)
                 for c, p in zip(bundle.cobordisms, bundle.cobordism_parts)]
    lefts, rights = [], []
    for i, (pairs, unc) in enumerate(zip(cob_pairs, bundle.cobordism_parts)):
        lefts.append(_pair_map(fiber_pairs[i], pairs, unc, 0))
        rights.append(_pair_map(fiber_pairs[(i + 1) % len(fiber_pairs)], pairs, unc, -1))
    return BoundaryData(
        time_base=bundle.time_base,
        sample_times=bundle.samples,
        fiber_partitions=tuple(alexander_image(f.covered_with_collar, f.covered_boundary, p)
                               for f, p in zip(bundle.fibers, fiber_pairs)),
        cobordism_counts=tuple(p.count for p in cob_pairs),
        left_maps=tuple(lefts),
        right_maps=tuple(rights),
        events=tuple(_event_doc(e) for e in bundle.events),
    )


def boundary_limit(data: BoundaryData, max_elements: int = DEFAULT_MAX_ELEMENTS) -> AlgebraLimit:
    """Dual reconstruction of the uncovered zigzag from boundary data alone.

    Each span's algebra is the intersection of the two sample algebras pushed
    into it, so its dual is the span's set of uncovered spacetime components
    whenever the sampling separated all events.
    """
    algebras = list(data.fiber_partitions)
    if data.time_base == "circle":
        algebras.append(algebras[0])
    cob_algebras = []
    for i, count in enumerate(data.cobordism_counts):
        ground = tuple(range(1, count + 1))
        pl = pullback_partition(data.left_maps[i], algebras[i], ground)
        pr = pullback_partition(data.right_maps[i], algebras[i + 1], ground)
        cob_algebras.append(join_partitions(pl, pr))
    za = ZigzagAlgebraDiagram(
        shape=data.time_base,
        fiber_algebras=tuple(algebras),
        cobordism_algebras=tuple(cob_algebras),
        left_maps=data.left_maps,
        right_maps=data.right_maps,
    )
    return limit_of_algebras(za, max_elements=max_elements)


def analyze_boundary(source: Union[Scenario, BoundaryData],
                     grid: Optional[GridSpec] = None, *,
                     scan_samples: int = DEFAULT_SCAN_SAMPLES,
                     tol: float = DEFAULT_TOL,
                     max_elements: int = DEFAULT_MAX_ELEMENTS) -> AnalysisReport:
    """Existence bound computed from boundary measurements only."""
    if isinstance(source, BoundaryData):
        data = source
    else:
        data = extract_boundary_data(source, grid, scan_samples=scan_samples, tol=tol)
    alg = boundary_limit(data, max_elements=max_elements)
    res = alg.result
    diagnostics: Dict[str, object] = {
        "time_base": data.time_base,
        "sample_times": [float(t) for t in data.sample_times],
        "fibers": [
            {"boundary_components": len(p.ground),
             "reconstructed_components": len(p.blocks)}
            for p in data.fiber_partitions
        ],
        "events": list(data.events),
        "note": LOWER_BOUND_NOTE,
    }
    return AnalysisReport(
        mode="boundary",
        exists=res.cardinality > 0,
        limit_cardinality=int(res.cardinality),
        limit_elements=res.elements,
        witnesses=(),
        diagnostics=diagnostics,
        truncated={"elements": res.truncated, "witnesses": False},
    )


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    exists: bool
    start_components: int
    final_components: int
    reachable_pairs: Tuple[Tuple[int, int], ...]
    class_count: int


# Cells of stack the oracle holds at once: its labeling chunks are sized so
# that their stacks stay near this many cells. The search for the distinct
# slices and the certified transitions needs no chunks: the flips come from
# the crossing bands, which grow with the cells the balls sweep, not with
# the time samples.
_ORACLE_CHUNK_CELLS = 1 << 19


def oracle_reachability(s: Scenario, grid: Optional[GridSpec] = None,
                        time_samples: int = DEFAULT_ORACLE_SAMPLES) -> OracleResult:
    """Directed reachability on one uniformly fine time grid.

    Ignores events entirely: a path may stand on any cell uncovered across
    consecutive slices and move freely within a slice's component. On a
    circle base existence requires returning to the starting component.
    The class count is the exact number of consistent component chains,
    one component per slice, each two consecutive ones in one component of
    their two-slice band: the cardinality of the inverse limit of the
    slices' zigzag, in any dimension (see _carry_chains).

    The stack is cropped to the bounding box of the fenced region, which
    holds every uncovered cell and keeps their raster order. Only distinct
    slices count: the first, the last, and each one after a step that
    flips a cell inside the fence. Every other slice equals its
    predecessor, and equal masks have equal components joined one to one.
    A transition is the step from one distinct slice to the next. In 2-D
    most transitions are certified (see rasterize._Transitions): their bands
    join the components of their two slices one to one, so reach and chain
    counts pass through them as a permutation, read off representative
    cells without a raster. Only the first and the last slice and the two
    slices of each other transition are rasterized and labeled; in 1-D that
    is every distinct slice. The labeled slices form one stack of slices
    and bands, whose band across a gap of certified transitions is their
    matching (_Transitions.join).

    No more than about _ORACLE_CHUNK_CELLS cells of stack are held at once,
    so memory does not grow with the grid's cells times the time samples.
    The labeled slices are rasterized and labeled in chunks of at most
    _ORACLE_CHUNK_CELLS // (cells in the box) slices, one coverage_masks
    call each, and each chunk's stack starts with the previous chunk's last
    slice. That slice is the same mask, so it gets the same local labels:
    the reach of every start component into it, and the chain counts ending
    on each of its components, carry over exactly, and the chunk carries
    both on to its last slice. Only those are kept.
    Reachable pairs number components within the first and the last slice.
    Raises KnobError when time_samples is below 1.
    """
    if time_samples < 1:
        raise KnobError(f"time_samples must be at least 1, got {time_samples}")
    if grid is None:
        grid = grid_for_scenario(s)
    t0, t1 = TIME_SPAN
    tr = _Transitions(s, np.linspace(t0, t1, time_samples + 1), grid)
    _, inside = domain_masks(s, grid)
    box = bounding_box(inside)
    per_chunk = max(1, _ORACLE_CHUNK_CELLS // inside[box].size)
    closed = s.time_base == "circle"

    start = final = 0
    reach: Optional[np.ndarray] = None
    chains: List[List[int]] = []
    carried: Optional[np.ndarray] = None
    for lo in range(0, tr.labeled.size, per_chunk):
        unc = tr.uncovered(tr.labeled[lo:lo + per_chunk], box)
        first = lo
        if carried is not None:
            unc = np.concatenate((carried[None], unc))
            first -= 1
        n, last, roots = _oracle_chunk(unc, tr, box, first)
        if reach is None:
            start, reach = n[0], last
            # On a circle one column per start component, else a single
            # column that starts a chain on each.
            chains = ([[int(a == b) for a in range(n[0])] for b in range(n[0])]
                      if closed else [[1] * n[0]])
        else:
            reach = last @ reach
        final = n[-1]
        chains = _carry_chains(n, roots, chains)
        carried = unc[-1].copy()

    pairs = [(int(a) + 1, int(b) + 1) for a, b in np.argwhere(reach.T)]
    if closed:
        exists = any(a == b for a, b in pairs)
        # The chains that close up: the trace.
        class_count = sum(col[b] for b, col in enumerate(chains))
    else:
        exists = bool(pairs)
        class_count = sum(chains[0])

    return OracleResult(
        exists=exists,
        start_components=start,
        final_components=final,
        reachable_pairs=tuple(pairs),
        class_count=class_count,
    )


def _oracle_chunk(unc: np.ndarray, tr: _Transitions, box: Tuple[slice, ...],
                  first: int) -> Tuple[List[int], np.ndarray, List[int]]:
    """Label one chunk's stack (T, *box shape), the labeled slices first,
    first + 1, ... of tr, joined across their gaps (_Transitions.join).

    Returns the component count of each slice, the reach of each first-slice
    component into the last slice as a boolean (last count, first count)
    matrix, and the band roots of _carry_chains. Its other arrays go when it
    returns, so no two chunks' stacks of labels are held at once.
    """
    g = tr.join(stack_graph(unc), box, first)
    n = np.diff(g.offsets).tolist()
    last = sweep(g, range(1, n[0] + 1))[g.offsets[-2] + 1:]
    size = int(g.offsets[-1]) + 1
    return n, last, _union_roots(2 * size, g.src, g.dst + size).tolist()


def _carry_chains(n: Sequence[int], roots: Sequence[int],
                  chains: List[List[int]]) -> List[List[int]]:
    """Chain counts carried from a chunk's first slice to its last.

    Each column of chains counts, per component of a slice, the chains
    ending there. The components of the band (slice j, slice j + 1) are the
    union-find components of the edges between its slices: their shared
    cells, or across a gap the certified matching, the components of the
    band of every sample between them. roots labels every band at once: label
    x as a band's left end is node x, as its right end node size + x, and
    edge (src, dst) joins src to size + dst. A component of slice j + 1 gets
    the chains of those of slice j in its band component. Counts are Python
    ints, exact however many chains there are.
    """
    size = len(roots) // 2
    a = 1
    for j in range(len(n) - 1):
        b = a + n[j]
        members: Dict[int, List[int]] = {}
        for x, root in enumerate(roots[a:b]):
            members.setdefault(root, []).append(x)
        take = [members.get(root, []) for root in roots[size + b:size + b + n[j + 1]]]
        chains = [[sum(col[x] for x in xs) for xs in take] for col in chains]
        a = b
    return chains


def analyze_oracle(s: Scenario, grid: Optional[GridSpec] = None, *,
                   time_samples: int = DEFAULT_ORACLE_SAMPLES) -> AnalysisReport:
    if grid is None:
        grid = grid_for_scenario(s)
    res = oracle_reachability(s, grid, time_samples=time_samples)
    diagnostics: Dict[str, object] = {
        "time_base": s.time_base,
        "time_samples": int(time_samples),
        "grid": {
            "shape": [int(v) for v in grid.shape],
            "cell_size": float(grid.cell_size),
            "origin": [float(v) for v in grid.origin],
        },
        "reachable_pairs": [[int(a), int(b)] for a, b in res.reachable_pairs],
        "start_components": int(res.start_components),
        "final_components": int(res.final_components),
        "note": "direct fine-grained reachability, independent of event tracking",
    }
    return AnalysisReport(
        mode="oracle",
        exists=res.exists,
        limit_cardinality=res.class_count,
        limit_elements=(),
        witnesses=(),
        diagnostics=diagnostics,
        truncated={"elements": False, "witnesses": False},
    )


# ---------------------------------------------------------------------------
# closed-form count in dimension 1
# ---------------------------------------------------------------------------


def d1_count(s: Scenario, grid: Optional[GridSpec] = None) -> int:
    """Evasion path classes over a 1d interval domain, by event bookkeeping.

    Count = (covered components at the start, the fence collar included) - 1
    - (events whose locus turns covered). Exact whenever no uncovered
    component is created after the start (no gap splits or births), since
    then every starting gap keeps its own class until it possibly dies. The
    events are the exact gap sweep's (detect_events in dimension 1).
    """
    if s.dimension != 1:
        raise ValueError("the closed-form count applies to dimension 1 only")
    if s.time_base != "interval":
        raise ValueError("the closed-form count applies to an interval time base")
    if grid is None:
        grid = grid_for_scenario(s)
    events = detect_events(s, grid)
    _, c0 = label_components(rasterize_fiber(s, TIME_SPAN[0], grid).covered_with_collar)
    deaths = sum(1 for e in events if e.type_x == "D")
    return c0 - 1 - deaths


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def analyze(s: Scenario, mode: str = "direct", *,
            grid: Optional[GridSpec] = None,
            cells: int = 128,
            fine_time_samples: int = 64,
            scan_samples: int = DEFAULT_SCAN_SAMPLES,
            tol: float = DEFAULT_TOL,
            max_elements: int = DEFAULT_MAX_ELEMENTS,
            max_witnesses: int = DEFAULT_MAX_WITNESSES,
            witnesses: bool = True,
            time_samples: int = DEFAULT_ORACLE_SAMPLES) -> AnalysisReport:
    if grid is None:
        grid = grid_for_scenario(s, cells=cells, fine_time_samples=fine_time_samples)
    if mode == "direct":
        return analyze_direct(s, grid, scan_samples=scan_samples, tol=tol,
                              max_elements=max_elements,
                              max_witnesses=max_witnesses, witnesses=witnesses)
    if mode == "boundary":
        return analyze_boundary(s, grid, scan_samples=scan_samples, tol=tol,
                                max_elements=max_elements)
    if mode == "oracle":
        return analyze_oracle(s, grid, time_samples=time_samples)
    raise ValueError(f"unknown mode {mode!r}")
