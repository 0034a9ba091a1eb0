"""End-to-end analyses: direct, boundary-only, and brute-force oracle.

Direct mode tracks uncovered components through the interleaved zigzag and
takes the exact inverse limit; its cardinality is a lower bound for the
number of evasion path classes, and a nonempty limit is necessary but not
sufficient evidence that a path exists. Witness extraction upgrades that
evidence: a witness is a time-monotone cell path staying uncovered, found by
directed reachability through the fine sub-samples of each cobordism.

Boundary mode never looks at uncovered cells directly. It reads the boundary
components at each sample, pairs them with the holes of the covered region
through winding functionals, and rebuilds the uncovered zigzag as the dual
of the resulting partition diagram.

Oracle mode ignores the event structure and answers reachability on one
uniformly fine time grid; it is the independent cross-check for both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import KnobError, WitnessError
from .limit import (AlgebraLimit, PartitionAlgebra, ZigzagAlgebraDiagram,
                    ZigzagSetDiagram, inverse_limit, join_partitions,
                    limit_of_algebras, partition_algebra, pullback_partition)
from .planar_homology import alexander_image
from .rasterize import (BoundaryComponents, GridSpec, StackGraph,
                        bounding_box, cell_center, coverage_masks,
                        domain_masks, grid_for_scenario, label_components,
                        label_slices, rasterize_cobordism, rasterize_fiber,
                        stack_graph, sweep)
from .scenario import TIME_SPAN, Scenario, positions_at
from .zigzag import (DEFAULT_SCAN_SAMPLES, DEFAULT_TOL, Event, ZigzagBundle,
                     build_zigzag, detect_events, fiber_signature)

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
                goal: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Cells of a shortest face-adjacent path inside one component, start excluded.

    Breadth-first search over flat indices of the component's mask, padded
    by one cell outside it on every side so that no step needs a bounds
    check. Neighbors are tried axis by axis, the lower one first, and a
    cell's parent is the cell that discovered it, so the search may stop as
    soon as the goal is discovered.
    """
    if start == goal:
        return []
    free = np.pad(labels == comp, 1)
    shape = free.shape
    steps = []
    for axis in range(free.ndim):
        stride = int(np.prod(shape[axis + 1:], dtype=np.int64))
        steps += [-stride, stride]
    origin = int(np.ravel_multi_index(tuple(v + 1 for v in start), shape))
    target = int(np.ravel_multi_index(tuple(v + 1 for v in goal), shape))
    open_cells = free.ravel().tolist()
    open_cells[origin] = False
    parents = {origin: origin}
    queue = deque([origin])
    while queue and target not in parents:
        cur = queue.popleft()
        for step in steps:
            nxt = cur + step
            if open_cells[nxt]:
                open_cells[nxt] = False
                parents[nxt] = cur
                if nxt == target:
                    break
                queue.append(nxt)
    if target not in parents:
        raise WitnessError("cells reported in one component are not connected")
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
    times: np.ndarray
    graph: StackGraph


def _segment(data: _CobData, start: Tuple[int, ...], target_label: int,
             target_cell: Optional[Tuple[int, ...]]
             ) -> Optional[List[Tuple[float, Tuple[int, ...]]]]:
    """Monotone cell path from `start` to the target component, or None.

    target_label is numbered within the last slice. The components some
    path can use are those reached forward from the start's component and
    backward from the target. The path stands still across a slice step
    where it can; otherwise it walks inside its component to the first cell,
    in raster order, that stands on a usable component of the next slice.
    """
    g = data.graph
    labels = g.labels
    times = data.times
    m = labels.shape[0]

    first = int(labels[0][start])
    if first == 0 or not 0 < target_label <= g.offsets[m] - g.offsets[m - 1]:
        return None
    target = int(g.offsets[m - 1]) + target_label
    usable = sweep(g, [first])[:, 0] & sweep(g, [target], backward=True)[:, 0]
    if not usable[first]:
        return None

    path: List[Tuple[float, Tuple[int, ...]]] = [(float(times[0]), start)]
    cur = start
    for j in range(m - 1):
        if usable[labels[j + 1][cur]]:
            nxt = cur
        else:
            comp = int(labels[j][cur])
            cand = (labels[j] == comp) & usable[labels[j + 1]]
            if not cand.any():
                return None
            flat = int(np.flatnonzero(cand.ravel())[0])
            nxt = tuple(int(v) for v in np.unravel_index(flat, cand.shape))
            for cell in _slice_path(labels[j], comp, cur, nxt):
                path.append((float(times[j]), cell))
        path.append((float(times[j + 1]), nxt))
        cur = nxt
    if target_cell is not None and cur != target_cell:
        comp = int(labels[m - 1][cur])
        for cell in _slice_path(labels[m - 1], comp, cur, target_cell):
            path.append((float(times[m - 1]), cell))
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
        if bundle.region != "uncovered":
            raise WitnessError("witnesses require an uncovered-region bundle")
        self.bundle = bundle
        self.max_refine = max_refine
        self.box = bundle.cobordism_parts[0].box
        self._cache: Dict[Tuple[int, int], _CobData] = {}

    def _data(self, i: int, level: int) -> _CobData:
        key = (i, level)
        if key not in self._cache:
            if level == 0:
                data = _CobData(times=self.bundle.cobordisms[i].times,
                                graph=self.bundle.cobordism_parts[i].graph)
            else:
                base = self.bundle.grid.fine_time_samples
                cob = rasterize_cobordism(
                    self.bundle.scenario, self.bundle.cobordisms[i].interval,
                    self.bundle.grid, fine_time_samples=base * (2 ** level))
                data = _CobData(times=cob.times,
                                graph=stack_graph(cob.uncovered[(slice(None),) + self.box]))
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
    limit_cardinality: Optional[int]
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


def _bundle_diagnostics(bundle: ZigzagBundle) -> Dict[str, object]:
    grid = bundle.grid
    fibers = []
    for f in bundle.fibers:
        pi0, b1, pb = fiber_signature(f)
        fibers.append({
            "t": float(f.time),
            "pi0": pi0,
            "b1": b1,
            "boundary_pairs": pb,
        })
    return {
        "time_base": bundle.time_base,
        "grid": {
            "shape": [int(v) for v in grid.shape],
            "cell_size": float(grid.cell_size),
            "origin": [float(v) for v in grid.origin],
            "fine_time_samples": int(grid.fine_time_samples),
        },
        "sample_times": [float(t) for t in bundle.samples],
        "fibers": fibers,
        "events": [_event_doc(e) for e in bundle.events],
        "note": LOWER_BOUND_NOTE,
    }


def analyze_direct(s: Scenario, grid: Optional[GridSpec] = None, *,
                   scan_samples: int = DEFAULT_SCAN_SAMPLES,
                   tol: float = DEFAULT_TOL,
                   max_elements: int = DEFAULT_MAX_ELEMENTS,
                   max_witnesses: int = DEFAULT_MAX_WITNESSES,
                   witnesses: bool = True,
                   events: Optional[Sequence[Event]] = None) -> AnalysisReport:
    """Track uncovered components and take the exact inverse limit.

    events, when given, are used instead of running detect_events.
    """
    if grid is None:
        grid = grid_for_scenario(s)
    bundle = build_zigzag(s, grid, region="uncovered", events=events,
                          scan_samples=scan_samples, tol=tol)
    limres = inverse_limit(bundle.diagram, max_elements=max_elements)
    diagnostics = _bundle_diagnostics(bundle)

    found: List[Witness] = []
    failures: List[dict] = []
    attempted = 0
    if witnesses and limres.elements:
        builder = _WitnessBuilder(bundle)
        for element in limres.elements[:max_witnesses]:
            attempted += 1
            try:
                w = builder.extract(element)
            except WitnessError as exc:
                failures.append({"element": [int(v) for v in element],
                                 "detail": str(exc)})
                continue
            if not verify_witness(s, w):
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


# ---------------------------------------------------------------------------
# boundary-only analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryData:
    """Everything the boundary measurements provide, and nothing else.

    Fiber partitions group each sample's boundary components by the winding
    functionals of the covered region's holes; the maps track boundary
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


def extract_boundary_data(s: Scenario, grid: Optional[GridSpec] = None, *,
                          scan_samples: int = DEFAULT_SCAN_SAMPLES,
                          tol: float = DEFAULT_TOL,
                          events: Optional[Sequence[Event]] = None) -> BoundaryData:
    """Measure boundary components and their winding partitions per sample.

    events, when given, are used instead of running detect_events. Raises
    KnobError on a scenario that is not two-dimensional.
    """
    if s.dimension != 2:
        raise KnobError("boundary analysis is defined for dimension 2 only")
    if grid is None:
        grid = grid_for_scenario(s)
    bundle = build_zigzag(s, grid, region="covered_boundary", events=events,
                          scan_samples=scan_samples, tol=tol)
    algebras = []
    for fiber, parts in zip(bundle.fibers, bundle.fiber_parts):
        assert isinstance(parts, BoundaryComponents)
        algebras.append(alexander_image(fiber.covered_with_collar, parts))
    events = tuple(_event_doc(e) for e in bundle.events)
    return BoundaryData(
        time_base=bundle.time_base,
        sample_times=bundle.samples,
        fiber_partitions=tuple(algebras),
        cobordism_counts=tuple(p.count for p in bundle.cobordism_parts),
        left_maps=bundle.diagram.left_maps,
        right_maps=bundle.diagram.right_maps,
        events=events,
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
    class_count: Optional[int]


def oracle_reachability(s: Scenario, grid: Optional[GridSpec] = None,
                        time_samples: int = DEFAULT_ORACLE_SAMPLES) -> OracleResult:
    """Directed reachability on one uniformly fine time grid.

    Ignores events entirely: a path may stand on any cell uncovered across
    consecutive slices and move freely within a slice's component. On a
    circle base existence requires returning to the starting component.
    The class count (dimension 1 only) is the exact number of consistent
    component chains, counted by transfer matrices over all fine slices.

    The stack is cropped to the bounding box of the fenced region, which
    holds every uncovered cell and keeps their raster order. A run of equal
    slices is kept once, since equal masks have equal components joined one
    to one. The rest are labeled in one call and one forward sweep carries
    every start component at once; reachable pairs number components within
    the first and the last slice. Raises KnobError when time_samples is
    below 1.
    """
    if time_samples < 1:
        raise KnobError(f"time_samples must be at least 1, got {time_samples}")
    if grid is None:
        grid = grid_for_scenario(s)
    t0, t1 = TIME_SPAN
    times = np.linspace(t0, t1, time_samples + 1)
    _, inside = domain_masks(s, grid)
    box = bounding_box(inside)
    unc = inside[box] & ~coverage_masks(s, times, grid, box)
    flat = unc.reshape(unc.shape[0], -1)
    keep = np.ones(unc.shape[0], dtype=bool)
    keep[1:-1] = np.any(flat[1:-1] != flat[:-2], axis=1)
    unc = unc[keep]
    g = stack_graph(unc)
    counts = [int(v) for v in np.diff(g.offsets)]

    last = sweep(g, range(1, counts[0] + 1))[g.offsets[-2] + 1:]
    pairs = [(int(a) + 1, int(b) + 1) for a, b in np.argwhere(last.T)]
    if s.time_base == "circle":
        exists = any(a == b for a, b in pairs)
    else:
        exists = bool(pairs)

    class_count: Optional[int] = None
    if s.dimension == 1:
        class_count = _oracle_class_count(s.time_base, unc, g, counts)

    return OracleResult(
        exists=exists,
        start_components=counts[0],
        final_components=counts[-1],
        reachable_pairs=tuple(pairs),
        class_count=class_count,
    )


def _oracle_class_count(time_base: str, unc: np.ndarray, g: StackGraph,
                        counts: List[int]) -> int:
    """Limit cardinality of the zigzag of slices and two-slice bands.

    Every band (slice j, slice j + 1) is labeled in one call; a slice
    component maps to the band component holding its first cell.
    """
    bands, band_tops = label_slices(np.stack((unc[:-1], unc[1:]), axis=1))
    band_offsets = np.concatenate(([0], band_tops))
    values, first = np.unique(g.labels, return_index=True)
    slices, cells = np.divmod(first[values > 0], unc.shape[1])
    lefts: List[Dict[int, int]] = [{} for _ in range(len(bands))]
    rights: List[Dict[int, int]] = [{} for _ in range(len(bands))]
    for label, j, x in zip(range(1, len(slices) + 1), slices.tolist(), cells.tolist()):
        local = label - int(g.offsets[j])
        if j < len(bands):
            lefts[j][local] = int(bands[j, 0, x] - band_offsets[j])
        if j > 0:
            rights[j - 1][local] = int(bands[j - 1, 1, x] - band_offsets[j - 1])
    diagram = ZigzagSetDiagram(
        shape=time_base,
        fiber_sets=tuple(tuple(range(1, n + 1)) for n in counts),
        cobordism_sets=tuple(tuple(range(1, int(n) + 1)) for n in np.diff(band_offsets)),
        left_maps=tuple(lefts),
        right_maps=tuple(rights),
    )
    return int(inverse_limit(diagram, max_elements=0).cardinality)


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


def d1_count(s: Scenario, grid: Optional[GridSpec] = None, *,
             fence_ends: str = "included",
             scan_samples: int = DEFAULT_SCAN_SAMPLES,
             tol: float = DEFAULT_TOL) -> int:
    """Evasion path classes over a 1d interval domain, by event bookkeeping.

    Count = (covered components at the start) - 1 - (events whose locus turns
    covered). Exact whenever no uncovered component is created after the
    start (no gap splits or births), since then every starting gap keeps its
    own class until it possibly dies. fence_ends selects whether the fence
    collar counts as covered ("included", default) or is dropped ("excluded").
    """
    if s.dimension != 1:
        raise ValueError("the closed-form count applies to dimension 1 only")
    if s.time_base != "interval":
        raise ValueError("the closed-form count applies to an interval time base")
    if fence_ends not in ("included", "excluded"):
        raise ValueError("fence_ends must be 'included' or 'excluded'")
    if grid is None:
        grid = grid_for_scenario(s)
    events = detect_events(s, grid, scan_samples=scan_samples, tol=tol)
    f0 = rasterize_fiber(s, TIME_SPAN[0], grid)
    region = f0.covered_with_collar if fence_ends == "included" else f0.covered
    _, c0 = label_components(region)
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
