"""The exact zigzag of a one-dimensional scenario, swept over crossing times.

In dimension 1 the uncovered region at a time is a finite set of open gaps,
each with trivial pi1, so the zigzag of gap sets over the times where the
gaps change is the exact answer. Every gap end is an edge: a sensor's
p_j(t) - r or p_j(t) + r, or a fence end c -/+ (R - w). Each edge is linear
on every piece between the tracks' waypoint times, so two edges cross at a
closed-form time. At a time that no pair of edges crosses, the edges in
left-to-right order give the gaps: a covered interval starts at each
p_j - r and at the right fence end, ends at each p_j + r and at the left
fence end, and a gap lies between an end and the next edge wherever no
interval is open (the left fence is open from the start).

The sweep visits stations: every waypoint time and every crossing time. A
station has the edge order just before it, sorted by (value, -slope before)
at the station, and just after it, sorted by (value, slope after); equal
values and slopes put a start before an end, so touching intervals leave no
gap. Between stations no two edges cross, so the order after one station is
the order before the next, and the gap ends are linear there. Across a
station a gap dies when its two ends meet there, and is born the same way;
the fiber at the station is the gaps before it less those that die, which
are the gaps after it less those born, matched in order. So every gap
lifetime, hence the zigzag over any sample times, its inverse limit and a
witness through gap midpoints, follow from the stations alone.

Crossing times are found in float64. Comparisons within a rounding bound of
a tie are settled with fractions.Fraction of the float inputs: a crossing
time within its bound of another or of a waypoint time, and a station whose
edge values lie within the bound of each other apart from the one pair that
crosses there, are computed exactly. Ties are then exact, not merged by a
tolerance. Every other comparison is certain in float64.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ResolutionError, WitnessError
from .limit import ZigzagSetDiagram
from .rasterize import GridSpec, grid_for_scenario
from .scenario import TIME_SPAN, Scenario, positions_at
from .zigzag import Event, Signature, interleave

__all__ = ["GapSweep", "sweep_gaps"]

# A gap is the pair of edges at its ends, left then right.
Gap = Tuple[int, int]

# Relative bound on the float error of an edge value, generous by a factor
# of about a thousand over np.interp's rounding.
_VALUE_EPS = 2.0 ** -40


@dataclass
class _Station:
    """One station: its time, edge values, and gaps before and after it.

    before is None at the start of an interval base and after is None at
    its end. dead indexes the gaps of before whose ends meet here, born
    those of after. A station found in float64 is a waypoint time (err 0)
    or the crossing of pair on one piece, (e, f, piece), whose time is
    known within err; one computed exactly keeps its time in exact.
    """

    time: float
    err: float
    exact: Optional[Fraction]
    pair: Optional[Tuple[int, int, int]]
    values: np.ndarray
    before: Optional[List[Gap]]
    after: Optional[List[Gap]]
    dead: Tuple[int, ...]
    born: Tuple[int, ...]

    @property
    def fiber(self) -> List[Gap]:
        if self.before is not None:
            return [g for i, g in enumerate(self.before) if i not in self.dead]
        return [g for i, g in enumerate(self.after) if i not in self.born]


class _Edges:
    """Edge values and slopes of a 1-D scenario, in float64 and exactly.

    Edge 2j is sensor j's p_j - r, where a covered interval starts, and
    edge 2j + 1 its p_j + r, where one ends; edge 2n is the left fence end
    c - (R - w), where the left fence's interval ends, and edge 2n + 1 the
    right fence end c + (R - w), where the right fence's starts.
    """

    def __init__(self, s: Scenario) -> None:
        self.s = s
        n = s.sensor_count
        self.n = n
        self.count = 2 * n + 2
        self.is_end = np.zeros(self.count, dtype=bool)
        self.is_end[1:2 * n:2] = True
        self.is_end[2 * n] = True
        self.sign = np.where(self.is_end[:2 * n], 1.0, -1.0)
        inner = s.radius - s.fence_width
        self.fence = np.array([s.center[0] - inner, s.center[0] + inner])
        t0, t1 = TIME_SPAN
        arrays = [track.arrays for track in s.tracks]
        self.breaks = np.unique(np.concatenate([[t0, t1]] + [wt for wt, _ in arrays]))
        mids = 0.5 * (self.breaks[:-1] + self.breaks[1:])
        # Per sensor, its track piece under each global piece.
        self.piece_of = [np.searchsorted(wt, mids) - 1 for wt, _ in arrays]
        slopes = np.zeros((mids.size, self.count))
        for j, (wt, wx) in enumerate(arrays):
            v = (np.diff(wx[0]) / np.diff(wt))[self.piece_of[j]]
            slopes[:, 2 * j] = slopes[:, 2 * j + 1] = v
        self.slopes = slopes
        self._exact_tracks: Optional[List[Tuple[List[Fraction], List[Fraction]]]] = None
        self._exact_slopes: Dict[int, List[Fraction]] = {}

    def values(self, times: Sequence[float]) -> np.ndarray:
        """Float edge values at the given times, shape (times, edges)."""
        out = np.empty((len(times), self.count))
        if self.n:
            pos = positions_at(self.s, times)[:, :, 0].T
            out[:, :2 * self.n] = np.repeat(pos, 2, axis=1) + self.sign * self.s.sensing_radius
        out[:, 2 * self.n:] = self.fence
        return out

    # -- exact arithmetic ---------------------------------------------------

    def _tracks(self) -> List[Tuple[List[Fraction], List[Fraction]]]:
        if self._exact_tracks is None:
            self._exact_tracks = [([Fraction(t) for t in track.times],
                                   [Fraction(p[0]) for p in track.points])
                                  for track in self.s.tracks]
        return self._exact_tracks

    def exact_values(self, t: Fraction) -> List[Fraction]:
        r = Fraction(self.s.sensing_radius)
        out = []
        for wt, wx in self._tracks():
            k = min(max(bisect.bisect_right(wt, t) - 1, 0), len(wt) - 2)
            x = wx[k] + (wx[k + 1] - wx[k]) * (t - wt[k]) / (wt[k + 1] - wt[k])
            out += [x - r, x + r]
        c, inner = Fraction(self.s.center[0]), Fraction(self.s.radius) - Fraction(self.s.fence_width)
        return out + [c - inner, c + inner]

    def exact_slopes(self, piece: int) -> List[Fraction]:
        if piece not in self._exact_slopes:
            out = []
            for (wt, wx), ks in zip(self._tracks(), self.piece_of):
                k = int(ks[piece])
                v = (wx[k + 1] - wx[k]) / (wt[k + 1] - wt[k])
                out += [v, v]
            self._exact_slopes[piece] = out + [Fraction(0), Fraction(0)]
        return self._exact_slopes[piece]

    def exact_crossing(self, e: int, f: int, piece: int) -> Optional[Fraction]:
        """The time edges e and f meet on the piece, if they meet at one time."""
        slopes = self.exact_slopes(piece)
        dv = slopes[e] - slopes[f]
        if dv == 0:
            return None
        start = Fraction(self.breaks[piece])
        values = self.exact_values(start)
        t = start - (values[e] - values[f]) / dv
        if not start <= t <= Fraction(self.breaks[piece + 1]):
            return None
        return t


def _gaps(order: Sequence[int], is_end: np.ndarray) -> List[Gap]:
    """The gaps of one edge order: an end followed by depth zero."""
    out = []
    depth = 1
    for i, e in enumerate(order):
        depth += -1 if is_end[e] else 1
        if depth == 0:
            out.append((int(e), int(order[i + 1])))
    return out




def _pad(t: float) -> float:
    return 4.0 * float(np.spacing(max(abs(t), 1.0)))


class GapSweep:
    """The stations of a 1-D scenario and what is read off them.

    events holds one Event per gap that dies (D) or is born (N), with a
    zero-width window at its exact time and the grid cell of its point as
    locus; samples are interleave's times between them; diagram is the
    zigzag of gap sets at the samples, each gap numbered from 1 in
    left-to-right order; signatures are the samples' (gaps, 0, gap ends
    that are sensor edges).
    """

    def __init__(self, s: Scenario, grid: GridSpec) -> None:
        if s.dimension != 1:
            raise ValueError("the gap sweep applies to dimension 1 only")
        self.scenario = s
        self.grid = grid
        self.edges = _Edges(s)
        self.stations = self._sweep()
        self._times = [st.time for st in self.stations]
        self.events = self._events()
        self.samples = interleave(self.events, s.time_base)
        self._places = [self._locate(t) for t in self.samples]
        self._sample_values = self.edges.values(self.samples)
        self.fibers = [self._gaps_at(place) for place in self._places]
        self.signatures: List[Signature] = [self._signature(g) for g in self.fibers]
        self.diagram = self._diagram()

    # -- stations -----------------------------------------------------------

    def _candidates(self) -> List[Tuple[float, float, str, tuple]]:
        """Stations to be: (time, error bound, kind, data), unsorted.

        Kinds: "break", a waypoint time, data (index,); "cross", a float
        crossing of one pair inside a piece, data (e, f, piece); "exact", a
        time settled with fractions because a pair is within the bound of a
        tie at a piece end, data (time,).
        """
        edges = self.edges
        breaks = edges.breaks
        last = breaks.size - (1 if self.scenario.time_base == "circle" else 0)
        items = [(float(t), 0.0, "break", (i,)) for i, t in enumerate(breaks[:last])]
        vb = edges.values(breaks)
        eps = _VALUE_EPS * max(1.0, float(np.max(np.abs(vb))))
        e, f = np.triu_indices(edges.count, 1)
        d = vb[:, e] - vb[:, f]
        d0, d1 = d[:-1], d[1:]
        near = (np.abs(d0) <= eps) | (np.abs(d1) <= eps)
        crossing = ~near & ((d0 > 0) != (d1 > 0))
        span = np.diff(breaks)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            times = breaks[:-1, None] + span * (d0 / (d0 - d1))
            err = span * (2.0 * eps) / np.abs(d0 - d1)
        for m, k in zip(*np.nonzero(crossing)):
            items.append((float(times[m, k]), float(err[m, k]), "cross",
                          (int(e[k]), int(f[k]), int(m))))
        for m, k in zip(*np.nonzero(near)):
            t = edges.exact_crossing(int(e[k]), int(f[k]), int(m))
            if t is not None:
                items.append((float(t), 0.0, "exact", (t,)))
        return items

    def _sweep(self) -> List[_Station]:
        """Stations in time order; see the module docstring.

        Candidates whose error bounds overlap form a cluster. A cluster of
        one waypoint or one crossing is a float station; every other one is
        settled with fractions into its distinct exact times.
        """
        items = sorted(self._candidates(), key=lambda it: it[0])
        clusters: List[list] = []
        reach = -np.inf
        for it in items:
            t, err = it[0], it[1]
            if clusters and t - err <= reach:
                clusters[-1].append(it)
            else:
                clusters.append([it])
            reach = max(reach, t + err + _pad(t))
        floats = []
        exact: List[Fraction] = []
        for cl in clusters:
            t, err, kind, data = cl[0]
            if len(cl) == 1 and kind == "break":
                floats.append((t, 0.0, None, data[0]))
            elif len(cl) == 1 and kind == "cross":
                floats.append((t, err, data, None))
            else:
                found = set()
                for t, err, kind, data in cl:
                    if kind == "break":
                        found.add(Fraction(t))
                    elif kind == "exact":
                        found.add(data[0])
                    else:
                        found.add(self.edges.exact_crossing(*data))
                exact.extend(found - {None})
        stations = self._float_stations(floats, exact)
        stations += [self._exact_station(t) for t in exact]
        # Clusters lie apart, so float times order the stations, apart from
        # the exact ones of one cluster that round to one float.
        stations.sort(key=lambda st: (st.time, st.exact if st.exact is not None else 0))
        if self.scenario.time_base == "circle":
            if stations[-1].exact == 1:
                stations.pop()  # the station at t = 0
            pairs = zip(stations, stations[1:] + stations[:1])
        else:
            pairs = zip(stations, stations[1:])
        for a, b in pairs:
            if a.after != b.before:
                raise ResolutionError(
                    f"the gap order changed between stations {a.time:.17g} and "
                    f"{b.time:.17g} without a crossing",
                    hint="perturb the scenario: its edges cross too near a tie")
        return stations

    def _pieces(self, m: int, at_break: bool) -> Tuple[Optional[int], Optional[int]]:
        """The pieces before and after a station inside piece m, or at its
        start (waypoint m) when at_break: None past an interval base's ends,
        and the last piece before t = 0 on a circle."""
        if not at_break:
            return m, m
        last = self.edges.breaks.size - 2
        if m == 0:
            return (last if self.scenario.time_base == "circle" else None), 0
        return m - 1, (m if m <= last else None)

    def _float_stations(self, floats: list, exact: List[Fraction]) -> List[_Station]:
        """Stations (time, err, pair, waypoint index) settled in float64 in
        one vectorized pass. A crossing pair's values are set equal. A
        station with any other two values within the bound of a tie, or
        whose pair's slopes are, joins exact instead."""
        if not floats:
            return []
        edges = self.edges
        values = edges.values([f[0] for f in floats])
        zero = np.zeros(edges.count)
        pieces, before, after = [], [], []
        for i, (t, err, pair, at_break) in enumerate(floats):
            if pair is None:
                a, b = self._pieces(at_break, True)
            else:
                e, f, a = pair
                b = a
                values[i, e] = values[i, f] = 0.5 * (values[i, e] + values[i, f])
            pieces.append((a, b))
            before.append(edges.slopes[a] if a is not None else zero)
            after.append(edges.slopes[b] if b is not None else zero)
        before, after = np.array(before), np.array(after)
        vmax = np.maximum(np.abs(before).max(axis=1), np.abs(after).max(axis=1))
        scale = max(1.0, float(np.max(np.abs(values))))
        bound = 2.0 * (_VALUE_EPS * scale + vmax * np.array([f[1] for f in floats]))
        # Only a crossing pair, whose slopes differ, ties in value here; any
        # other near tie sends the station to exact. So value and slope
        # order the edges.
        order_b = np.lexsort((-before, values), axis=-1)
        order_a = np.lexsort((after, values), axis=-1)
        sorted_v = np.take_along_axis(values, order_a, axis=1)
        near = (np.diff(sorted_v, axis=1) <= bound[:, None]).sum(axis=1)
        out = []
        for i, (t, err, pair, _) in enumerate(floats):
            snapped = pair is not None
            ok = near[i] == snapped
            if snapped and ok:
                ok = abs(after[i, pair[0]] - after[i, pair[1]]) > _VALUE_EPS * max(1.0, vmax[i])
            if not ok:
                x = edges.exact_crossing(*pair) if snapped else None
                exact.append(Fraction(t) if x is None else x)
                continue
            a, b = pieces[i]
            out.append(self._station(t, err, None, pair, values[i], None,
                                     order_b[i] if a is not None else None,
                                     order_a[i] if b is not None else None))
        return out

    def _exact_station(self, t: Fraction) -> _Station:
        edges = self.edges
        x = float(t)
        vals = edges.exact_values(t)
        breaks = [Fraction(b) for b in edges.breaks]
        m = bisect.bisect_right(breaks, t) - 1
        a, b = self._pieces(m, t == breaks[m])
        is_end = edges.is_end

        def order(piece: Optional[int], sign: int) -> Optional[List[int]]:
            if piece is None:
                return None
            slopes = edges.exact_slopes(piece)
            return sorted(range(edges.count),
                          key=lambda e: (vals[e], sign * slopes[e], bool(is_end[e]), e))

        return self._station(x, _pad(x), t, None, np.array([float(v) for v in vals]), vals,
                             order(a, -1), order(b, 1))

    def _station(self, t: float, err: float, exact: Optional[Fraction],
                 pair: Optional[Tuple[int, int, int]], values: np.ndarray,
                 exact_values: Optional[List[Fraction]], order_b, order_a) -> _Station:
        """A station from its edge orders. Ends tie where their values are
        equal: exactly when exact_values are given, else in float64, where
        only the crossing pair was set equal."""
        is_end = self.edges.is_end
        tie = values if exact_values is None else exact_values
        before = _gaps(order_b, is_end) if order_b is not None else None
        after = _gaps(order_a, is_end) if order_a is not None else None
        dead = tuple(i for i, (l, r) in enumerate(before or ()) if tie[l] == tie[r])
        born = tuple(i for i, (l, r) in enumerate(after or ()) if tie[l] == tie[r])
        if before is not None and after is not None and \
                len(before) - len(dead) != len(after) - len(born):
            raise ResolutionError(
                f"the gaps before and after {t:.17g} do not match up",
                hint="perturb the scenario: its edges cross too near a tie")
        return _Station(time=t, err=err, exact=exact, pair=pair, values=values,
                        before=before, after=after, dead=dead, born=born)

    def _exact_time(self, st: _Station) -> Fraction:
        if st.exact is not None:
            return st.exact
        if st.pair is not None:
            t = self.edges.exact_crossing(*st.pair)
            if t is not None:
                return t
        return Fraction(st.time)

    # -- reading the stations -------------------------------------------------

    def _events(self) -> Tuple[Event, ...]:
        events = []
        for st in self.stations:
            if not st.dead and not st.born:
                continue
            before = self._signature(st.before if st.before is not None else st.fiber)
            after = self._signature(st.after if st.after is not None else st.fiber)
            for kind, gaps, which in (("D", st.before, st.dead), ("N", st.after, st.born)):
                for i in which:
                    x = float(st.values[gaps[i][0]])
                    events.append((st.time, x, Event(
                        window=(st.time, st.time), locus=(self._cell(x),),
                        type_x=kind, before=before, after=after)))
        events.sort(key=lambda item: item[:2])
        return tuple(e for _, _, e in events)

    def _cell(self, x: float) -> int:
        g = self.grid
        i = int(np.floor((x - g.origin[0]) / g.cell_size))
        return min(max(i, 0), g.shape[0] - 1)

    def _signature(self, gaps: Sequence[Gap]) -> Signature:
        sensors = 2 * self.edges.n
        return (len(gaps), 0, sum(int(l < sensors) + int(r < sensors) for l, r in gaps))

    def _locate(self, t: float) -> int:
        """The place of time t: 2k + 1 at station k, 2k + 2 after station
        k and before the next one. Times within a station's error bound are
        placed exactly."""
        k = bisect.bisect_right(self._times, t) - 1
        for j in (k + 1, k):
            if 0 <= j < len(self.stations) and \
                    abs(self._times[j] - t) <= self.stations[j].err:
                exact = self._exact_time(self.stations[j])
                if Fraction(t) == exact:
                    return 2 * j + 1
                return 2 * j + 2 if Fraction(t) > exact else 2 * j
        return 2 * k + 2

    def _gaps_at(self, place: int) -> List[Gap]:
        st = self.stations[(place - 1) // 2]
        return st.fiber if place % 2 else st.after

    # -- the diagram and witnesses ------------------------------------------

    def _walk(self, i: int) -> List[Tuple[int, str, int]]:
        """The half steps from sample i to the next one, in time order.

        Half step (k, "before", lap) takes the gaps before station k to its
        fiber, place 2k + 1, and (k, "after", lap) takes the fiber on to
        place 2k + 2. On a circle the last sample's walk runs on past the
        last station to the first, one period later: lap 1.
        """
        n = len(self.samples)
        total = 2 * len(self.stations)
        a = self._places[i]
        b = self._places[(i + 1) % n] + (total if i + 1 == n else 0)
        steps = []
        for p in range(a + 1, b + 1):
            q = (p - 1) % total + 1
            lap = (p - 1) // total
            steps.append(((q - 1) // 2, "before", lap) if q % 2 else ((q - 2) // 2, "after", lap))
        return steps

    def _advance(self, k: int, half: str, current: list, fresh) -> list:
        """Carry one entry per gap across a half step: a death drops its
        entry, and fresh() makes the entry of a birth."""
        st = self.stations[k]
        if half == "before":
            if st.before is None:
                return current
            return [c for i, c in enumerate(current) if i not in st.dead]
        if st.after is None:
            return current
        out, it = [], iter(current)
        for i in range(len(st.after)):
            out.append(fresh() if i in st.born else next(it))
        return out

    def _diagram(self) -> ZigzagSetDiagram:
        """One cobordism per pair of consecutive samples (and the wrap on a
        circle); its labels are the gap lifetimes met on the walk."""
        circle = self.scenario.time_base == "circle"
        n = len(self.samples)
        cob_sets, lefts, rights = [], [], []
        for i in range(n if circle else n - 1):
            ids = list(range(1, len(self.fibers[i]) + 1))
            labels = itertools.count(len(ids) + 1)
            current = list(ids)
            for k, half, _ in self._walk(i):
                current = self._advance(k, half, current, lambda: next(labels))
            lefts.append(dict(zip(ids, ids)))
            rights.append(dict(enumerate(current, 1)))
            cob_sets.append(tuple(range(1, next(labels))))
        fiber_sets = [tuple(range(1, len(f) + 1)) for f in self.fibers]
        if circle:
            fiber_sets.append(fiber_sets[0])
        return ZigzagSetDiagram(shape=self.scenario.time_base, fiber_sets=tuple(fiber_sets),
                                cobordism_sets=tuple(cob_sets), left_maps=tuple(lefts),
                                right_maps=tuple(rights))

    def path(self, element: Sequence[int]) -> Tuple[Tuple[float, Tuple[float]], ...]:
        """Witness samples through the gap midpoints of a limit element.

        The path stands at each sample and station time at the midpoint of
        its gap; between them every gap end is linear, so the straight
        segments stay inside the gap. On a circle base it returns to its
        start one period later. Raises WitnessError when the element is not
        a chain of the diagram.
        """
        if len(element) != len(self.diagram.fiber_sets):
            raise WitnessError("element length does not match the diagram")
        circle = self.scenario.time_base == "circle"
        n = len(self.samples)
        gap = int(element[0]) - 1
        if not 0 <= gap < len(self.fibers[0]):
            raise WitnessError("element names a missing component")
        t = float(self.samples[0])
        start = (self._midpoint(0, gap),)
        out = [(t, start)]
        for i in range(n if circle else n - 1):
            wrapped = circle and i + 1 == n
            current = [j == gap for j in range(len(self.fibers[i]))]
            for k, half, lap in self._walk(i):
                current = self._advance(k, half, current, lambda: False)
                if True not in current:
                    raise WitnessError("the element's gap dies inside its span")
                st = self.stations[k]
                if half == "before" and st.before is not None:
                    l, r = st.fiber[current.index(True)]
                    out.append((st.time + lap, (float(0.5 * (st.values[l] + st.values[r])),)))
            gap = current.index(True)
            if gap != int(element[i + 1]) - 1:
                raise WitnessError("element is not a chain of the diagram")
            if wrapped:
                out.append((float(self.samples[0]) + 1.0, start))
            else:
                out.append((float(self.samples[i + 1]), (self._midpoint(i + 1, gap),)))
        path = [out[0]]
        for sample in out[1:]:
            if sample != path[-1]:
                path.append(sample)
        return tuple(path)

    def _midpoint(self, sample: int, gap: int) -> float:
        """The midpoint of a gap of a sample's fiber."""
        l, r = self.fibers[sample][gap]
        v = self._sample_values[sample]
        return float(0.5 * (v[l] + v[r]))

    def gaps_at(self, times: Sequence[float]) -> List[List[Tuple[float, float]]]:
        """The gaps (lo, hi) at each time, read off the stations. Like
        positions_at, an interval base clamps outside times to the span
        ends and a circle base wraps them."""
        t0, t1 = TIME_SPAN
        if self.scenario.time_base == "circle":
            times = [t0 + (float(t) - t0) % (t1 - t0) for t in times]
        else:
            times = [min(max(float(t), t0), t1) for t in times]
        values = self.edges.values(times)
        return [[(float(v[l]), float(v[r])) for l, r in self._gaps_at(self._locate(t))]
                for t, v in zip(times, values)]


def sweep_gaps(s: Scenario, grid: Optional[GridSpec] = None) -> GapSweep:
    """The exact gap sweep of a 1-D scenario; grid places event loci only."""
    return GapSweep(s, grid if grid is not None else grid_for_scenario(s))
