"""Scenario model: a disk domain watched by sensors on piecewise-linear tracks.

A scenario fixes the domain disk, the common sensing radius, the fence width,
the time base (interval or circle) and one track per sensor. Everything else
in the package is derived from these data, so scenarios are immutable and
hashable, and their JSON form is canonical (sorted keys, shortest round-trip
floats) to keep outputs byte-reproducible.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ScenarioError",
    "SensorTrack",
    "Scenario",
    "scenario_from_document",
    "scenario_to_document",
    "load_scenario",
    "save_scenario",
    "canonical_json",
    "positions_at",
    "builtin_scenario",
    "random_interval_scenario",
    "random_waypoint_scenario",
    "BUILTIN_NAMES",
]

TIME_SPAN = (0.0, 1.0)

Point = Tuple[float, ...]


class ScenarioError(ValueError):
    """Malformed scenario document or violated scenario invariant."""


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensorTrack:
    """Waypoints (t, position) with linear interpolation in between."""

    waypoints: Tuple[Tuple[float, Tuple[float, ...]], ...]

    @property
    def times(self) -> Tuple[float, ...]:
        return tuple(t for t, _ in self.waypoints)

    @property
    def points(self) -> Tuple[Tuple[float, ...], ...]:
        return tuple(p for _, p in self.waypoints)

    @cached_property
    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only float arrays of the waypoint times, shape (k,), and
        positions, shape (dim, k), built on first use."""
        times = np.array(self.times, dtype=float)
        points = np.array(self.points, dtype=float).T.copy()
        times.flags.writeable = points.flags.writeable = False
        return times, points


@dataclass(frozen=True)
class Scenario:
    """Domain disk plus sensor tracks over the unit time base."""

    dimension: int
    center: Tuple[float, ...]
    radius: float
    sensing_radius: float
    fence_width: float
    time_base: str
    tracks: Tuple[SensorTrack, ...]

    @property
    def sensor_count(self) -> int:
        return len(self.tracks)

    @cached_property
    def _hash(self) -> int:
        return hash((self.dimension, self.center, self.radius, self.sensing_radius,
                     self.fence_width, self.time_base, self.tracks))

    def __hash__(self) -> int:
        # Every cached table is looked up by scenario, and hashing the
        # tracks' nested tuples each time costs more than most lookups save.
        # The fields never change, so the hash is computed once.
        return self._hash

    def __getstate__(self) -> dict:
        # A str's hash depends on the interpreter's hash seed, so a pickled
        # scenario leaves its hash behind and computes it again.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _as_number(value: object, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{what} must be numeric")
    try:
        return float(value)  # type: ignore[arg-type]
    except OverflowError:
        return math.inf


def _as_point(value: object, dimension: int, what: str) -> Tuple[float, ...]:
    _require(isinstance(value, (list, tuple)), f"{what} must be a list of numbers")
    seq = list(value)  # type: ignore[arg-type]
    _require(len(seq) == dimension, f"{what} must have {dimension} coordinates")
    return tuple(_as_number(v, what) for v in seq)


def _require_finite(values: Iterable[float], what: str) -> None:
    _require(all(math.isfinite(v) for v in values), f"{what} must be finite")


def validate_scenario(s: Scenario) -> Scenario:
    """Check the scenario's invariants; every number must be finite."""
    _require(s.dimension in (1, 2), "dimension must be 1 or 2")
    _require(len(s.center) == s.dimension, "center must match the dimension")
    _require_finite(s.center, "domain center")
    _require_finite([s.radius], "domain radius")
    _require_finite([s.sensing_radius], "sensing radius")
    _require_finite([s.fence_width], "fence width")
    _require(s.radius > 0.0, "domain radius must be positive")
    _require(s.sensing_radius > 0.0, "sensing radius must be positive")
    _require(0.0 < s.fence_width < s.radius, "fence width must lie strictly between 0 and the radius")
    _require(s.time_base in ("interval", "circle"), "time base must be 'interval' or 'circle'")
    t0, t1 = TIME_SPAN
    for j, track in enumerate(s.tracks):
        _require(len(track.waypoints) >= 2, f"track {j} needs at least two waypoints")
        for t, p in track.waypoints:
            _require_finite([t, *p], f"track {j} waypoint")
        times = track.times
        _require(
            all(b > a for a, b in zip(times, times[1:])),
            f"track {j} waypoint times must be strictly increasing",
        )
        _require(times[0] == t0 and times[-1] == t1, f"track {j} must span the whole time base")
        for t, p in track.waypoints:
            _require(len(p) == s.dimension, f"track {j} waypoint dimension mismatch")
            d = math.dist(p, s.center)
            _require(d <= s.radius, f"track {j} waypoint at t={t} lies outside the domain disk")
        if s.time_base == "circle":
            _require(
                track.points[0] == track.points[-1],
                f"track {j} must close up on a circle time base",
            )
    return s


# ---------------------------------------------------------------------------
# JSON document form
# ---------------------------------------------------------------------------


def scenario_to_document(s: Scenario) -> dict:
    return {
        "dimension": s.dimension,
        "domain": {"center": list(s.center), "radius": s.radius},
        "sensing_radius": s.sensing_radius,
        "fence_width": s.fence_width,
        "time_base": s.time_base,
        "tracks": [[[t, list(p)] for t, p in tr.waypoints] for tr in s.tracks],
    }


def scenario_from_document(doc: object) -> Scenario:
    _require(isinstance(doc, dict), "scenario document must be a JSON object")
    d = dict(doc)  # type: ignore[arg-type]
    for key in ("dimension", "domain", "sensing_radius", "fence_width", "time_base", "tracks"):
        _require(key in d, f"scenario document is missing '{key}'")
    dim = d["dimension"]
    _require(isinstance(dim, int) and not isinstance(dim, bool), "dimension must be an integer")
    domain = d["domain"]
    _require(isinstance(domain, dict) and "center" in domain and "radius" in domain, "domain must have center and radius")
    _require(isinstance(d["tracks"], list), "tracks must be a list")
    tracks = []
    for j, raw in enumerate(d["tracks"]):
        _require(isinstance(raw, list), f"track {j} must be a list of waypoints")
        wps = []
        for wp in raw:
            _require(
                isinstance(wp, (list, tuple)) and len(wp) == 2,
                f"track {j} waypoints must be [t, position] pairs",
            )
            t, pos = wp
            wps.append((_as_number(t, f"track {j} waypoint time"),
                        _as_point(pos, dim if isinstance(dim, int) else 2, f"track {j} position")))
        tracks.append(SensorTrack(tuple(wps)))
    s = Scenario(
        dimension=dim,
        center=_as_point(domain["center"], dim, "domain center"),
        radius=_as_number(domain["radius"], "domain radius"),
        sensing_radius=_as_number(d["sensing_radius"], "sensing radius"),
        fence_width=_as_number(d["fence_width"], "fence width"),
        time_base=d["time_base"] if isinstance(d["time_base"], str) else "",
        tracks=tuple(tracks),
    )
    return validate_scenario(s)


def canonical_json(doc: object) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_scenario(path_or_text: str, *, is_text: bool = False) -> Scenario:
    if is_text:
        text = path_or_text
    else:
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario document is not valid JSON: {exc}") from exc
    return scenario_from_document(doc)


def save_scenario(s: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(scenario_to_document(s)))


# ---------------------------------------------------------------------------
# track evaluation
# ---------------------------------------------------------------------------


def _wrap_times(s: Scenario, times: np.ndarray) -> np.ndarray:
    t0, t1 = TIME_SPAN
    if s.time_base == "circle":
        span = t1 - t0
        return t0 + np.mod(times - t0, span)
    return times


def positions_at(s: Scenario, times: Sequence[float],
                 sensors: Optional[Sequence[int]] = None) -> np.ndarray:
    """Positions of sensors at the given times, shape (sensors, times, dim).

    sensors, when given, lists the track indices to evaluate, in the order
    of the result's first axis; by default every track is. Interval bases
    clamp outside queries to the span ends; circle bases wrap.
    """
    ts = _wrap_times(s, np.asarray(times, dtype=float))
    tracks = s.tracks if sensors is None else [s.tracks[j] for j in sensors]
    out = np.empty((len(tracks), ts.size, s.dimension), dtype=float)
    for j, track in enumerate(tracks):
        wt, wx = track.arrays
        for k in range(s.dimension):
            out[j, :, k] = np.interp(ts, wt, wx[k])
    return out


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------


def _ring(n: int, radius: float, phase: float = 0.0) -> List[Tuple[float, float]]:
    pts = []
    for k in range(n):
        a = phase + 2.0 * math.pi * k / n
        pts.append((radius * math.cos(a), radius * math.sin(a)))
    return pts


def _static(p: Tuple[float, float]) -> SensorTrack:
    return SensorTrack(((0.0, p), (1.0, p)))


def _line(p0: Tuple[float, float], p1: Tuple[float, float]) -> SensorTrack:
    return SensorTrack(((0.0, p0), (1.0, p1)))


def _scenario2(tracks: Iterable[SensorTrack], sensing_radius: float) -> Scenario:
    return validate_scenario(
        Scenario(
            dimension=2,
            center=(0.0, 0.0),
            radius=1.0,
            sensing_radius=sensing_radius,
            fence_width=0.12,
            time_base="interval",
            tracks=tuple(tracks),
        )
    )


def _split_scenario() -> Scenario:
    # Two static rings leave a central pocket; a sensor pair pinches it in two.
    tracks = [_static(p) for p in _ring(12, 0.45)]
    tracks += [_static(p) for p in _ring(16, 0.75)]
    tracks.append(_line((0.45, 0.0), (0.15, 0.0)))
    tracks.append(_line((-0.45, 0.0), (-0.15, 0.0)))
    return _scenario2(tracks, 0.22)


def _close_scenario() -> Scenario:
    # A central pocket small enough for one crossing sensor to cover whole,
    # so it is swept shut and later reopened.  The crossing path rides a
    # little above the axis; a mirror-symmetric path would pinch the pocket
    # into twin slivers that vanish at the same instant.
    tracks = [_static(p) for p in _ring(12, 0.26)]
    tracks += [_static(p) for p in _ring(12, 0.40)]
    tracks += [_static(p) for p in _ring(16, 0.75)]
    tracks.append(_line((0.40, 0.03), (-0.40, 0.03)))
    return _scenario2(tracks, 0.22)


def _annuli_scenario() -> Scenario:
    # A covered island, an outer sea, and a ring of sensors with one gap, so
    # the moat around the island starts as a single annulus.  A plug sensor
    # rides the ring from one gap shoulder to the other, never separating
    # from the wall it left, so the arrival pinch is the only event and it
    # splits the moat into two nested annuli.
    tracks = [_static((0.0, 0.0))]
    tracks += [_static(p) for p in _ring(28, 0.80)]
    for k in range(1, 15):
        a = 2.0 * math.pi * k / 16
        tracks.append(_static((0.41 * math.cos(a), 0.41 * math.sin(a))))
    depart = math.radians(330.0)
    arrive = math.radians(348.0)
    p0 = (0.41 * math.cos(depart), 0.41 * math.sin(depart))
    p1 = (0.41 * math.cos(arrive), 0.41 * math.sin(arrive))
    tracks.append(SensorTrack(((0.0, p0), (0.1, p0), (0.9, p1), (1.0, p1))))
    return _scenario2(tracks, 0.16)


def _empty_scenario() -> Scenario:
    return _scenario2([], 0.22)


def _full_scenario() -> Scenario:
    # Static lattice plus a rim ring; no point of the domain is ever uncovered.
    tracks = []
    step = 0.26
    for i in range(-3, 4):
        for j in range(-3, 4):
            p = (step * i, step * j)
            if math.hypot(*p) <= 0.99:
                tracks.append(_static(p))
    tracks += [_static(p) for p in _ring(20, 0.86)]
    return _scenario2(tracks, 0.22)


# Random scenarios are sampled from a small vocabulary of motifs.  Moving
# contacts are only safe when they close head-on along a grid axis: the
# contact channel then rasterizes as a straight run of cells, while an
# oblique near-tangency sheds a staircase of diagonal cells that face
# adjacency cannot keep connected.  All other separations, covered overlaps
# included, stay beyond a three-cell margin at the default grid so nothing
# else ever sits near tangency.

_RAND_R = 0.16
_RAND_MARGIN = 0.05
_RIM = 0.88  # inner edge of the fence collar for the unit disk domain


def _dwell_line(p0: Point, p1: Point, t0: float, t1: float) -> SensorTrack:
    return SensorTrack(((0.0, p0), (t0, p0), (t1, p1), (1.0, p1)))


def _orient(p: Point, swap: bool, mirror: int) -> Point:
    x, y = (p[1], p[0]) if swap else p
    return (mirror * x, y)


def _wall_tracks(rng: random.Random, t0: float, t1: float,
                 swap: bool, mirror: int) -> Tuple[List[SensorTrack], float]:
    """A collar-to-collar chain with one gap, sealed by an attached slider.

    Rim anchors sit exactly on the collar's inner circle so their seams
    cross it almost perpendicularly; a shallower anchor leaves a thin wedge
    against the collar that can rasterize into isolated cells.  The slider
    starts buried between the far gap shoulder and its neighbor, whose
    coverage swallows the parting lens, so the head-on seal against the
    near shoulder is the wall's only event.  Returns the tracks and the
    wall's center line offset.
    """
    r, m = _RAND_R, _RAND_MARGIN
    y0 = rng.uniform(-0.25, 0.25)
    x_r = math.sqrt(_RIM * _RIM - y0 * y0)
    clear = math.sqrt((_RIM - r - m) ** 2 - y0 * y0)
    s_right = rng.uniform(max(0.222, x_r - clear), 0.26)
    gap = rng.uniform(0.51, 0.54)
    x_l = x_r - s_right
    x1 = x_l - gap
    span = x1 + x_r
    n = max(1, round(span / 0.24))
    s = span / n
    if not 0.222 <= s <= 0.26:
        raise ScenarioError("wall spacing left the safe overlap band")
    pts = [(x_r, y0), (x_l, y0)] + [(x1 - k * s, y0) for k in range(n + 1)]
    tracks = [_static(_orient(p, swap, mirror)) for p in pts]
    back = rng.uniform(m, min(0.10, 2.0 * s - 0.37))
    depth = rng.uniform(m, min(0.12, 2.0 * r + 0.27 - gap))
    start = (x1 - back, y0)
    end = (x_l - 2.0 * r + depth, y0)
    tracks.append(_dwell_line(_orient(start, swap, mirror),
                              _orient(end, swap, mirror), t0, t1))
    return tracks, y0


def _pair_tracks(rng: random.Random, kind: str, center: Point, t0: float,
                 t1: float, swap: bool, mirror: int) -> List[SensorTrack]:
    """One static ball and one approaching (pinch) or departing (release)."""
    r, m = _RAND_R, _RAND_MARGIN
    d_apart = rng.uniform(2.0 * r + 2.0 * m, 0.46)
    d_joined = rng.uniform(2.0 * r - 3.0 * m, 2.0 * r - 1.2 * m)
    cx, cy = center
    a = (cx - d_apart / 2.0, cy)
    far = (cx + d_apart / 2.0, cy)
    near = (a[0] + d_joined, cy)
    p0, p1 = (far, near) if kind == "pinch" else (near, far)
    return [_static(_orient(a, swap, mirror)),
            _dwell_line(_orient(p0, swap, mirror),
                        _orient(p1, swap, mirror), t0, t1)]


def _random_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    m = _RAND_MARGIN
    r = _RAND_R
    placements: List[Tuple[Point, float]] = []
    strips: List[float] = []  # wall center lines, in oriented coordinates

    def fits(c: Point, radius: float) -> bool:
        if math.hypot(*c) + radius > _RIM - m:
            return False
        if any(abs(c[1] - y0) < radius + r + m for y0 in strips):
            return False
        return all(math.hypot(c[0] - pc[0], c[1] - pc[1]) >= radius + pr + m
                   for pc, pr in placements)

    swap = rng.random() < 0.5
    mirror = rng.choice((-1, 1))
    t0 = rng.uniform(0.1, 0.4)
    t1 = t0 + rng.uniform(0.3, 0.5)
    tracks: List[SensorTrack]
    if rng.random() < 0.5:
        tracks, y0 = _wall_tracks(rng, t0, t1, swap, mirror)
        strips.append(y0)
    else:
        kind = rng.choice(("pinch", "release"))
        for _ in range(100):
            c = (rng.uniform(-0.37, 0.37), rng.uniform(-0.37, 0.37))
            if fits(c, 0.23 + r):
                break
        else:
            raise ScenarioError(f"no room for the moving pair (seed {seed})")
        tracks = _pair_tracks(rng, kind, c, t0, t1, swap, mirror)
        placements.append((c, 0.23 + r))

    for _ in range(rng.randint(0, 2)):
        # Optional far statics enrich the fibers without adding events.  The
        # placement check runs in oriented coordinates, so candidates are
        # drawn there and mapped just before track construction.
        if rng.random() < 0.6:
            for _ in range(60):
                c = (rng.uniform(-0.67, 0.67), rng.uniform(-0.67, 0.67))
                if fits(c, r):
                    tracks.append(_static(_orient(c, swap, mirror)))
                    placements.append((c, r))
                    break
        else:
            s = rng.uniform(0.19, 0.26)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = (s / 2.0) * math.cos(angle), (s / 2.0) * math.sin(angle)
            for _ in range(60):
                c = (rng.uniform(-0.55, 0.55), rng.uniform(-0.55, 0.55))
                if fits(c, s / 2.0 + r):
                    for q in ((c[0] - dx, c[1] - dy), (c[0] + dx, c[1] + dy)):
                        tracks.append(_static(_orient(q, swap, mirror)))
                    placements.append((c, s / 2.0 + r))
                    break
    return _scenario2(tracks, r)


def random_interval_scenario(seed: int) -> Scenario:
    """Seeded 1d scenario: a chain of gaps, some sealed by sliding sensors.

    Movers only ever close the gap ahead of them (the gap behind widens),
    so no uncovered segment is born after the start and the closed-form
    class count is exact. Seal times are staggered to keep events apart.
    """
    rng = random.Random(seed)
    r, m = _RAND_R, _RAND_MARGIN
    for _ in range(200):
        edge = -_RIM
        centers: List[float] = []
        if rng.random() < 0.3:
            centers.append(edge - rng.uniform(m, 0.10) + r)
            edge = centers[0] + r
        for _ in range(rng.randint(2, 4)):
            edge += rng.uniform(2.0 * m, 0.30) + 2.0 * r
            centers.append(edge - r)
        tail = _RIM - edge
        if tail < 2.0 * m:
            continue
        if tail <= 0.30 and rng.random() < 0.5:
            break
        if tail - (2.0 * r + 2.0 * m) >= 2.0 * m:
            centers.append(_RIM - r - rng.uniform(2.0 * m, tail - 2.0 * r - 2.0 * m))
            break
    else:
        raise ScenarioError(f"no interval layout found (seed {seed})")

    movers: List[int] = []
    for i in sorted(rng.sample(range(len(centers)), rng.randint(0, 2))):
        if len(movers) == 2 or (movers and i - movers[-1] == 1):
            continue
        left_edge = centers[i - 1] + r if i else -_RIM
        if centers[i] - r - left_edge >= 2.0 * m:
            movers.append(i)

    windows = iter(((0.12, 0.40), (0.55, 0.85)))
    tracks = []
    for i, c in enumerate(centers):
        if i not in movers:
            tracks.append(_static((c,)))
            continue
        left_edge = centers[i - 1] + r if i else -_RIM
        gap = centers[i] - r - left_edge
        depth = rng.uniform(m, min(0.10, 2.0 * r - m) if i else 0.10)
        lo, hi = next(windows)
        t0 = rng.uniform(lo, lo + 0.08)
        t1 = rng.uniform(hi - 0.08, hi)
        tracks.append(_dwell_line((c,), (c - gap - depth,), t0, t1))
    return validate_scenario(
        Scenario(
            dimension=1,
            center=(0.0,),
            radius=1.0,
            sensing_radius=r,
            fence_width=0.12,
            time_base="interval",
            tracks=tuple(tracks),
        )
    )


def random_waypoint_scenario(seed: int, sensors: int, dimension: int) -> Scenario:
    """Seeded generic motion: each sensor runs through random waypoints.

    Every track has 2-4 waypoints, at times 0, 1 and uniform times between,
    at positions uniform in [-0.85, 0.85] (dimension 1) or in the disk of
    radius 0.85 (dimension 2). Sensing radius 0.15, fence 0.1, interval
    base. Nothing keeps events apart or gaps wider than a cell.
    """
    if dimension not in (1, 2):
        raise ScenarioError("dimension must be 1 or 2")
    rng = random.Random(seed)
    reach = 0.85

    def point() -> Point:
        if dimension == 1:
            return (rng.uniform(-reach, reach),)
        while True:
            p = (rng.uniform(-reach, reach), rng.uniform(-reach, reach))
            if math.hypot(*p) <= reach:
                return p

    tracks = []
    for _ in range(sensors):
        inner = sorted(rng.uniform(0.0, 1.0) for _ in range(rng.randint(0, 2)))
        times = [0.0] + inner + [1.0]
        tracks.append(SensorTrack(tuple((t, point()) for t in times)))
    return validate_scenario(Scenario(
        dimension=dimension,
        center=(0.0,) * dimension,
        radius=1.0,
        sensing_radius=0.15,
        fence_width=0.1,
        time_base="interval",
        tracks=tuple(tracks),
    ))


BUILTIN_NAMES = ("split", "close", "annuli", "empty", "full", "random")


def builtin_scenario(name: str, seed: int = 0) -> Scenario:
    """Named example scenarios; only 'random' consumes the seed."""
    if name == "split":
        return _split_scenario()
    if name == "close":
        return _close_scenario()
    if name == "annuli":
        return _annuli_scenario()
    if name == "empty":
        return _empty_scenario()
    if name == "full":
        return _full_scenario()
    if name == "random":
        return _random_scenario(seed)
    raise ScenarioError(f"unknown builtin scenario '{name}'")
