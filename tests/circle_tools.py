"""Circle-base forms of interval scenarios, for the metamorphic phase-shift tests."""

import dataclasses

from evasion_kit.scenario import SensorTrack, positions_at, validate_scenario


def closed(s):
    """The scenario on a circle base, each track closed by its first point."""
    return dataclasses.replace(s, time_base="circle", tracks=tuple(
        SensorTrack(track.waypoints[:-1] + ((1.0, track.points[0]),))
        for track in s.tracks))


def phase_shifted(s, delta):
    """The circle scenario run delta later: p'(t) = p(t - delta mod 1)."""
    tracks = []
    for track in s.tracks:
        at_zero = tuple(positions_at(dataclasses.replace(s, tracks=(track,)), [-delta])[0, 0])
        inner = sorted(((t + delta) % 1.0, p) for t, p in track.waypoints[:-1]
                       if 0.0 < (t + delta) % 1.0 < 1.0)
        tracks.append(SensorTrack(((0.0, at_zero), *inner, (1.0, at_zero))))
    return validate_scenario(dataclasses.replace(s, tracks=tuple(tracks)))
