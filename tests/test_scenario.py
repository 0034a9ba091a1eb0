import dataclasses
import json
import math
import os
import pickle
import random
import subprocess
import sys

import pytest

from evasion_kit.scenario import (
    BUILTIN_NAMES,
    Scenario,
    ScenarioError,
    SensorTrack,
    builtin_scenario,
    canonical_json,
    load_scenario,
    positions_at,
    random_interval_scenario,
    random_waypoint_scenario,
    save_scenario,
    scenario_from_document,
    scenario_to_document,
    validate_scenario,
)


def _plain(dimension=2, time_base="interval", tracks=()):
    return Scenario(
        dimension=dimension,
        center=(0.0,) * dimension,
        radius=1.0,
        sensing_radius=0.2,
        fence_width=0.1,
        time_base=time_base,
        tracks=tuple(tracks),
    )


def _track(*waypoints):
    return SensorTrack(tuple((t, tuple(p)) for t, p in waypoints))


def test_builtin_names():
    assert BUILTIN_NAMES == ("split", "close", "annuli", "empty", "full", "random")
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name, seed=3)
        assert s.dimension == 2
        assert s.time_base == "interval"


def test_builtin_unknown_name():
    with pytest.raises(ScenarioError):
        builtin_scenario("nonesuch")


def test_builtin_is_pure():
    for name in BUILTIN_NAMES:
        a = canonical_json(scenario_to_document(builtin_scenario(name, seed=7)))
        b = canonical_json(scenario_to_document(builtin_scenario(name, seed=7)))
        assert a == b


def test_random_seeds_differ():
    docs = {canonical_json(scenario_to_document(builtin_scenario("random", seed=k)))
            for k in range(6)}
    assert len(docs) == 6


def _field_hash(s):
    """The hash of a scenario's fields, as a frozen dataclass computes it."""
    return hash(tuple(getattr(s, f.name) for f in dataclasses.fields(s)))


def test_scenario_hash_is_its_fields_hash():
    s = builtin_scenario("random", seed=3)
    twin = scenario_from_document(scenario_to_document(s))
    assert twin == s and twin is not s
    assert hash(twin) == hash(s) == _field_hash(s)
    wider = dataclasses.replace(s, sensing_radius=2.0 * s.sensing_radius)
    assert wider != s
    assert hash(wider) == _field_hash(wider) != hash(s)
    assert {s: 1, twin: 2, wider: 3} == {s: 2, wider: 3}


_HASH_WORKER = """
import pickle, sys
s = pickle.loads(sys.stdin.buffer.read())
sys.stdout.write(str(hash(s) == hash(tuple(getattr(s, f) for f in s.__dataclass_fields__))))
"""


def test_pickled_scenario_hashes_under_the_loading_seed():
    # A str's hash depends on the hash seed, so a pickled scenario must not
    # carry the hash it computed before pickling.
    s = builtin_scenario("split")
    hash(s)
    data = pickle.dumps(s)
    again = pickle.loads(data)
    assert again == s and hash(again) == hash(s)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _HASH_WORKER], input=data, env=env,
                              capture_output=True, check=True)
        assert proc.stdout == b"True"


def test_document_round_trip():
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name, seed=5)
        doc = scenario_to_document(s)
        again = scenario_to_document(scenario_from_document(doc))
        assert doc == again


def test_document_rejects_garbage():
    with pytest.raises(ScenarioError):
        scenario_from_document([1, 2, 3])
    doc = scenario_to_document(builtin_scenario("split"))
    del doc["tracks"]
    with pytest.raises(ScenarioError):
        scenario_from_document(doc)


def test_canonical_json_is_sorted_and_stable():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text == canonical_json(json.loads(text))


def test_save_and_load(tmp_path):
    s = builtin_scenario("annuli")
    path = tmp_path / "scene.json"
    save_scenario(s, str(path))
    loaded = load_scenario(str(path))
    assert scenario_to_document(loaded) == scenario_to_document(s)
    loaded_text = load_scenario(path.read_text(), is_text=True)
    assert scenario_to_document(loaded_text) == scenario_to_document(s)


def test_validate_rejects_bad_scenarios():
    ok = _track((0.0, (0.0, 0.0)), (1.0, (0.5, 0.0)))
    with pytest.raises(ScenarioError):
        validate_scenario(_plain(dimension=3))
    with pytest.raises(ScenarioError):
        validate_scenario(_plain(tracks=[_track((0.0, (0.0, 0.0)),)]))
    with pytest.raises(ScenarioError):
        validate_scenario(_plain(tracks=[_track((0.2, (0.0, 0.0)), (1.0, (0.0, 0.0)))]))
    with pytest.raises(ScenarioError):
        validate_scenario(_plain(tracks=[_track((0.0, (0.0, 0.0)), (1.0, (2.0, 0.0)))]))
    with pytest.raises(ScenarioError):
        validate_scenario(_plain(time_base="circle", tracks=[ok]))
    assert validate_scenario(_plain(tracks=[ok])) is not None


def _set_path(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("path", [
    ("domain", "radius"), ("sensing_radius",), ("fence_width",),
    ("domain", "center", 0), ("tracks", 0, 1, 0), ("tracks", 0, 1, 1, 1),
])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10 ** 400])
def test_document_rejects_non_finite_numbers(path, value):
    doc = scenario_to_document(builtin_scenario("split"))
    _set_path(doc, path, value)
    text = json.dumps(doc)
    with pytest.raises(ScenarioError):
        load_scenario(text, is_text=True)


def test_validate_rejects_non_finite_numbers():
    base = _plain(tracks=[_track((0.0, (0.0, 0.0)), (1.0, (0.0, 0.0)))])
    for change in ({"radius": math.inf}, {"sensing_radius": math.inf},
                   {"fence_width": math.nan}, {"center": (math.inf, 0.0)},
                   {"tracks": (_track((0.0, (math.nan, 0.0)), (1.0, (0.0, 0.0))),)}):
        with pytest.raises(ScenarioError, match="finite"):
            validate_scenario(dataclasses.replace(base, **change))


def test_positions_interpolate_linearly():
    s = validate_scenario(_plain(tracks=[
        _track((0.0, (0.0, 0.0)), (0.5, (0.4, 0.0)), (1.0, (0.4, 0.4))),
    ]))
    assert positions_at(s, [0.25])[0, 0] == pytest.approx((0.2, 0.0))
    assert positions_at(s, [0.75])[0, 0] == pytest.approx((0.4, 0.2))
    # interval bases clamp queries outside the span
    assert positions_at(s, [-1.0])[0, 0] == pytest.approx((0.0, 0.0))
    assert positions_at(s, [2.0])[0, 0] == pytest.approx((0.4, 0.4))


def test_positions_wrap_on_circle():
    s = validate_scenario(_plain(time_base="circle", tracks=[
        _track((0.0, (0.0, 0.0)), (0.5, (0.4, 0.0)), (1.0, (0.0, 0.0))),
    ]))
    assert positions_at(s, [1.25])[0, 0] == pytest.approx(positions_at(s, [0.25])[0, 0])
    assert positions_at(s, [-0.25])[0, 0] == pytest.approx(positions_at(s, [0.75])[0, 0])


def test_positions_at_shape():
    s = builtin_scenario("split")
    out = positions_at(s, [0.0, 0.5, 1.0])
    assert out.shape == (len(s.tracks), 3, 2)


@pytest.mark.parametrize("time_base", ["interval", "circle"])
def test_positions_at_sensor_subset(time_base):
    s = dataclasses.replace(builtin_scenario("split"), time_base=time_base)
    times = [-0.3, 0.0, 0.41, 1.0, 1.7]
    every = positions_at(s, times)
    for idx in ([], [3], [len(s.tracks) - 1, 0], list(range(len(s.tracks)))):
        got = positions_at(s, times, idx)
        assert got.shape == (len(idx), len(times), 2)
        assert (got == every[idx]).all()


def test_random_scenario_geometry():
    # no sensor may leave the domain disk at any waypoint
    for seed in range(10):
        s = builtin_scenario("random", seed=seed)
        for track in s.tracks:
            for _, p in track.waypoints:
                assert math.hypot(*p) <= s.radius + 1e-12
        assert s.sensing_radius == pytest.approx(0.16)


def test_random_interval_scenario_is_pure_and_1d():
    rng = random.Random(0)
    for seed in [rng.randrange(1000) for _ in range(5)]:
        a = random_interval_scenario(seed)
        b = random_interval_scenario(seed)
        assert a.dimension == 1
        assert scenario_to_document(a) == scenario_to_document(b)
        for track in a.tracks:
            for _, p in track.waypoints:
                assert abs(p[0]) <= a.radius


@pytest.mark.parametrize("dimension", [1, 2])
def test_random_waypoint_scenario_is_pure_and_in_reach(dimension):
    for seed in range(20):
        a = random_waypoint_scenario(seed, 4, dimension)
        assert scenario_to_document(a) == scenario_to_document(
            random_waypoint_scenario(seed, 4, dimension))
        assert (a.dimension, a.sensor_count, a.sensing_radius, a.fence_width,
                a.time_base) == (dimension, 4, 0.15, 0.1, "interval")
        for track in a.tracks:
            assert 2 <= len(track.waypoints) <= 4
            for _, p in track.waypoints:
                assert math.hypot(*p) <= 0.85
    # Fewer sensors draw a prefix of the same tracks.
    assert random_waypoint_scenario(3, 2, 1).tracks == random_waypoint_scenario(3, 5, 1).tracks[:2]
    with pytest.raises(ScenarioError):
        random_waypoint_scenario(0, 2, 3)
