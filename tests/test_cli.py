import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evasion_kit import analysis, cli, gapsweep, rasterize, zigzag
from evasion_kit.cli import main
from evasion_kit.errors import EvasionError, SimultaneousEventsError
from evasion_kit.scenario import (
    BUILTIN_NAMES,
    Scenario,
    SensorTrack,
    builtin_scenario,
    canonical_json,
    random_waypoint_scenario,
    scenario_from_document,
    scenario_to_document,
    validate_scenario,
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json(text):
    return json.loads(text)


def _child_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _merge_doc():
    mover = SensorTrack(((0.0, (0.05,)), (0.3, (0.05,)),
                         (0.8, (-0.16,)), (1.0, (-0.16,))))
    statics = [SensorTrack(((0.0, (x,)), (1.0, (x,)))) for x in (-0.45, 0.44)]
    s = validate_scenario(Scenario(
        dimension=1, center=(0.0,), radius=1.0, sensing_radius=0.16,
        fence_width=0.12, time_base="interval",
        tracks=tuple(statics + [mover]),
    ))
    return scenario_to_document(s)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_all_builtins(capsys):
    for name in BUILTIN_NAMES:
        code, out, err = _run(capsys, "generate", name)
        assert code == 0
        assert err == ""
        s = scenario_from_document(_json(out))
        assert s.dimension == 2


def test_generate_rejects_unknown_name(capsys):
    code, out, err = _run(capsys, "generate", "nonesuch")
    assert code == 2
    assert out == ""
    assert _json(err)["error"] == "UsageError"


def test_generate_is_deterministic(capsys):
    _, a, _ = _run(capsys, "generate", "random", "--seed", "5")
    _, b, _ = _run(capsys, "generate", "random", "--seed", "5")
    _, c, _ = _run(capsys, "generate", "random", "--seed", "6")
    assert a == b
    assert a != c


def test_generate_output_file(capsys, tmp_path):
    path = tmp_path / "scene.json"
    code, out, _ = _run(capsys, "generate", "split", "--output", str(path))
    assert code == 0
    assert out == ""
    assert _json(path.read_text())["dimension"] == 2


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_split(capsys):
    code, out, err = _run(capsys, "analyze", "split")
    assert code == 0
    doc = _json(out)
    assert doc["mode"] == "direct"
    assert doc["exists"] is True
    assert doc["limit_cardinality"] == 2
    assert len(doc["witnesses"]) == 2


def test_analyze_oracle_mode(capsys):
    code, out, _ = _run(capsys, "analyze", "close", "--mode", "oracle",
                        "--cells", "64", "--time-samples", "128")
    assert code == 0
    doc = _json(out)
    assert doc["mode"] == "oracle"
    assert doc["exists"] is False


def test_analyze_boundary_mode(capsys):
    code, out, _ = _run(capsys, "analyze", "split", "--mode", "boundary")
    assert code == 0
    doc = _json(out)
    assert doc["mode"] == "boundary"
    assert doc["limit_cardinality"] == 2


def test_analyze_reads_file_and_stdin(capsys, tmp_path, monkeypatch):
    doc = _merge_doc()
    path = tmp_path / "merge.json"
    path.write_text(canonical_json(doc))
    code, out, _ = _run(capsys, "analyze", str(path), "--no-witnesses")
    assert code == 0
    assert _json(out)["limit_cardinality"] == 3

    monkeypatch.setattr("sys.stdin", io.StringIO(canonical_json(doc)))
    code, out2, _ = _run(capsys, "analyze", "-", "--no-witnesses")
    assert code == 0
    assert _json(out2) == _json(out)


def test_analyze_repeat_runs_are_byte_identical(capsys, tmp_path):
    path = tmp_path / "merge.json"
    path.write_text(canonical_json(_merge_doc()))
    _, a, _ = _run(capsys, "analyze", str(path))
    _, b, _ = _run(capsys, "analyze", str(path))
    assert a == b


def test_analyze_knob_resolution(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cells": 64, "time_samples": 64}))
    _, out, _ = _run(capsys, "analyze", "split", "--mode", "oracle",
                     "--time-samples", "64")
    assert _json(out)["diagnostics"]["grid"]["shape"] == [128, 128]
    _, out, _ = _run(capsys, "analyze", "split", "--mode", "oracle",
                     "--config", str(config))
    assert _json(out)["diagnostics"]["grid"]["shape"] == [64, 64]
    _, out, _ = _run(capsys, "analyze", "split", "--mode", "oracle",
                     "--config", str(config), "--cells", "48")
    assert _json(out)["diagnostics"]["grid"]["shape"] == [48, 48]


# ---------------------------------------------------------------------------
# events and witness
# ---------------------------------------------------------------------------


def test_events_split(capsys):
    code, out, _ = _run(capsys, "events", "split")
    assert code == 0
    doc = _json(out)
    assert doc["count"] == 1
    (event,) = doc["events"]
    assert event["type_uncovered"] == "D"
    assert len(event["locus"]) == 2
    assert doc["sample_times"] == [0.0, 1.0]


def test_witness_auto_element(capsys):
    code, out, _ = _run(capsys, "witness", "split")
    assert code == 0
    doc = _json(out)
    assert doc["element"] == [1, 1]
    assert doc["verified"] is True
    assert doc["samples"][0][0] == 0.0


def test_witness_chosen_element(capsys):
    code, out, _ = _run(capsys, "witness", "split", "--element", "1,2")
    assert code == 0
    assert _json(out)["element"] == [1, 2]


def test_witness_1d_is_the_direct_reports_path(capsys, tmp_path):
    # A 1-D witness follows the sweep's gap midpoints, the path analyze
    # reports for the same element.
    path = tmp_path / "merge.json"
    path.write_text(canonical_json(_merge_doc()))
    code, out, _ = _run(capsys, "witness", str(path))
    assert code == 0
    doc = _json(out)
    assert doc["verified"] is True
    _, report, _ = _run(capsys, "analyze", str(path))
    first = _json(report)["witnesses"][0]
    assert (doc["element"], doc["samples"]) == (first["element"], first["samples"])


def test_witness_empty_limit_fails(capsys):
    code, out, err = _run(capsys, "witness", "close")
    assert code == 1
    assert out == ""
    assert _json(err)["error"] == "EvasionError"


def test_witness_element_naming_a_missing_component_fails(capsys, tmp_path):
    # Label 0, the covered cells, names no component, in any entry, and
    # neither does a label past the fiber's count; in 1-D as in 2-D.
    path = tmp_path / "merge.json"
    path.write_text(canonical_json(_merge_doc()))
    for source, element in (("split", "0,1"), ("split", "1,0"), ("split", "3,1"),
                            (str(path), "0,1"), (str(path), "1,0"), (str(path), "1,4")):
        code, out, err = _run(capsys, "witness", source, "--element", element)
        assert code == 1
        assert out == ""
        assert _json(err) == {"error": "WitnessError",
                              "detail": "element names a missing component"}


def test_witness_bad_element_text(capsys):
    code, _, err = _run(capsys, "witness", "split", "--element", "1;2")
    assert code == 2
    assert _json(err)["error"] == "ScenarioError"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_agreement(capsys):
    code, out, _ = _run(capsys, "compare", "close", "--cells", "96")
    assert code == 0
    doc = _json(out)
    assert doc["agree"] is True
    assert doc["exists"] == {"direct": False, "boundary": False, "oracle": False}


def test_compare_disagreement_on_unbounded_pocket(capsys):
    # no sensors at all: the boundary mode is blind and dissents
    code, out, _ = _run(capsys, "compare", "empty", "--cells", "96")
    assert code == 1
    doc = _json(out)
    assert doc["agree"] is False
    assert doc["exists"]["direct"] is True
    assert doc["exists"]["boundary"] is False


def _sub_cell_gap_doc(c0):
    """A gap (c0 - 0.001, c0 + 0.001) open all the time, between cell centers."""
    r = 0.22
    statics = (-0.8, -0.5, 0.5, 0.8, c0 - (0.001 + r), c0 + (0.001 + r))
    return scenario_to_document(validate_scenario(Scenario(
        dimension=1, center=(0.0,), radius=1.0, sensing_radius=r, fence_width=0.12,
        time_base="interval",
        tracks=tuple(SensorTrack(((0.0, (x,)), (1.0, (x,)))) for x in statics))))


@pytest.mark.parametrize("c0", [0.0, 0.003, 0.0041, 0.0067])
def test_compare_flags_the_oracle_missing_a_sub_cell_gap(capsys, tmp_path, c0):
    # Direct mode finds the gap exactly; the raster oracle samples cell
    # centers only and misses it, so the modes disagree out loud.
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(_sub_cell_gap_doc(c0)))
    code, out, _ = _run(capsys, "compare", str(path))
    assert code == 1
    assert _json(out)["exists"] == {"direct": True, "oracle": False}


# The document each mode gives when it runs its own event scan.
_SPLIT_COMPARE = """{
  "agree": true,
  "exists": {
    "boundary": true,
    "direct": true,
    "oracle": true
  },
  "limit_cardinality": {
    "boundary": 2,
    "direct": 2,
    "oracle": 2
  }
}
"""


def _count_scans(monkeypatch):
    """Record every detect_events and sweep_gaps call, by name."""
    calls = []
    for name, module, users in (("detect_events", zigzag, (cli, zigzag, analysis)),
                                ("sweep_gaps", gapsweep, (gapsweep, analysis))):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for user in users:
            monkeypatch.setattr(user, name, counted)
    return calls


def test_compare_scans_once(capsys, monkeypatch):
    calls = _count_scans(monkeypatch)
    code, out, _ = _run(capsys, "compare", "split")
    assert code == 0
    assert calls == ["detect_events"]
    assert out == _SPLIT_COMPARE


def _record(monkeypatch, name, module, users):
    """Record every call of module.name made from users, as (args, result)."""
    seen = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append((args, out))
        return out

    for user in users:
        monkeypatch.setattr(user, name, recorded)
    return seen


def test_compare_rasterizes_and_labels_each_complex_once(capsys, monkeypatch):
    # Direct and boundary modes read one zigzag: its fibers are rasterized
    # in one call, each span's cobordism once, and each cobordism's
    # uncovered stack is labeled once.
    fibers = _record(monkeypatch, "rasterize_fibers", rasterize, (rasterize, zigzag))
    cobordisms = _record(monkeypatch, "rasterize_cobordism", rasterize, (zigzag, analysis))
    graphs = _record(monkeypatch, "stack_graph", rasterize, (rasterize, analysis))
    code, out, _ = _run(capsys, "compare", "split")
    assert code == 0
    assert out == _SPLIT_COMPARE
    assert len(fibers) == 1
    # split has one event, so one span.
    assert [args[1] for args, _ in cobordisms] == [(0.0, 1.0)]
    for _, cob in cobordisms:
        labeled = [args for args, _ in graphs if np.may_share_memory(args[0], cob.uncovered)]
        assert len(labeled) == 1


def test_compare_sweeps_a_1d_scenario_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "merge.json"
    path.write_text(canonical_json(_merge_doc()))
    calls = _count_scans(monkeypatch)
    code, out, _ = _run(capsys, "compare", str(path))
    assert code == 0
    assert calls == ["sweep_gaps"]
    assert _json(out)["limit_cardinality"] == {"direct": 3, "oracle": 3}


def test_compare_flags_a_cardinality_disagreement(capsys, tmp_path):
    # Both modes find a path, but the oracle's raster joins two of direct
    # mode's classes; agreement needs the counts to match too.
    path = tmp_path / "waypoints.json"
    path.write_text(canonical_json(scenario_to_document(random_waypoint_scenario(79, 3, 1))))
    code, out, _ = _run(capsys, "compare", str(path))
    assert code == 1
    doc = _json(out)
    assert doc["exists"] == {"direct": True, "oracle": True}
    assert doc["limit_cardinality"] == {"direct": 2, "oracle": 1}
    assert doc["agree"] is False


def test_compare_counts_pockets_behind_a_thin_wall(capsys, tmp_path):
    # Most of this scenario's sample fibers hold pockets that a covered wall
    # one cell thick, or a diagonal pinch, keeps apart; boundary mode counts
    # them apart and agrees with the other two modes.
    path = tmp_path / "waypoints.json"
    path.write_text(canonical_json(scenario_to_document(random_waypoint_scenario(8, 3, 2))))
    code, out, _ = _run(capsys, "compare", str(path))
    assert code == 0
    doc = _json(out)
    assert doc["limit_cardinality"] == {"boundary": 2, "direct": 2, "oracle": 2}
    assert doc["agree"] is True


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_explicit_times(capsys, tmp_path):
    out_dir = tmp_path / "frames"
    code, out, _ = _run(capsys, "render", "split", "--times", "0,1",
                        "--out-dir", str(out_dir), "--cells", "64")
    assert code == 0
    written = _json(out)["written"]
    assert len(written) == 2
    for path in written:
        text = Path(path).read_text()
        assert text.startswith("<svg")


def test_render_1d_with_witness(capsys, monkeypatch, tmp_path):
    path = tmp_path / "merge.json"
    path.write_text(canonical_json(_merge_doc()))
    calls = _count_scans(monkeypatch)
    code, out, _ = _run(capsys, "render", str(path), "--with-witness",
                        "--out-dir", str(tmp_path / "frames"))
    assert code == 0
    # The frames are drawn at the witness zigzag's own samples: one sweep.
    assert calls == ["sweep_gaps"]
    written = _json(out)["written"]
    assert len(written) == 2
    assert all(Path(p).read_text().count("<polyline") == 1 for p in written)


def test_render_2d_with_witness_scans_once(capsys, monkeypatch, tmp_path):
    calls = _count_scans(monkeypatch)
    code, out, _ = _run(capsys, "render", "split", "--with-witness",
                        "--out-dir", str(tmp_path / "frames"))
    assert code == 0
    assert calls == ["detect_events"]
    # One event: a frame at each end of the span.
    assert len(_json(out)["written"]) == 2


def test_render_bad_times(capsys, tmp_path):
    # A time that is not a finite number is bad input, and nothing is written.
    for times in ("zero", "nan", "inf", "0.5,nan", "0.2,-inf"):
        code, _, err = _run(capsys, "render", "split", "--times", times,
                            "--out-dir", str(tmp_path))
        assert code == 2
        assert _json(err)["error"] == "ScenarioError"
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("knob", [("--scan-samples", "1"), ("--tol", "0"),
                                  ("--tol", "-1"), ("--tol", "nan"),
                                  ("--cells", "4"), ("--fine-time-samples", "1")])
def test_bad_scan_knob_is_input_error(capsys, knob):
    code, out, err = _run(capsys, "events", "split", *knob)
    assert code == 2
    assert out == ""
    assert _json(err)["error"] == "KnobError"


def _static_doc(statics, movers):
    """A 1-D scenario document: static sensors plus the given moving tracks."""
    tracks = [SensorTrack(((0.0, (x,)), (1.0, (x,)))) for x in statics]
    s = validate_scenario(Scenario(
        dimension=1, center=(0.0,), radius=1.0, sensing_radius=0.16,
        fence_width=0.12, time_base="interval", tracks=tuple(tracks + movers),
    ))
    return scenario_to_document(s)


# A mover closes the middle gap at t ~ 0.233 and opens it again at ~ 0.267,
# between two scan samples when there are only two scan steps; the 1-D
# sweep finds both crossings exactly whatever the scan.
_BLINK = _static_doc((-0.25, 0.25), [SensorTrack((
    (0.0, (0.25,)), (0.2, (0.25,)), (0.25, (0.0,)), (0.3, (0.25,)), (1.0, (0.25,))))])
# Mirror-image movers seal two gaps at the same exact instant.
_MIRROR = _static_doc((-0.45, 0.45), [
    SensorTrack(((0.0, (0.08,)), (1.0, (0.14,)))),
    SensorTrack(((0.0, (-0.08,)), (1.0, (-0.14,))))])


def _close_blink_doc():
    """The close builtin with its crossing sensor sped up, so the pocket
    closes and reopens within [0.2, 0.3], inside one of two scan steps."""
    s = builtin_scenario("close")
    crossing = SensorTrack(((0.0, (0.40, 0.03)), (0.2, (0.40, 0.03)),
                            (0.3, (-0.40, 0.03)), (1.0, (-0.40, 0.03))))
    return scenario_to_document(validate_scenario(
        dataclasses.replace(s, tracks=s.tracks[:-1] + (crossing,))))


def _mirror_2d_doc():
    """Mirror-image movers fuse with their static partners at one instant,
    which no finer grid separates."""
    def static(p):
        return SensorTrack(((0.0, p), (1.0, p)))
    movers = [SensorTrack(((0.0, (x, 0.0)), (1.0, (1.75 * x, 0.0)))) for x in (-0.2, 0.2)]
    return scenario_to_document(validate_scenario(Scenario(
        dimension=2, center=(0.0, 0.0), radius=1.0, sensing_radius=0.16,
        fence_width=0.12, time_base="interval",
        tracks=(static((-0.6, 0.0)), static((0.6, 0.0)), *movers))))


_SHARED_INSTANT = "perturb the scenario: two transitions share one instant"


@pytest.mark.parametrize("doc,knobs,error,hint", [
    (_close_blink_doc(), ("--scan-samples", "2"), "ResolutionError", "raise --scan-samples"),
    pytest.param(_mirror_2d_doc(), (), "SimultaneousEventsError", _SHARED_INSTANT,
                 id="mirror"),
    pytest.param(_mirror_2d_doc(), ("--cells", "256"), "SimultaneousEventsError",
                 _SHARED_INSTANT, id="mirror-cells-256"),
])
def test_resolution_errors_name_a_knob(capsys, tmp_path, doc, knobs, error, hint):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "analyze", str(path), *knobs)
    assert code == 1
    assert out == ""
    assert _json(err) == {"error": error, "detail": _json(err)["detail"], "hint": hint}


@pytest.mark.parametrize("knobs", [(), ("--scan-samples", "2"), ("--cells", "256")])
def test_1d_answers_exactly_whatever_the_scan(capsys, tmp_path, knobs):
    # The blink at two scan steps and the mirrored seals at one instant
    # raised resolution errors on the raster scan; the sweep answers both.
    for doc, types, cardinality in ((_BLINK, ["D", "N"], 2), (_MIRROR, ["D", "D"], 2)):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = _run(capsys, "analyze", str(path), *knobs)
        assert code == 0
        report = _json(out)
        events = report["diagnostics"]["events"]
        assert [e["type_uncovered"] for e in events] == types
        assert report["limit_cardinality"] == cardinality
        assert len(report["witnesses"]) == cardinality
    assert events[0]["time"] == events[1]["time"] == pytest.approx(5.0 / 6.0)
    assert events[0]["locus"] != events[1]["locus"]


def test_raster_zigzag_of_shared_instant_is_a_typed_error():
    # The mirrored seals share one window and so one span: the raster zigzag
    # cannot track two events in it, and says so as a resolution failure
    # (exit 1), not as a malformed call.
    with pytest.raises(SimultaneousEventsError, match="2 events share the span"):
        zigzag.build_zigzag(scenario_from_document(_MIRROR))
    assert issubclass(SimultaneousEventsError, EvasionError)


def test_blink_resolves_at_default_scan(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_BLINK))
    code, out, _ = _run(capsys, "events", str(path))
    assert code == 0
    assert [e["type_uncovered"] for e in _json(out)["events"]] == ["D", "N"]


@pytest.mark.parametrize("config", [{"cells": "abc"}, {"tol": "small"},
                                    {"scan_samples": 2.5}, {"seed": True},
                                    {"cells": None}, {"cell": 48},
                                    {"threads": 2}])
def test_bad_config_knob_is_input_error(capsys, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = _run(capsys, "events", "random", "--config", str(path))
    assert code == 2
    assert out == ""
    assert _json(err)["error"] == "KnobError"


def test_bad_oracle_time_samples_is_input_error(capsys):
    code, out, err = _run(capsys, "analyze", "split", "--mode", "oracle",
                          "--time-samples", "-1")
    assert code == 2
    assert out == ""
    assert _json(err)["error"] == "KnobError"


def test_boundary_mode_on_1d_is_input_error(capsys, tmp_path):
    path = tmp_path / "merge.json"
    path.write_text(canonical_json(_merge_doc()))
    code, out, err = _run(capsys, "analyze", str(path), "--mode", "boundary")
    assert code == 2
    assert out == ""
    assert _json(err)["error"] == "KnobError"


def test_infinite_radius_is_input_error(capsys, tmp_path):
    doc = _merge_doc()
    doc["domain"]["radius"] = float("inf")
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text()
    code, out, err = _run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert _json(err)["error"] == "ScenarioError"


@pytest.mark.parametrize("argv", [("analyze", "split", "--threads", "2"),
                                  ("analyze", "split", "--cells", "abc"),
                                  ("analyze", "split", "--bogus"),
                                  ("events",), ()])
def test_malformed_command_line_is_input_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert _json(err)["error"] == "UsageError"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "-h"])
    assert exc.value.code == 0
    assert "--cells" in capsys.readouterr().out


def test_closed_stdout_is_json_error_without_traceback():
    # stdout stays block-buffered, as it is by default, so the short document
    # reaches the pipe only when the program flushes it.
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "evasion_kit.cli", "generate", "empty"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert _json(proc.stderr)["error"] == "BrokenPipeError"
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# Each asks numpy for an array of petabytes, which it refuses at once; a
# size it could allocate would fill the host's memory first.
_PETABYTES = "1000000000000000"


@pytest.mark.parametrize("argv", [
    ("events", "split", "--cells", _PETABYTES),
    ("analyze", "split", "--fine-time-samples", _PETABYTES),
    ("analyze", "split", "--mode", "oracle", "--time-samples", _PETABYTES),
], ids=["cells", "fine-time-samples", "time-samples"])
def test_out_of_memory_is_json_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    doc = _json(err)
    assert doc == {"error": "MemoryError", "detail": doc["detail"],
                   "hint": "lower --cells, --fine-time-samples or --time-samples"}
    assert "PiB" in doc["detail"]


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = _run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == 2
    assert _json(err)["error"] == "FileNotFoundError"


def test_invalid_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "analyze", str(path))
    assert code == 2
    assert _json(err)["error"] == "ScenarioError"


def test_malformed_scenario_is_input_error(capsys, tmp_path):
    doc = _merge_doc()
    doc["tracks"][0][0][1] = [5.0]
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "analyze", str(path))
    assert code == 2
    assert _json(err)["error"] == "ScenarioError"
