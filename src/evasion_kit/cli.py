"""Command line interface.

Exit codes: 0 on success (and agreement for `compare`), 1 when the analysis
itself fails or `compare` finds a disagreement, 2 for bad input. Errors are
reported as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from .analysis import (DEFAULT_MAX_ELEMENTS, DEFAULT_MAX_WITNESSES,
                       DEFAULT_ORACLE_SAMPLES, _event_doc, analyze,
                       extract_witness, verify_witness)
from .errors import EvasionError, KnobError
from .limit import LimitError, inverse_limit
from .planar_homology import HomologyError
from .rasterize import RasterError, grid_for_scenario
from .render import render_scenario
from .scenario import (BUILTIN_NAMES, ScenarioError, builtin_scenario,
                       canonical_json, load_scenario, scenario_to_document)
from .zigzag import (DEFAULT_SCAN_SAMPLES, DEFAULT_TOL, build_zigzag,
                     detect_events, interleave)

__all__ = ["main"]

_KNOB_DEFAULTS: Dict[str, object] = {
    "cells": 128,
    "fine_time_samples": 64,
    "scan_samples": DEFAULT_SCAN_SAMPLES,
    "tol": DEFAULT_TOL,
    "max_elements": DEFAULT_MAX_ELEMENTS,
    "max_witnesses": DEFAULT_MAX_WITNESSES,
    "time_samples": DEFAULT_ORACLE_SAMPLES,
    "threads": None,
    "seed": 0,
}


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("source",
                   help="builtin scenario name (%s), a JSON file path, or '-' for stdin"
                        % ", ".join(BUILTIN_NAMES))
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the 'random' builtin (default 0)")


def _add_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cells", type=int, default=None, help="grid cells per axis")
    p.add_argument("--fine-time-samples", type=int, default=None,
                   help="time sub-samples per cobordism")
    p.add_argument("--scan-samples", type=int, default=None,
                   help="event scan samples over the time span")
    p.add_argument("--tol", type=float, default=None, help="event window tolerance")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for rasterization")
    p.add_argument("--config", default=None,
                   help="JSON file of option defaults (flags still win)")
    p.add_argument("--output", default=None, help="write the JSON result here")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evasion-kit",
        description="Evasion path analysis for mobile sensor networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="existence bound and witnesses")
    _add_source(p)
    _add_knobs(p)
    p.add_argument("--mode", choices=("direct", "boundary", "oracle"),
                   default="direct")
    p.add_argument("--max-elements", type=int, default=None,
                   help="cap on enumerated limit elements")
    p.add_argument("--max-witnesses", type=int, default=None,
                   help="cap on extracted witnesses")
    p.add_argument("--no-witnesses", action="store_true",
                   help="skip witness extraction")
    p.add_argument("--time-samples", type=int, default=None,
                   help="fine time samples (oracle mode)")

    p = sub.add_parser("events", help="list critical events")
    _add_source(p)
    _add_knobs(p)

    p = sub.add_parser("witness", help="extract one witness path")
    _add_source(p)
    _add_knobs(p)
    p.add_argument("--element", default=None,
                   help="comma-separated component labels, one per sample")
    p.add_argument("--max-elements", type=int, default=None)

    p = sub.add_parser("generate", help="emit a builtin scenario document")
    p.add_argument("name", choices=BUILTIN_NAMES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("compare", help="run all modes and compare existence")
    _add_source(p)
    _add_knobs(p)
    p.add_argument("--time-samples", type=int, default=None)

    p = sub.add_parser("render", help="write SVG slices")
    _add_source(p)
    _add_knobs(p)
    p.add_argument("--times", default=None,
                   help="comma-separated times (default: interleaved samples)")
    p.add_argument("--out-dir", default="renders")
    p.add_argument("--with-witness", action="store_true",
                   help="overlay the first verified witness path")

    return parser


class _Knobs:
    """Option resolution: explicit flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config: Dict[str, object] = {}
        path = getattr(args, "config", None)
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ScenarioError("config file must hold a JSON object")
            self.config = loaded

    def get(self, name: str):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.config:
            return self.config[name]
        return _KNOB_DEFAULTS[name]


def _emit(doc: object, output: Optional[str]) -> None:
    text = canonical_json(doc)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args: argparse.Namespace, knobs: _Knobs):
    source = args.source
    if source in BUILTIN_NAMES:
        return builtin_scenario(source, int(knobs.get("seed")))
    if source == "-":
        return load_scenario(sys.stdin.read(), is_text=True)
    return load_scenario(source)


def _grid(s, knobs: _Knobs):
    return grid_for_scenario(s, cells=int(knobs.get("cells")),
                             fine_time_samples=int(knobs.get("fine_time_samples")))


def _apply_threads(knobs: _Knobs) -> None:
    threads = knobs.get("threads")
    if threads is not None:
        os.environ["EVASION_KIT_THREADS"] = str(int(threads))


def _cmd_analyze(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    _apply_threads(knobs)
    s = _load(args, knobs)
    report = analyze(
        s, mode=args.mode, grid=_grid(s, knobs),
        scan_samples=int(knobs.get("scan_samples")),
        tol=float(knobs.get("tol")),
        max_elements=int(knobs.get("max_elements")),
        max_witnesses=int(knobs.get("max_witnesses")),
        witnesses=not args.no_witnesses,
        time_samples=int(knobs.get("time_samples")),
    )
    _emit(report.to_document(), args.output)
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    _apply_threads(knobs)
    s = _load(args, knobs)
    grid = _grid(s, knobs)
    events = detect_events(s, grid, scan_samples=int(knobs.get("scan_samples")),
                           tol=float(knobs.get("tol")))
    samples = interleave(events, s.time_base)
    doc = {
        "time_base": s.time_base,
        "count": len(events),
        "events": [_event_doc(e) for e in events],
        "sample_times": [float(t) for t in samples],
    }
    _emit(doc, args.output)
    return 0


def _parse_element(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ScenarioError(f"--element must be comma-separated integers, got {text!r}")


def _cmd_witness(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    _apply_threads(knobs)
    s = _load(args, knobs)
    grid = _grid(s, knobs)
    bundle = build_zigzag(s, grid, region="uncovered",
                          scan_samples=int(knobs.get("scan_samples")),
                          tol=float(knobs.get("tol")))
    limres = inverse_limit(bundle.diagram,
                           max_elements=int(knobs.get("max_elements")))
    if args.element is not None:
        element = _parse_element(args.element)
    elif limres.elements:
        element = list(limres.elements[0])
    else:
        raise EvasionError("the limit is empty; there is no element to witness")
    w = extract_witness(bundle, element)
    doc = {
        "element": [int(v) for v in w.element],
        "verified": verify_witness(s, w),
        "samples": [[float(t), [float(c) for c in p]] for t, p in w.samples],
    }
    _emit(doc, args.output)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    s = builtin_scenario(args.name, int(knobs.get("seed")))
    _emit(scenario_to_document(s), args.output)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    _apply_threads(knobs)
    s = _load(args, knobs)
    grid = _grid(s, knobs)
    modes = ["direct", "oracle"]
    if s.dimension == 2:
        modes.insert(1, "boundary")
    exists: Dict[str, bool] = {}
    cardinality: Dict[str, Optional[int]] = {}
    for mode in modes:
        report = analyze(
            s, mode=mode, grid=grid,
            scan_samples=int(knobs.get("scan_samples")),
            tol=float(knobs.get("tol")),
            max_elements=int(knobs.get("max_elements")),
            witnesses=False,
            time_samples=int(knobs.get("time_samples")),
        )
        exists[mode] = report.exists
        cardinality[mode] = report.limit_cardinality
    agree = len(set(exists.values())) == 1
    doc = {"exists": exists, "limit_cardinality": cardinality, "agree": agree}
    _emit(doc, args.output)
    return 0 if agree else 1


def _cmd_render(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    _apply_threads(knobs)
    s = _load(args, knobs)
    grid = _grid(s, knobs)
    if args.times is not None:
        try:
            times = [float(part) for part in args.times.split(",")]
        except ValueError:
            raise ScenarioError(f"--times must be comma-separated numbers, got {args.times!r}")
    else:
        events = detect_events(s, grid, scan_samples=int(knobs.get("scan_samples")),
                               tol=float(knobs.get("tol")))
        times = list(interleave(events, s.time_base))
    witnesses = ()
    if args.with_witness:
        bundle = build_zigzag(s, grid, scan_samples=int(knobs.get("scan_samples")),
                              tol=float(knobs.get("tol")))
        limres = inverse_limit(bundle.diagram, max_elements=1)
        if limres.elements:
            w = extract_witness(bundle, limres.elements[0])
            if verify_witness(s, w):
                witnesses = (w,)
    written = render_scenario(s, times, grid, out_dir=args.out_dir,
                              witnesses=witnesses)
    _emit({"written": written}, args.output)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "events": _cmd_events,
    "witness": _cmd_witness,
    "generate": _cmd_generate,
    "compare": _cmd_compare,
    "render": _cmd_render,
}


def _error_doc(exc: Exception) -> str:
    return canonical_json({"error": type(exc).__name__, "detail": str(exc)})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ScenarioError, KnobError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(_error_doc(exc))
        return 2
    except (EvasionError, LimitError, RasterError, HomologyError) as exc:
        sys.stderr.write(_error_doc(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
