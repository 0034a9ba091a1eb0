"""Command line interface.

Exit codes: 0 on success (and agreement for `compare`), 1 when the analysis
itself fails, `compare` finds a disagreement or stdout is closed early, 2 for
bad input, a malformed command line included. Errors are reported as a JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

from .analysis import (DEFAULT_MAX_ELEMENTS, DEFAULT_MAX_WITNESSES,
                       DEFAULT_ORACLE_SAMPLES, _Direct, _event_doc, analyze,
                       analyze_boundary, analyze_oracle,
                       extract_boundary_data, verify_witness)
from .errors import EvasionError, KnobError, ResolutionError
from .limit import LimitError, inverse_limit
from .planar_homology import HomologyError
from .rasterize import RasterError, grid_for_scenario
from .render import render_scenario
from .scenario import (BUILTIN_NAMES, ScenarioError, builtin_scenario,
                       canonical_json, load_scenario, scenario_to_document)
from .zigzag import DEFAULT_SCAN_SAMPLES, DEFAULT_TOL, detect_events, interleave

__all__ = ["main"]

# Each knob's default and least valid value. tol must be finite and
# positive instead, and seed takes any integer.
_KNOBS: Dict[str, Tuple[object, Optional[int]]] = {
    "cells": (128, 9),  # more cells than the grid's two four-cell margins
    "fine_time_samples": (64, 2),
    "scan_samples": (DEFAULT_SCAN_SAMPLES, 2),
    "tol": (DEFAULT_TOL, None),
    "max_elements": (DEFAULT_MAX_ELEMENTS, 0),
    "max_witnesses": (DEFAULT_MAX_WITNESSES, 0),
    "time_samples": (DEFAULT_ORACLE_SAMPLES, 1),
    "seed": (0, None),
}


class UsageError(ValueError):
    """The command line does not parse (bad input)."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as UsageError instead of exiting."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


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
    p.add_argument("--config", default=None,
                   help="JSON file of option defaults (flags still win)")
    p.add_argument("--output", default=None, help="write the JSON result here")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("compare", help="run all modes and compare existence and cardinality")
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


def _checked(name: str, value: object) -> object:
    """The knob's value if it lies in its valid range; KnobError otherwise."""
    flag = "--" + name.replace("_", "-")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KnobError(f"{flag} must be a number, got {value!r}")
    if name == "tol":
        if not (math.isfinite(value) and value > 0.0):
            raise KnobError(f"{flag} must be a finite positive number, got {value}")
        return float(value)
    if not isinstance(value, int):
        raise KnobError(f"{flag} must be an integer, got {value!r}")
    least = _KNOBS[name][1]
    if least is not None and value < least:
        raise KnobError(f"{flag} must be at least {least}, got {value}")
    return value


class _Knobs:
    """Option resolution: explicit flag, then config file, then default.

    Every value is checked against its range before use, so a bad knob is
    reported as bad input (KnobError) wherever it came from.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config: Dict[str, object] = {}
        path = getattr(args, "config", None)
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ScenarioError("config file must hold a JSON object")
            unknown = sorted(set(loaded) - set(_KNOBS))
            if unknown:
                raise KnobError(f"config file names unknown knobs: {', '.join(unknown)}")
            self.config = loaded

    def get(self, name: str):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.config.get(name, _KNOBS[name][0])
        return _checked(name, value)


def _emit(doc: object, output: Optional[str]) -> None:
    text = canonical_json(doc)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _load(args: argparse.Namespace, knobs: _Knobs):
    source = args.source
    if source in BUILTIN_NAMES:
        return builtin_scenario(source, knobs.get("seed"))
    if source == "-":
        return load_scenario(sys.stdin.read(), is_text=True)
    return load_scenario(source)


def _grid(s, knobs: _Knobs):
    return grid_for_scenario(s, cells=knobs.get("cells"),
                             fine_time_samples=knobs.get("fine_time_samples"))


def _direct(s, knobs: _Knobs) -> _Direct:
    """The zigzag and witnesses that analyze's direct mode reads."""
    return _Direct(s, _grid(s, knobs), scan_samples=knobs.get("scan_samples"),
                   tol=knobs.get("tol"))


def _cmd_analyze(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    s = _load(args, knobs)
    report = analyze(
        s, mode=args.mode, grid=_grid(s, knobs),
        scan_samples=knobs.get("scan_samples"),
        tol=knobs.get("tol"),
        max_elements=knobs.get("max_elements"),
        max_witnesses=knobs.get("max_witnesses"),
        witnesses=not args.no_witnesses,
        time_samples=knobs.get("time_samples"),
    )
    _emit(report.to_document(), args.output)
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    s = _load(args, knobs)
    grid = _grid(s, knobs)
    events = detect_events(s, grid, scan_samples=knobs.get("scan_samples"),
                           tol=knobs.get("tol"))
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
    s = _load(args, knobs)
    direct = _direct(s, knobs)
    limres = inverse_limit(direct.diagram,
                           max_elements=knobs.get("max_elements"))
    if args.element is not None:
        element = _parse_element(args.element)
    elif limres.elements:
        element = list(limres.elements[0])
    else:
        raise EvasionError("the limit is empty; there is no element to witness")
    w = direct.witness(element)
    doc = {
        "element": [int(v) for v in w.element],
        "verified": verify_witness(s, w),
        "samples": [[float(t), [float(c) for c in p]] for t, p in w.samples],
    }
    _emit(doc, args.output)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    s = builtin_scenario(args.name, knobs.get("seed"))
    _emit(scenario_to_document(s), args.output)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    s = _load(args, knobs)
    grid = _grid(s, knobs)
    max_elements = knobs.get("max_elements")
    # The direct and boundary modes share one zigzag: one event scan, and
    # each fiber and cobordism rasterized and labeled once. Direct mode
    # sweeps a 1-D scenario exactly and scans nothing.
    direct = _direct(s, knobs)
    reports = {"direct": direct.report(max_elements=max_elements, witnesses=False)}
    if s.dimension == 2:
        data = extract_boundary_data(direct.source)
        reports["boundary"] = analyze_boundary(data, max_elements=max_elements)
    reports["oracle"] = analyze_oracle(s, grid, time_samples=knobs.get("time_samples"))
    exists = {mode: r.exists for mode, r in reports.items()}
    cardinality = {mode: r.limit_cardinality for mode, r in reports.items()}
    agree = len(set(exists.values())) == 1 and len(set(cardinality.values())) == 1
    doc = {"exists": exists, "limit_cardinality": cardinality, "agree": agree}
    _emit(doc, args.output)
    return 0 if agree else 1


def _cmd_render(args: argparse.Namespace) -> int:
    knobs = _Knobs(args)
    s = _load(args, knobs)
    grid = _grid(s, knobs)
    if args.times is not None:
        try:
            times = [float(part) for part in args.times.split(",")]
        except ValueError:
            times = []
        if not times or not all(math.isfinite(t) for t in times):
            raise ScenarioError(f"--times must be comma-separated finite numbers, "
                                f"got {args.times!r}")
    witnesses = ()
    if args.with_witness:
        direct = _direct(s, knobs)
        if args.times is None:
            # The zigzag's own samples are interleave's: no second scan.
            times = list(direct.source.samples)
        limres = inverse_limit(direct.diagram, max_elements=1)
        if limres.elements:
            w = direct.witness(limres.elements[0])
            if verify_witness(s, w):
                witnesses = (w,)
    elif args.times is None:
        events = detect_events(s, grid, scan_samples=knobs.get("scan_samples"),
                               tol=knobs.get("tol"))
        times = list(interleave(events, s.time_base))
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
    doc = {"error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, ResolutionError):
        doc["hint"] = exc.hint
    return canonical_json(doc)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ScenarioError, KnobError, FileNotFoundError,
            IsADirectoryError, json.JSONDecodeError) as exc:
        sys.stderr.write(_error_doc(exc))
        return 2
    except BrokenPipeError as exc:
        # The reader is gone. Python flushes stdout again at exit, so point
        # it at devnull first, or that flush fails too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.stderr.write(_error_doc(exc))
        return 1
    except (EvasionError, LimitError, RasterError, HomologyError) as exc:
        sys.stderr.write(_error_doc(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
