"""Run one benchmark workload from outside the program and report its metrics.

    python3 perfbench/run.py --workload certify --seed 7 --seconds 55 --trace 0

With --trace 0 the run measures the end-to-end metrics with nothing
installed in the program. Between scenarios it times a fixed reference
kernel (kernel.py) and reports scenario times in ref_s, seconds rescaled by
the kernel's speed at that moment, so most of the host's speed drift cancels
out. With --trace 1 it runs each scenario twice, once plain and once with
spans around the public functions (spans.py), and reports the per-layer
metrics. Either way every answer is checked against reference.json and the
checks in workloads.py; a raise or a wrong answer is a failed operation.
The last line of standard output is the result as JSON; a fuller record,
with report digests and the environment, is written to perfbench/out/.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import kernel
from spans import Tracer, per_layer_spec
from workloads import (WORKLOADS, import_program, load_reference, make_scenario,
                       report_digests)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 7
TAIL_BEYOND = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(ek) -> dict:
    import numpy
    import scipy
    thread_count = getattr(ek.rasterize, "thread_count", None)
    return {
        "thread_count": thread_count() if callable(thread_count) else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "load": "one process, closed loop, one scenario at a time",
    }


def measure_setup(name: str) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), name],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def tail(samples: list) -> tuple:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples above it; with too few samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n


class Run:
    """Scenario loop shared by the plain and the traced run."""

    def __init__(self, ek, workload, seed: int):
        self.ek = ek
        self.w = workload
        self.seed = seed
        self.reference = load_reference()
        self.inputs = {}
        for key in workload.pool:
            s = make_scenario(ek, key)
            self.inputs[key] = (s, workload.part_of[key].grid(ek, s))
        # Bound before any tracer exists, so checks never appear in spans.
        self.verify_witness = ek.analysis.verify_witness
        self.records = []

    def one(self, key: str, before=None, after=None) -> dict:
        """Run and check one scenario; before/after bracket the timed calls."""
        s, grid = self.inputs[key]
        part = self.w.part_of[key]
        rec = {"key": key}
        if before is not None:
            before()
        t0 = time.perf_counter()
        try:
            facts, reports, objects = part.calls(self.ek, s, grid)
        except Exception as exc:  # a raise is a failed operation, not a crash
            rec["problems"] = [f"raised {type(exc).__name__}: {exc}"]
            rec["traceback"] = traceback.format_exc()
            return rec
        finally:
            rec["seconds"] = time.perf_counter() - t0
            if after is not None:
                after()
        rec["problems"] = part.check(key, facts, objects, s, self.reference,
                                     self.verify_witness)
        rec["digests"] = report_digests(self.ek, reports)
        return rec


def run_plain(run: Run, seconds: float, setup: list) -> float:
    """Whole passes over the pool until --seconds have passed and the first
    pass is done. The reference kernel is timed between scenarios, so each
    record holds the kernel times just before and just after it. Set-up is
    timed SETUP_REPEATS times, spread evenly over the run, so that its median
    samples the host's speed across the run rather than at one moment."""
    kernel.run()  # warm-up: the first call pays lazy set-up in numpy and scipy
    start = time.perf_counter()
    deadline = start + seconds
    next_setup = start
    kernel_s = None
    for keys in run.w.passes(run.seed):
        for key in keys:
            now = time.perf_counter()
            if now >= deadline and len(run.records) >= len(keys) \
                    and len(setup) >= SETUP_REPEATS:
                return now - start
            if now >= next_setup and len(setup) < SETUP_REPEATS:
                setup.append(measure_setup(run.w.name))
                next_setup += seconds / SETUP_REPEATS
                kernel_s = None
            if kernel_s is None:
                kernel_s = kernel.run()
            rec = run.one(key)
            rec["kernel_s"] = [kernel_s]
            kernel_s = kernel.run()
            rec["kernel_s"].append(kernel_s)
            run.records.append(rec)


def run_traced(run: Run, seconds: float):
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    plain = []
    traced = []
    i = 0
    for keys in run.w.passes(run.seed):
        for key in keys:
            if time.perf_counter() >= deadline and i:
                return tracer, i, sum(traced), sum(plain)
            first = run.one(key)
            second = run.one(key, before=lambda: tracer.open_scenario(i),
                             after=tracer.close_scenario)
            plain.append(first["seconds"])
            traced.append(second["seconds"])
            run.records.extend((first, second))
            i += 1


def digest_table(records: list) -> tuple:
    """Digests per scenario key, and how many repeats disagreed with the first."""
    table = {}
    changed = 0
    for rec in records:
        d = rec.get("digests")
        if d is None:
            continue
        if rec["key"] not in table:
            table[rec["key"]] = d
        elif table[rec["key"]] != d:
            changed += 1
    return table, changed


END_TO_END_UNITS = {"setup_s": "s", "scenarios_per_ref_s": "1/ref_s",
                    "scenario_p50_ref_s": "ref_s", "scenario_p90_ref_s": "ref_s",
                    "peak_rss_mb": "MiB"}


def end_to_end(run: Run, setup: list, wall: float, record: dict) -> dict:
    """The end-to-end metrics of a plain run; raw seconds go into record.

    Each scenario's latency is rescaled by the reference kernel timed just
    before and just after it: ref_s = s * NOMINAL_S / mean(kernel times).
    A scenario of the pool counts once, with its latency averaged over the
    times the run measured it, so every seed's figures describe the same
    mix of work.
    """
    used = [r for r in run.records if not r["problems"]]
    # With every scenario failed, the failed runs' times still give a result.
    used = used or run.records
    per_key = {}
    for r in used:
        ref_s = r["seconds"] * kernel.NOMINAL_S / statistics.fmean(r["kernel_s"])
        per_key.setdefault(r["key"], []).append(ref_s)
    pool = sorted(statistics.fmean(v) for v in per_key.values())
    completed = sum(1 for r in run.records if not r["problems"])
    tail_s, tail_pct = tail([r["seconds"] for r in used])
    record.update(setup_samples=setup, wall_s=wall,
                  scenario_ref_s={k: statistics.fmean(v) for k, v in per_key.items()},
                  raw={"scenarios_per_s": completed / wall,
                       "scenario_p50_s": statistics.median(r["seconds"] for r in used),
                       "scenario_tail_s": tail_s},
                  kernel_median_s=statistics.median(r["kernel_s"][0] for r in run.records),
                  tail_percentile=tail_pct, latency_samples=len(used))
    return {
        "setup_s": statistics.median(setup),
        "scenarios_per_ref_s": len(pool) / sum(pool),
        "scenario_p50_ref_s": statistics.median(pool),
        "scenario_p90_ref_s": statistics.quantiles(pool, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.pop("EVASION_KIT_THREADS", None)
    try:
        ek = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(ek)}
    notes = []

    if args.trace:
        run = Run(ek, w, args.seed)
        tracer, scenarios, traced_s, plain_s = run_traced(run, args.seconds)
        metrics = tracer.metrics(scenarios, traced_s, plain_s)
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        record.update(trace_missing=tracer.missing, spans=tracer.spans)
        notes.append(f"trace.missing: {tracer.missing}")
        top = tracer.largest_under("analysis.analyze_direct")
        if top:
            notes.append("largest inclusive spans under analysis.analyze_direct: " + ", ".join(
                f"{name} {s / scenarios:.4g} s/scenario" for name, s in top))
    else:
        run = Run(ek, w, args.seed)
        setup = []
        wall = run_plain(run, args.seconds, setup)
        metrics = end_to_end(run, setup, wall, record)
        units = END_TO_END_UNITS
        raw = record["raw"]
        notes.append(f"raw, not rescaled: scenarios_per_s {raw['scenarios_per_s']:.6g} 1/s, "
                     f"scenario_p50_s {raw['scenario_p50_s']:.6g} s, "
                     f"scenario_tail_s {raw['scenario_tail_s']:.6g} s "
                     f"(p{record['tail_percentile']:.1f} of {record['latency_samples']} samples)")
        notes.append(f"reference kernel median {record['kernel_median_s'] * 1e3:.4g} ms "
                     f"(nominal {kernel.NOMINAL_S * 1e3:g} ms)")

    attempted = len(run.records)
    failed = sum(1 for r in run.records if r["problems"])
    digests, changed = digest_table(run.records)
    record.update(pool=list(w.pool), attempted=attempted, failed=failed,
                  metrics=metrics, digests=digests, digest_changes=changed,
                  scenarios=[{k: v for k, v in r.items() if k != "digests"}
                             for r in run.records])
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} scenario runs, {failed} failed")
    for r in run.records:
        if r["problems"]:
            print(f"  FAILED {r['key']}: {'; '.join(r['problems'])}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac {failed / attempted:.6g} ratio")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  full record: {out_file.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
