"""Regenerate reference.json: the answer to every scenario of each workload's pool.

    python3 perfbench/make_reference.py [workload ...]

Run it only at a commit whose answers are known to be right; the benchmark
counts every later disagreement with this table as a failed operation. The
builtin cardinalities are pinned separately in workloads.py. Per-scenario
times go to standard error, as a guide to the pool's spread.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import REFERENCE, WORKLOADS, import_program, make_scenario


def main(names):
    ek = import_program()
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or list(WORKLOADS):
        for part in WORKLOADS[name].parts:
            entries = {}
            for key in part.keys:
                s = make_scenario(ek, key)
                t0 = time.perf_counter()
                facts, _, _ = part.calls(ek, s, part.grid(ek, s))
                print(f"{name} {key} {time.perf_counter() - t0:.3f}s {facts}", file=sys.stderr)
                entries[key] = facts
            table[part.section] = entries
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
