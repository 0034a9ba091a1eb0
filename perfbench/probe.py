"""One set-up as a CLI call pays it: start, import, build the inputs, report.

    python3 perfbench/probe.py <workload>

Prints "ready" once the scenarios and grids of the workload's pool exist; run.py times
the interval from spawning this process to reading that line.
"""

from __future__ import annotations

import sys

from workloads import WORKLOADS, import_program, make_scenario


def main(name: str) -> None:
    ek = import_program()
    w = WORKLOADS[name]
    for key in w.pool:
        w.part_of[key].grid(ek, make_scenario(ek, key))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
