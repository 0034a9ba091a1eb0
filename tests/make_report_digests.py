"""Pin the canonical report JSON of a fixed scenario pool by its sha256.

The pool is the builtins, `random` seeds 0-9 and `random_interval_scenario`
seeds 0-9. Each scenario gets its direct, oracle and, in dimension 2,
boundary report at default knobs. tests/test_report_digests.py recomputes
the digests and compares them with tests/report_digests.json, so a change
that alters a single report byte fails tier-1.

Regenerate the file only in a change that means to alter a report, and say
so in CHANGES.md:

    PYTHONPATH=src python tests/make_report_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

from evasion_kit.analysis import analyze
from evasion_kit.scenario import (BUILTIN_NAMES, builtin_scenario, canonical_json,
                                  random_interval_scenario)

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


def pool_keys() -> List[str]:
    return (list(BUILTIN_NAMES) + [f"random/{k}" for k in range(10)]
            + [f"interval/{k}" for k in range(10)])


def scenario_for(key: str):
    kind, _, seed = key.partition("/")
    if kind == "interval":
        return random_interval_scenario(int(seed))
    if kind == "random" and seed:
        return builtin_scenario("random", int(seed))
    return builtin_scenario(kind)


def report_digests(key: str) -> Dict[str, str]:
    """sha256 of each mode's canonical report JSON for one pool scenario."""
    s = scenario_for(key)
    modes = ("direct", "boundary", "oracle") if s.dimension == 2 else ("direct", "oracle")
    return {mode: hashlib.sha256(canonical_json(analyze(s, mode=mode).to_document())
                                 .encode()).hexdigest()
            for mode in modes}


def main() -> None:
    table = {key: report_digests(key) for key in pool_keys()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
