"""Pin the canonical report JSON of a fixed scenario pool by its sha256.

The pool is the builtins, `random` seeds 0-9 and `random_interval_scenario`
seeds 0-9. Each scenario gets its direct, oracle and, in dimension 2,
boundary report at default knobs, and its direct report once more with its
witnesses removed ("direct_no_witnesses"): a change that moves only
witnesses changes "direct" alone. In dimension 2 the boundary data the
boundary report is reconstructed from is pinned too ("boundary_data"), so
renumbered cobordism pairs or changed pair maps fail even where the limit
they give is the same. tests/test_report_digests.py recomputes
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

from evasion_kit.analysis import analyze, extract_boundary_data
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


def _digest(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def report_digests(key: str) -> Dict[str, str]:
    """sha256 of each mode's canonical report JSON for one pool scenario,
    of the direct report without its witnesses and, in dimension 2, of the
    boundary data document."""
    s = scenario_for(key)
    modes = ("direct", "boundary", "oracle") if s.dimension == 2 else ("direct", "oracle")
    docs = {mode: analyze(s, mode=mode).to_document() for mode in modes}
    out = {mode: _digest(doc) for mode, doc in docs.items()}
    out["direct_no_witnesses"] = _digest({k: v for k, v in docs["direct"].items()
                                          if k != "witnesses"})
    if s.dimension == 2:
        out["boundary_data"] = _digest(extract_boundary_data(s).to_document())
    return out


def main() -> None:
    table = {key: report_digests(key) for key in pool_keys()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
