"""Regenerate ``expected/<workload>.json``: the exact outcome of every
point a workload can ask for, from a cold ``execute_point`` run each
(no snapshot sharing, no cache, no server).

Run from the repository root after a change that is meant to move
simulated results:

    PYTHONPATH=src python3 perfbench/make_expected.py [workload ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from points import (  # noqa: E402
    EXPECTED_DIR,
    all_points,
    expected_entry,
    expected_key,
    outcome_of,
)
from repro.harness.sweep import execute_point  # noqa: E402

WORKLOADS = ("fig5_dl", "uvmbench_oversub", "serve_mix")


def main(argv) -> int:
    unknown = sorted(set(argv) - set(WORKLOADS))
    if unknown:
        print(f"unknown workloads: {unknown}; expected {WORKLOADS}", file=sys.stderr)
        return 2
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        entries = {}
        for point in all_points(workload):
            outcome = outcome_of(execute_point(point))
            if outcome["status"] != "ok":
                print(f"{workload}: {point.label} is {outcome['status']}", file=sys.stderr)
                return 1
            entries[expected_key(point)] = expected_entry(outcome)
        lines = ",\n".join(
            f" {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
            for key in sorted(entries)
        )
        path = EXPECTED_DIR / f"{workload}.json"
        path.write_text('{"points": {\n' + lines + "\n}}\n")
        print(f"{workload}: {len(entries)} points -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
