"""The repository benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload fig5_dl --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no tracing installed; ``--trace 1`` runs the workload once
more with per-layer timing wrappers installed (``layers.py``) and
reports the per-layer metrics instead.  Every answer the program gives
is checked against ``expected/``; a wrong or failed answer counts in
``failed``.  Timings are reported at the reference host's speed
(``hostprobe.py``).  The last line of standard output is the result
object; the lines before it give each metric's sample count, each
timing's raw value and host slowdown, the error rate and the
environment the run was measured on.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from common import BENCH_DIR, Context

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("fig5_dl", "uvmbench_oversub", "serve_mix")


def environment(args) -> Dict[str, object]:
    """What a reader needs to tell whether two runs are comparable."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    # Everything the run and its children write stays in the checkout:
    # the server's default blob store is a tempfile directory.
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    import tempfile

    tempfile.tempdir = None
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        run_dir=run_dir,
        child_env=child_env,
    )
    env = environment(args)
    try:
        if args.workload == "serve_mix":
            import serve_mix as runner
        else:
            import sweeps as runner
        outcome = runner.run(ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    got = {name: unit for name, (_, unit, _) in outcome.metrics.items()}
    if got != wanted:
        print(
            f"perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(got.items()) ^ set(wanted.items()))}",
            file=sys.stderr,
        )
        return 1
    failed = len(outcome.errors)
    attempted = max(outcome.attempted, 1)
    print("env " + json.dumps(env, sort_keys=True))
    for problem in outcome.errors[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit, samples) in outcome.metrics.items():
        line = f"{name:<36} {value:>16.6f} {unit:<6} n={samples}"
        if name in outcome.raw:
            raw, slowdown = outcome.raw[name]
            line += f"  raw={raw:.6g} host_slowdown={slowdown:.4f}"
        print(line)
    print(f"{'error_rate':<36} {failed / attempted:>16.6f} ratio  "
          f"{failed}/{attempted}")
    record = {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "errors": outcome.errors[:100],
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in outcome.metrics.items()
        },
        "raw": {
            name: {"value": raw, "host_slowdown": slowdown}
            for name, (raw, slowdown) in outcome.raw.items()
        },
    }
    last = ROOT / ".perfbench" / f"last-{args.workload}-trace{args.trace}.json"
    last.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
