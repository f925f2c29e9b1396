"""Run ``python -m repro serve`` with the layer tracer installed.

    python3 perfbench/serve_hook.py TRACE_DIR serve --port 0 ...

The tracer is installed in the server process before the server starts,
so the simulation workers it forks inherit the wrappers.  Each worker
restarts its figures at fork and, when it exits, writes them to
``TRACE_DIR/worker-<pid>.json``; the server writes
``TRACE_DIR/server-<pid>.json`` at exit.  Each file carries the
process's own accounting check.  The server process also records the
highest scheduler queue depth it reached, which ``/metrics`` does not
keep.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LayerTracer  # noqa: E402


class _ProcessTrace:
    """The tracer of this process, and how to write it out."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = trace_dir
        self.tracer = LayerTracer()
        self.role = "server"
        self.started = time.perf_counter()
        self.queue_depth_max = 0

    def restart_in_worker(self) -> None:
        self.tracer.reset()
        self.role = "worker"
        self.started = time.perf_counter()
        self.queue_depth_max = 0
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        wall = time.perf_counter() - self.started
        tracer = self.tracer
        record = {
            "role": self.role,
            "pid": os.getpid(),
            "wall_s": wall,
            "covered_s": tracer.covered_s,
            "engine_events": tracer.engine_events,
            "queue_depth_max": self.queue_depth_max,
            "problem": tracer.check_accounting(wall),
            "stats": {
                name: [stat.calls, stat.self_s, stat.total_s, stat.hits]
                for name, stat in tracer.stats.items()
            },
        }
        path = self.trace_dir / f"{self.role}-{os.getpid()}.json"
        path.write_text(json.dumps(record))


def main(argv) -> int:
    trace = _ProcessTrace(Path(argv[0]))
    trace.tracer.install()

    from repro.serve.scheduler import Scheduler

    note_queue_depth = Scheduler._note_queue_depth

    def note(scheduler) -> None:
        trace.queue_depth_max = max(trace.queue_depth_max, scheduler.outstanding)
        note_queue_depth(scheduler)

    Scheduler._note_queue_depth = note
    # Runs in each forked worker after multiprocessing clears the
    # finalizers it inherited, so the worker's dump survives.
    multiprocessing.util.register_after_fork(trace, _ProcessTrace.restart_in_worker)
    atexit.register(trace.dump)

    from repro.cli import main as cli_main

    return cli_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
