"""Pieces shared by the benchmark's workload runners."""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from layers import LayerTracer

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Context:
    """What one run knows about itself; passed to the workload runner."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Scratch directory inside the checkout, removed when the run ends.
    run_dir: Path
    #: Environment for child interpreters (``PYTHONPATH``, ``TMPDIR``).
    child_env: Dict[str, str]


@dataclass
class Outcome:
    """A workload run's findings."""

    #: name -> (value, unit, sample count)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    #: name -> (raw value, host slowdown) of each timing given by ``timing``
    raw: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def timing(
        self, name: str, raw: float, unit: str, samples: int, slowdown: float
    ) -> None:
        """A host timing at the reference host's speed (see ``hostprobe``):
        ``raw`` divided by ``slowdown``, or multiplied for a rate."""
        value = raw * slowdown if unit == "1/s" else raw / slowdown
        self.add(name, value, unit, samples)
        self.raw[name] = (float(raw), slowdown)

    def median(self, name: str, values: Sequence[float], unit: str) -> None:
        self.add(name, statistics.median(values), unit, len(values))

    def check(self, problem: Optional[str]) -> None:
        """Count one checked answer; record it as failed if ``problem``."""
        self.attempted += 1
        if problem is not None:
            self.errors.append(problem)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spawn_until_ready(
    cmd: Sequence[str], marker: str, ctx: Context, timeout: float = 60.0
) -> Tuple[subprocess.Popen, float, str]:
    """Start ``cmd`` and wait for a stdout line containing ``marker``.

    Returns the process (still running, stdout open), the seconds from
    spawn to that line, and the line.  Standard error goes to a file in
    the run directory so a chatty child can never block on a full pipe.
    """
    err = open(ctx.run_dir / "child-stderr.log", "ab")
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(cmd),
        stdout=subprocess.PIPE,
        stderr=err,
        env=ctx.child_env,
        cwd=ctx.run_dir,
    )
    err.close()
    buffered = b""
    deadline = started + timeout
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            stop(proc)
            raise RuntimeError(f"{cmd[:4]} not ready within {timeout}s")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(proc.stdout.fileno(), 65536)
        if not chunk:
            proc.wait()
            raise RuntimeError(f"{cmd[:4]} exited {proc.returncode} before ready")
        buffered += chunk
        *complete, buffered = buffered.split(b"\n")
        for line in complete:
            text = line.decode(errors="replace")
            if marker in text:
                return proc, time.perf_counter() - started, text


def stop(proc: subprocess.Popen, timeout: float = 15.0) -> Optional[int]:
    """Terminate ``proc`` and wait for it; kill it if it will not end."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


def measure_setup(ctx: Context, builder: str, count: int):
    """Time ``count`` fresh interpreters from spawn to ``import
    repro.cli`` plus ``points.<builder>()`` done.

    Returns the spawn-to-ready seconds, the seconds each child spent in
    ``import repro.cli`` alone, and the host slowdown (probe mean, see
    ``hostprobe.py``) each child measured right after it was ready, in
    its own process, so on the CPU it had just run on.
    """
    slowdown_file = ctx.run_dir / "setup-slowdown"
    code = (
        "import sys, time\n"
        "started = time.perf_counter()\n"
        "import repro.cli\n"
        "imported = time.perf_counter() - started\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import points\n"
        f"points.{builder}()\n"
        "print('ready', imported, flush=True)\n"
        "import hostprobe\n"
        "probe = hostprobe.HostProbe()\n"
        "probe.burst(200)\n"
        f"open({str(slowdown_file)!r}, 'w').write(repr(probe.slowdown('mean')))\n"
    )
    setup, imports, slowdowns = [], [], []
    for _ in range(count):
        proc, seconds, line = spawn_until_ready(
            [sys.executable, "-c", code], "ready", ctx
        )
        setup.append(seconds)
        imports.append(float(line.split()[1]))
        proc.stdout.close()
        if proc.wait(30) != 0:
            raise RuntimeError(f"setup interpreter exited {proc.returncode}")
        slowdowns.append(float(slowdown_file.read_text()))
    return setup, imports, slowdowns


# ----------------------------------------------------------------------
# per-layer report
# ----------------------------------------------------------------------


#: Per-layer metrics read off the simulated results' driver counters.
RESULT_COUNTERS = (
    ("driver.fault_batches", "gpu_fault_batches"),
    ("driver.evicted_blocks", "evicted_blocks"),
    ("driver.discard_revivals", "discard_revivals"),
)

#: Wrapped functions and the figures of each that are reported.
FUNCTION_METRICS = (
    ("driver.handle_gpu_faults", ("calls", "self_s")),
    ("driver.make_resident_cpu", ("calls", "self_s")),
    ("driver.discard_block_eager", ("calls",)),
    ("driver.discard_block_lazy", ("calls",)),
    ("driver.note_access", ("calls",)),
    ("driver.prefetch", ("calls",)),
    ("vm.is_mapped", ("calls",)),
    ("vm.map_block", ("calls",)),
    ("vm.unmap_block", ("calls",)),
    ("vm.map_blocks", ("calls",)),
    ("vm.unmap_blocks", ("calls",)),
    ("migration.transfer_blocks", ("calls",)),
    ("memsim.allocate", ("calls",)),
    ("gpu.run_kernel", ("calls",)),
    ("core.discard", ("calls",)),
    ("snapshot.serialize", ("calls", "self_s")),
    ("snapshot.fork", ("calls", "self_s")),
    ("harness.prefix_build", ("calls", "self_s", "total_s")),
    ("result_cache.get", ("calls", "self_s")),
    ("result_cache.put", ("calls", "self_s")),
    ("fastmodel.predict", ("calls", "self_s")),
)

LAYERS = (
    "engine", "driver", "vm", "migration", "memsim", "gpu", "cuda",
    "core", "instrument", "snapshot", "harness",
)


def add_layer_metrics(
    outcome: Outcome, tracer: LayerTracer, wall: float, problem: Optional[str] = None
) -> None:
    """Per-layer self times, per-function figures and the accounting
    check, from one tracer (or a merged one) covering ``wall`` seconds."""
    problem = problem or tracer.check_accounting(wall)
    outcome.check(f"self-time accounting: {problem}" if problem else None)
    layer_self = tracer.layer_self()
    for layer in LAYERS:
        outcome.add(f"{layer}.self_s", layer_self.get(layer, 0.0), "s")
    for name, fields in FUNCTION_METRICS:
        stat = tracer.stat(name)
        for field_name in fields:
            unit = "count" if field_name == "calls" else "s"
            outcome.add(f"{name}.{field_name}", getattr(stat, field_name), unit)
    events = tracer.engine_events
    run_total = tracer.stat("engine.run").total_s
    outcome.add("engine.events", events, "count")
    outcome.add(
        "engine.host_us_per_event", run_total / events * 1e6 if events else 0.0, "us"
    )
    gets = tracer.stat("result_cache.get")
    outcome.add(
        "result_cache.hit_ratio", gets.hits / gets.calls if gets.calls else 0.0, "ratio"
    )
    outcome.add("unattributed_s", wall - tracer.covered_s, "s")


def add_result_metrics(outcome: Outcome, results: Sequence[Dict[str, object]]) -> None:
    """Exact driver and migration counts summed over simulated results
    (``ExperimentResult`` dicts, each simulation counted once)."""
    for metric, counter in RESULT_COUNTERS:
        outcome.add(metric, sum(r["counters"].get(counter, 0) for r in results), "count")
    outcome.add(
        "migration.bytes", sum(round(r["traffic_gb"] * 1e9) for r in results), "bytes"
    )
