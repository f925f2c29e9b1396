"""How fast the host runs while a benchmark run measures.

The benchmark's host is a share of a machine whose speed moves under
it: on a 2-vCPU Intel Xeon VM each vCPU flips between a fast and a slow
state every few milliseconds, the two vCPUs differ at the same moment,
and the share of slow time drifts over minutes, so the same operation
takes up to 1.8x longer from one minute to the next.  The process sees
this as plain wall and CPU time, so no median inside a run removes it.

``HostProbe`` times a fixed piece of pure-Python work (the probe) many
times alongside the operations the benchmark measures, so both see the
same host.  A run reports each timing at the reference host speed: the
raw time divided by ``slowdown(stat)``, a statistic of the probe's
samples against its value on the reference host.  The statistic
matches the timing: a median of short operations is scaled by the
probe's median and their p99 by its p99, since both fall in the host's
fast or slow state as the probe's samples do; an operation long enough
to average over the states, or a rate, is scaled by the probe's mean.
The probe runs in the thread that does the measured work where it can,
because another thread may sit on another CPU, whose speed is not this
one's; for work spread over other processes it runs on each CPU in
turn.

The probe runs only the interpreter and the standard library, never the
program under test, and with the garbage collector paused, so a change
to the program cannot move it; the program's own speed shows in the
scaled figures as it does in raw ones.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from typing import List

from common import percentile

#: The probe's median, p99 and mean on the reference host, a 2-vCPU
#: Intel Xeon VM (Python 3.11) in its usual state.  Fixed constants:
#: changing them rescales every reported timing.
REFERENCE_S = {"p50": 60e-6, "p99": 120e-6, "mean": 75e-6}

_DOCUMENT = json.dumps(
    {
        f"key{i}": {"values": list(range(i % 7)), "label": f"v{i}", "weight": i * 0.5}
        for i in range(24)
    }
)


class _Cell:
    __slots__ = ("label", "total")

    def __init__(self, label: str) -> None:
        self.label = label
        self.total = 0.0

    def add(self, value: float) -> None:
        self.total += value


def _probe_work() -> int:
    """Parsing, dict and attribute traffic, a generator and a sort: the
    kinds of work the simulator and its harness spend their time on."""
    document = json.loads(_DOCUMENT)
    cells = {}
    for key, entry in document.items():
        cell = cells.get(entry["label"])
        if cell is None:
            cell = cells[entry["label"]] = _Cell(key)
        for value in entry["values"]:
            cell.add(value * entry["weight"])
    ordered = sorted(cells.values(), key=lambda cell: (cell.total, cell.label))
    return sum(i * i % 7 for i in range(200)) + len(ordered)


class HostProbe:
    """Probe samples of one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        """Time the probe once."""
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        _probe_work()
        took = time.perf_counter() - started
        if collecting:
            gc.enable()
        self.samples.append(took)

    def burst(self, count: int) -> float:
        """``count`` samples after one untimed call, which brings the
        probe back into the CPU caches the measured work has evicted.
        Returns the seconds the burst took."""
        started = time.perf_counter()
        _probe_work()
        for _ in range(count):
            self.sample()
        return time.perf_counter() - started

    def burst_each_cpu(self, count: int) -> None:
        """``burst(count)`` on each CPU the process may run on, the
        calling thread pinned to each in turn: for work spread over
        processes on every CPU, whose speeds differ at any moment."""
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                self.burst(count)
        finally:
            os.sched_setaffinity(0, cpus)

    def slowdown(self, stat: str) -> float:
        """The probe's ``stat`` (``p50``, ``p99`` or ``mean``) over the
        run against the reference host's: 1.2 means this run's host ran
        the probe 1.2x slower."""
        if stat == "mean":
            value = statistics.mean(self.samples)
        else:
            value = percentile(self.samples, int(stat[1:]) / 100)
        return value / REFERENCE_S[stat]
