"""Traced execution of a single sweep point.

:func:`trace_point` is the harness entry behind ``python -m repro trace``
and the ``--trace`` flags on ``run``/``chaos``: it simulates one
:class:`~repro.harness.sweep.SweepPoint` with a
:class:`~repro.instrument.trace.Tracer` installed and returns both the
usual :class:`~repro.harness.results.ExperimentResult` and the tracer
holding the timeline.

The tracer is a :class:`~repro.harness.sweep.PointObserver` of
:func:`~repro.harness.sweep.run_split_phase`: it attaches *after* the
setup prefix and before the chaos injector, so a cold traced run and a
fork-traced run of the same point produce byte-identical trace JSON and
equal ``trace_digest`` values (pinned by ``tests/test_trace.py``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.harness.results import ExperimentResult
from repro.harness.sweep import PointObserver
from repro.harness.systems import System
from repro.instrument.trace import TraceConfig, Tracer


def populated_spans(buffer) -> List[List[int]]:
    """``[offset, length]`` spans of ``buffer`` holding live program data.

    Adjacent populated blocks merge into one span; offsets are relative
    to the buffer start.  This is what the replay frontend re-creates
    with ``host_write`` before re-enqueuing the measured body's ops.
    """
    spans: List[List[int]] = []
    base = buffer.va_range.start
    for block in buffer.blocks:
        if not block.populated:
            continue
        offset = block.va_start - base
        if spans and spans[-1][0] + spans[-1][1] == offset:
            spans[-1][1] += block.used_bytes
        else:
            spans.append([offset, block.used_bytes])
    return spans


def _record_context(tracer: Tracer, runtime, point, plan) -> None:
    """Emit the replay header: experiment metadata + the buffer table.

    Recorded immediately after install, so these are the first records
    of the program channel in both the cold and the forked timeline.
    """
    if not tracer.enabled:
        return
    now = runtime.env.now
    tracer.instant(
        "program",
        "experiment",
        now,
        category="program",
        args={
            "workload": point.workload,
            "system": plan.system,
            "config": plan.config_label,
            "link": point.link,
            "gpu": point.gpu,
            "scale": point.scale,
            "ratio": plan.ratio,
            "batch_size": point.batch_size,
            "app_bytes": plan.app_bytes,
        },
    )
    for buffer in runtime.managed_buffers():
        tracer.instant(
            "program",
            "buffer",
            now,
            category="program",
            args={
                "buffer": buffer.name,
                "nbytes": buffer.nbytes,
                "spans": populated_spans(buffer),
            },
        )


def _record_totals(tracer: Tracer, runtime) -> None:
    """Emit the measured body's migration totals (the replay check)."""
    if not tracer.enabled:
        return
    traffic = runtime.driver.traffic
    tracer.instant(
        "program",
        "totals",
        runtime.env.now,
        category="program",
        args={
            "bytes_h2d": traffic.bytes_h2d,
            "bytes_d2h": traffic.bytes_d2h,
            "transfer_count": traffic.transfer_count,
        },
    )


class _TraceObserver(PointObserver):
    """Install ``tracer`` for the measured body, bracketing it with the
    replay header and the migration totals."""

    def __init__(self, tracer: Tracer, point) -> None:
        self.tracer = tracer
        self.point = point

    def install(self, runtime, plan) -> None:
        self.tracer.install(runtime)
        _record_context(self.tracer, runtime, self.point, plan)

    def body_done(self, runtime) -> None:
        _record_totals(self.tracer, runtime)

    def uninstall(self) -> None:
        self.tracer.uninstall()


def traced_run(
    point,
    trace_config: Optional[TraceConfig] = None,
    via_fork: bool = False,
) -> Tuple[Optional[ExperimentResult], Tracer, Optional[object]]:
    """Simulate ``point`` with tracing enabled, keeping the runtime.

    Returns ``(result, tracer, runtime)``; ``result`` is ``None`` on the
    paper's No-UVM-style OOM (``runtime`` is ``None`` if the *prefix*
    OOMed).  The runtime gives post-run analysis access to retained
    transfer records and the RMT classifier (``repro.analysis``).
    ``via_fork=True`` routes the measured body through an
    :class:`~repro.engine.snapshot.EngineSnapshot` fork of the setup
    prefix instead of continuing the cold runtime — the trace must be
    identical either way.

    Raises :class:`~repro.errors.ConfigurationError` for No-UVM points
    (No-UVM has no driver to trace).
    """
    from repro.harness.sweep import _point_plan, build_prefix, run_split_phase

    if System(point.system) is System.NO_UVM:
        raise ConfigurationError(
            f"{point.label}: tracing needs a UVM system (No-UVM has no driver)"
        )
    plan = _point_plan(point)
    tracer = Tracer(trace_config or TraceConfig())
    snapshot = None
    if via_fork:
        from repro.engine.snapshot import EngineSnapshot

        prefix = build_prefix(point, plan)
        if prefix is None:
            return None, tracer, None
        snapshot = EngineSnapshot(prefix)
    result, runtime = run_split_phase(
        point, plan, snapshot, observers=(_TraceObserver(tracer, point),)
    )
    return result, tracer, runtime


def trace_point(
    point,
    trace_config: Optional[TraceConfig] = None,
    via_fork: bool = False,
) -> Tuple[Optional[ExperimentResult], Tracer]:
    """Simulate ``point`` with tracing enabled (see :func:`traced_run`)."""
    result, tracer, _ = traced_run(point, trace_config, via_fork)
    return result, tracer
