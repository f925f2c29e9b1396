"""One-call experiment runner shared by benchmarks and tests."""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from typing import Callable, Generator, Optional

from repro.cuda.device import GpuSpec, HostSpec
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.harness.oversubscribe import apply_oversubscription
from repro.harness.results import ExperimentResult
from repro.interconnect.link import Link


def run_uvm_experiment(
    setup_program: Callable,
    body_program: Callable,
    system: str,
    config_label: str,
    app_bytes: int,
    ratio: float,
    gpu: GpuSpec,
    link: Link,
    host: Optional[HostSpec] = None,
    driver_config: Optional[UvmDriverConfig] = None,
    metric: Optional[Callable[[CudaRuntime], float]] = None,
) -> ExperimentResult:
    """Run one point under the §7.1 methodology: :func:`run_uvm_prefix`
    for ``setup_program``, then :func:`run_uvm_body` for
    ``body_program``.

    Both are host-program generator functions taking the runtime
    (:func:`no_setup` for programs without a prefix); ``ratio`` is the
    oversubscription ratio (<=1 means "fits").
    """
    runtime = run_uvm_prefix(
        setup_program, gpu, link, host=host, driver_config=driver_config
    )
    return run_uvm_body(
        runtime, body_program, system, config_label, app_bytes, ratio,
        metric=metric,
    )


def no_setup(cuda: CudaRuntime) -> Generator:
    """The setup prefix of a program that has none: it allocates and
    initializes everything in its body (No-UVM and the explicit-buffer
    baselines)."""
    return
    yield


def run_uvm_prefix(
    setup_program: Callable,
    gpu: GpuSpec,
    link: Link,
    host: Optional[HostSpec] = None,
    driver_config: Optional[UvmDriverConfig] = None,
) -> CudaRuntime:
    """Simulate a workload's setup prefix and return the live runtime.

    Unlike :meth:`CudaRuntime.run` this does **not** finalize the driver
    — the RMT classifier must resolve its pending chains exactly once,
    at the end of the measured body.  The returned runtime is quiescent
    (the prefix is CPU-only by construction) and therefore snapshottable
    with :class:`~repro.engine.snapshot.EngineSnapshot`.
    """
    runtime = CudaRuntime(gpu=gpu, host=host, link=link, driver_config=driver_config)
    env = runtime.env
    process = env.process(setup_program(runtime))
    env.run(until=process)
    env.run()  # drain any stragglers to quiescence
    return runtime


def run_uvm_body(
    runtime: CudaRuntime,
    body_program: Callable,
    system: str,
    config_label: str,
    app_bytes: int,
    ratio: float,
    metric: Optional[Callable[[CudaRuntime], float]] = None,
) -> ExperimentResult:
    """Run the measured body on a runtime produced by
    :func:`run_uvm_prefix` (typically a snapshot fork) and snapshot the
    result.

    The oversubscription occupant is reserved here, *after* forking:
    reserving frames is a pure allocator operation costing no simulated
    time, so deferring it past the (time-free, CPU-only) prefix leaves
    every observable identical to a cold run while letting points with
    different ratios share one prefix snapshot.
    """
    apply_oversubscription(runtime, app_bytes, ratio)
    runtime.run(body_program)
    value = metric(runtime) if metric is not None else None
    return ExperimentResult.from_runtime(runtime, system, config_label, metric=value)


def ratio_label(ratio: float) -> str:
    """The paper's column label for an oversubscription ratio.

    Ratios at or below 1.0 are the "fits" column ("<100%"); anything
    above rounds half-up to a whole percent (1.25 -> "125%").  Decimal
    arithmetic keeps binary-float artifacts (2.675 * 100 ==
    267.49999...) from shifting a column name.
    """
    if ratio <= 1.0:
        return "<100%"
    percent = (Decimal(str(ratio)) * 100).quantize(
        Decimal("1"), rounding=ROUND_HALF_UP
    )
    return f"{percent}%"
