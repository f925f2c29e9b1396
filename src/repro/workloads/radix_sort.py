"""Radix-sort — the thrashing microbenchmark (§7.3, Tables 5 and 6).

"In each iteration, it launches a GPU kernel to perform local radix sorts
with results saved in a temporary buffer.  At this time, the input buffer
can be discarded.  It then launches another GPU kernel, reorders the
local partitions from the temporary buffer and overwrites the results
back to the input buffer.  At this time, the temporary buffer can be
discarded."

Two properties make this the paper's stress case:

- **Irregular access.** The reorder phase scatters across the whole
  footprint ("the GPU does not follow a deterministic pattern to access
  parallel columns of data"), so an oversubscribed kernel thrashes: the
  dominant traffic at ≥200 % that discard cannot remove.
- **Eager-discard overhead.** When everything fits (<100 %), discard +
  prefetch pairs execute every iteration with *zero* transfers to save;
  `UvmDiscard`'s unmap/remap round-trips show up as a >1.2x slowdown that
  `UvmDiscardLazy` erases — the paper's argument for hardware dirty bits.

Prefetches are issued only when memory is not oversubscribed (§7.3:
manual prefetching of a thrashing kernel "usually does more harm").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.access import AccessMode
from repro.cuda.device import GpuSpec
from repro.cuda.kernel import BufferAccess, KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.errors import ConfigurationError
from repro.gpu.access import IrregularPattern, SequentialPattern
from repro.harness.results import ExperimentResult
from repro.harness.runner import ratio_label, run_uvm_experiment
from repro.harness.systems import DiscardPolicy, System
from repro.interconnect.link import Link
from repro.units import GB


@dataclass
class RadixSortConfig:
    """Radix-sort parameters, sized to reproduce Tables 5/6."""

    #: Key+value payload ("a large input array of keys and values").
    array_bytes: int = int(5.0 * GB)
    #: Digit iterations (local sort + reorder per iteration).
    iterations: int = 8
    #: Irregular re-use per kernel: how many times the reorder phase
    #: revisits each block.  Drives the thrashing amplification.
    passes: int = 2
    #: Sustained kernel throughput over touched bytes.
    kernel_throughput: float = 800 * GB
    #: Fault waves per kernel launch.
    waves: int = 16

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.array_bytes <= 0:
            raise ConfigurationError("array_bytes must be positive")

    @property
    def app_bytes(self) -> int:
        """Input array plus the equally sized temporary buffer."""
        return 2 * self.array_bytes

    def scaled(self, factor: float) -> "RadixSortConfig":
        return RadixSortConfig(
            array_bytes=int(self.array_bytes * factor),
            iterations=self.iterations,
            passes=self.passes,
            kernel_throughput=self.kernel_throughput,
            waves=self.waves,
        )


class RadixSortWorkload:
    """Runs the radix-sort experiment for one evaluated system."""

    def __init__(self, config: Optional[RadixSortConfig] = None) -> None:
        self.config = config or RadixSortConfig()

    def setup_program(self) -> Callable[[CudaRuntime], Generator]:
        """The system-independent setup prefix: allocate both buffers and
        generate the keys/values on the host.  CPU-only, so the runtime
        is quiescent (and snapshottable) afterwards."""
        cfg = self.config

        def setup(cuda: CudaRuntime) -> Generator:
            array = cuda.malloc_managed(cfg.array_bytes, "radix_input")
            temp = cuda.malloc_managed(cfg.array_bytes, "radix_temp")
            yield from cuda.host_write(array)  # generate keys and values
            cuda.session["radix_input"] = array
            cuda.session["radix_temp"] = temp

        return setup

    def body_program(
        self, system: System, prefetch: Optional[bool] = None
    ) -> Callable[[CudaRuntime], Generator]:
        """The measured body for ``system``, resuming from a completed
        :meth:`setup_program` (possibly in a forked runtime).

        ``prefetch=None`` applies the paper's policy (prefetch only when
        not oversubscribed — decided inside from the occupant state);
        ``True``/``False`` force it, enabling the §7.3 "3.9x without
        prefetch" ablation.
        """
        cfg = self.config
        policy = DiscardPolicy(system)

        def body(cuda: CudaRuntime) -> Generator:
            array = cuda.session["radix_input"]
            temp = cuda.session["radix_temp"]
            cuda.begin_measurement()  # §7.1: exclude input preprocessing
            fits = cuda.driver.gpu_free_bytes(cuda.gpu.name) >= cfg.app_bytes
            use_prefetch = fits if prefetch is None else prefetch
            if use_prefetch:
                cuda.prefetch_async(array)
                cuda.prefetch_async(temp)
            kernel_time = 2 * cfg.array_bytes * cfg.passes / cfg.kernel_throughput
            for iteration in range(cfg.iterations):
                local_sort = KernelSpec(
                    f"local_sort_{iteration}",
                    [
                        BufferAccess(
                            array,
                            AccessMode.READ,
                            pattern=IrregularPattern(cfg.passes, seed=iteration),
                        ),
                        BufferAccess(
                            temp,
                            AccessMode.WRITE,
                            pattern=SequentialPattern(),
                        ),
                    ],
                    duration=kernel_time,
                    waves=cfg.waves,
                )
                cuda.launch(local_sort)
                # Local sorts consumed the input; it will be rebuilt by the
                # reorder kernel, which prefetch prefaults first.
                mode = policy.mode_for(paired_with_prefetch=use_prefetch)
                if mode is not None:
                    cuda.discard_async(array, mode=mode)
                if use_prefetch:
                    cuda.prefetch_async(array)
                reorder = KernelSpec(
                    f"reorder_{iteration}",
                    [
                        BufferAccess(
                            temp,
                            AccessMode.READ,
                            pattern=IrregularPattern(cfg.passes, seed=100 + iteration),
                        ),
                        BufferAccess(
                            array,
                            AccessMode.WRITE,
                            pattern=SequentialPattern(),
                        ),
                    ],
                    duration=kernel_time,
                    waves=cfg.waves,
                )
                cuda.launch(reorder)
                mode = policy.mode_for(paired_with_prefetch=use_prefetch)
                if mode is not None:
                    cuda.discard_async(temp, mode=mode)
                if use_prefetch and iteration + 1 < cfg.iterations:
                    cuda.prefetch_async(temp)
            yield from cuda.synchronize()

        return body

    def run(
        self,
        system: System,
        ratio: float,
        gpu: GpuSpec,
        link: Link,
        prefetch: Optional[bool] = None,
        driver_config: Optional[UvmDriverConfig] = None,
    ) -> ExperimentResult:
        """Run one Table 5/6 cell."""
        return run_uvm_experiment(
            self.setup_program(),
            self.body_program(system, prefetch=prefetch),
            system.value,
            ratio_label(ratio),
            self.config.app_bytes,
            ratio,
            gpu,
            link,
            driver_config=driver_config,
        )
