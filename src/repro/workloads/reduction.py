"""Tree reduction — log-depth fan-in over a shrinking working set.

UVMBench's reduction family: level *k* reads a span of ``s_k`` bytes and
writes ``s_k / fanin``, halving (by ``fanin``) until one block remains.
The levels alternate between the input buffer and a scratch buffer, so
every level's consumed source span is dead the moment its kernel
retires:

- intermediate levels discard the span and prefetch the sub-span that
  level *k+1* writes into — prefetch-paired, lazy under UvmDiscardLazy;
- the final level's source is never touched again — unpaired, eager
  (the FIR shape).

Sequential access throughout: reduction is the prefetch-friendliest of
the new categories, so its discard savings isolate the redundant-D2H
elimination from thrash effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Tuple

from repro.access import AccessMode
from repro.cuda.device import GpuSpec
from repro.cuda.kernel import BufferAccess, KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.errors import ConfigurationError
from repro.gpu.access import SequentialPattern
from repro.harness.results import ExperimentResult
from repro.harness.runner import ratio_label, run_uvm_experiment
from repro.harness.systems import DiscardPolicy, System
from repro.interconnect.link import Link
from repro.units import BIG_PAGE, GB, align_up


@dataclass
class ReductionConfig:
    """Tree-reduction workload parameters."""

    #: Bytes of input values to reduce.
    input_bytes: int = 4 * GB
    #: Fan-in per level: each level shrinks the span by this factor.
    fanin: int = 8
    #: Sustained GPU throughput over the bytes a level reads.
    kernel_throughput: float = 220 * GB
    #: Fault waves per kernel launch (capped by the level's block count).
    waves: int = 4

    def __post_init__(self) -> None:
        if self.fanin < 2:
            raise ConfigurationError("fanin must be >= 2")
        if self.input_bytes < BIG_PAGE:
            raise ConfigurationError("input must cover at least one block")

    @property
    def scratch_bytes(self) -> int:
        """The first level's output span (the largest intermediate)."""
        return align_up(self.input_bytes // self.fanin, BIG_PAGE)

    @property
    def app_bytes(self) -> int:
        """GPU footprint: the input plus the reduction scratch."""
        return align_up(self.input_bytes, BIG_PAGE) + self.scratch_bytes

    def level_spans(self) -> List[int]:
        """Byte spans consumed per level: ``[s_0, s_1, ...]`` down to one
        block (always at least one level)."""
        spans = [align_up(self.input_bytes, BIG_PAGE)]
        while spans[-1] > BIG_PAGE:
            spans.append(align_up(spans[-1] // self.fanin, BIG_PAGE))
        return spans[:-1] if len(spans) > 1 else spans

    def scaled(self, factor: float) -> "ReductionConfig":
        """Shrink the reduction for fast runs (pair with ``gpu.scaled``)."""
        return ReductionConfig(
            input_bytes=max(BIG_PAGE, int(self.input_bytes * factor)),
            fanin=self.fanin,
            kernel_throughput=self.kernel_throughput,
            waves=self.waves,
        )


class ReductionWorkload:
    """Runs the tree-reduction experiment for one evaluated system."""

    def __init__(self, config: Optional[ReductionConfig] = None) -> None:
        self.config = config or ReductionConfig()

    def setup_program(self) -> Callable[[CudaRuntime], Generator]:
        """Allocate the buffers and generate the input values on the
        host (CPU-only, quiescent at the end)."""
        cfg = self.config

        def setup(cuda: CudaRuntime) -> Generator:
            values = cuda.malloc_managed(
                align_up(cfg.input_bytes, BIG_PAGE), "reduce_values"
            )
            scratch = cuda.malloc_managed(cfg.scratch_bytes, "reduce_scratch")
            yield from cuda.host_write(values)  # generate the inputs
            cuda.session["reduce_values"] = values
            cuda.session["reduce_scratch"] = scratch

        return setup

    def _levels(self) -> List[Tuple[int, int]]:
        """Per-level (source span, destination span) byte sizes."""
        spans = self.config.level_spans()
        out = []
        for k, span in enumerate(spans):
            dst = spans[k + 1] if k + 1 < len(spans) else BIG_PAGE
            out.append((span, dst))
        return out

    def body_program(self, system: System) -> Callable[[CudaRuntime], Generator]:
        """The measured reduction tree for ``system``."""
        cfg = self.config
        policy = DiscardPolicy(system)
        levels = self._levels()

        def body(cuda: CudaRuntime) -> Generator:
            values = cuda.session["reduce_values"]
            scratch = cuda.session["reduce_scratch"]
            cuda.begin_measurement()
            compute = cuda.create_stream("compute")
            transfer = cuda.create_stream("transfer")
            cuda.prefetch_async(values, stream=transfer)
            buffers = [values, scratch]
            for k, (src_span, dst_span) in enumerate(levels):
                source = buffers[k % 2]
                target = buffers[(k + 1) % 2]
                src_rng = source.subrange(0, src_span)
                dst_rng = target.subrange(0, dst_span)
                # Level k writes into a prefix of the buffer level k-1
                # consumed and discarded — prefetching it back first is
                # the §5.2 pairing for that earlier discard.
                prefetched = cuda.prefetch_async(
                    target, rng=dst_rng, stream=transfer
                )
                kernel = KernelSpec(
                    f"reduce_level_{k}",
                    [
                        BufferAccess(
                            source, AccessMode.READ, src_rng, SequentialPattern()
                        ),
                        BufferAccess(
                            target, AccessMode.WRITE, dst_rng, SequentialPattern()
                        ),
                    ],
                    duration=src_span / cfg.kernel_throughput,
                    waves=max(1, min(cfg.waves, src_span // BIG_PAGE)),
                )
                compute.wait_for(prefetched)
                cuda.launch(kernel, stream=compute)
                # The consumed span is dead; level k+1 prefetches a
                # prefix of it back, so every discard but the last is
                # prefetch-paired.
                paired = k + 1 < len(levels)
                mode = policy.mode_for(paired_with_prefetch=paired)
                if mode is not None:
                    cuda.discard_async(
                        source, rng=src_rng, mode=mode, stream=compute
                    )
            yield from cuda.synchronize()

        return body

    def run(
        self,
        system: System,
        ratio: float,
        gpu: GpuSpec,
        link: Link,
        driver_config: Optional[UvmDriverConfig] = None,
    ) -> ExperimentResult:
        """Run one oversubscription cell of the reduction table."""
        return run_uvm_experiment(
            self.setup_program(),
            self.body_program(system),
            system.value,
            ratio_label(ratio),
            self.config.app_bytes,
            ratio,
            gpu,
            link,
            driver_config=driver_config,
        )
