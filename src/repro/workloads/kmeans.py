"""k-means — random-access ML clustering (UVMBench's ML family).

The assignment kernel gathers the point set in a data-dependent order
(points are visited per-cluster-candidate, not in storage order), which
is the random-access shape UVMBench's ML benchmarks stress.  Two
per-iteration intermediates die and are discarded:

- the per-block partial-sum scratch (consumed by the centroid-update
  kernel) — re-prefetched at the next iteration, so its discard is
  prefetch-paired and stays lazy under UvmDiscardLazy (§5.2);
- the assignment vector — fully overwritten by the next iteration's
  kernel without an intervening prefetch, so its discard site is
  unpaired and stays eager in every discard system.
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
from repro.units import BIG_PAGE, GB, align_up


@dataclass
class KMeansConfig:
    """k-means workload parameters."""

    #: Number of points; each point is ``dims`` float32 features.
    num_points: int = 1 << 26
    #: Feature dimensions per point.
    dims: int = 8
    #: Lloyd iterations (assign + update per iteration).
    iterations: int = 4
    #: Sustained GPU throughput over the bytes a kernel touches.
    kernel_throughput: float = 180 * GB
    #: Fault waves per kernel launch.
    waves: int = 8
    #: Base seed of the per-iteration irregular gather order.
    seed: int = 0xC1A

    def __post_init__(self) -> None:
        if self.num_points < 1:
            raise ConfigurationError("num_points must be >= 1")
        if self.dims < 1:
            raise ConfigurationError("dims must be >= 1")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")

    @property
    def points_bytes(self) -> int:
        """The point set, rounded up to whole 2 MiB blocks."""
        return align_up(self.num_points * self.dims * 4, BIG_PAGE)

    @property
    def assign_bytes(self) -> int:
        """The per-point cluster assignment vector (uint32 each)."""
        return align_up(self.num_points * 4, BIG_PAGE)

    @property
    def centroid_bytes(self) -> int:
        """The centroid table (small; one block)."""
        return BIG_PAGE

    @property
    def partial_bytes(self) -> int:
        """Per-block partial-sum scratch consumed by the update kernel."""
        return align_up(self.points_bytes // 8, BIG_PAGE)

    @property
    def app_bytes(self) -> int:
        """GPU footprint: points + assignments + centroids + scratch."""
        return (
            self.points_bytes
            + self.assign_bytes
            + self.centroid_bytes
            + self.partial_bytes
        )

    def scaled(self, factor: float) -> "KMeansConfig":
        """Shrink the point set for fast runs (pair with ``gpu.scaled``)."""
        return KMeansConfig(
            num_points=max(BIG_PAGE // 4, int(self.num_points * factor)),
            dims=self.dims,
            iterations=self.iterations,
            kernel_throughput=self.kernel_throughput,
            waves=self.waves,
            seed=self.seed,
        )


class KMeansWorkload:
    """Runs the k-means experiment for one evaluated system."""

    def __init__(self, config: Optional[KMeansConfig] = None) -> None:
        self.config = config or KMeansConfig()

    def setup_program(self) -> Callable[[CudaRuntime], Generator]:
        """Allocate the buffers and generate the points and initial
        centroids on the host (CPU-only, quiescent at the end)."""
        cfg = self.config

        def setup(cuda: CudaRuntime) -> Generator:
            points = cuda.malloc_managed(cfg.points_bytes, "kmeans_points")
            assign = cuda.malloc_managed(cfg.assign_bytes, "kmeans_assign")
            centroids = cuda.malloc_managed(cfg.centroid_bytes, "kmeans_centroids")
            partial = cuda.malloc_managed(cfg.partial_bytes, "kmeans_partial")
            yield from cuda.host_write(points)  # generate the point cloud
            yield from cuda.host_write(centroids)  # seed initial centroids
            cuda.session["kmeans_points"] = points
            cuda.session["kmeans_assign"] = assign
            cuda.session["kmeans_centroids"] = centroids
            cuda.session["kmeans_partial"] = partial

        return setup

    def body_program(self, system: System) -> Callable[[CudaRuntime], Generator]:
        """The measured Lloyd iterations for ``system``."""
        cfg = self.config
        policy = DiscardPolicy(system)

        def body(cuda: CudaRuntime) -> Generator:
            points = cuda.session["kmeans_points"]
            assign = cuda.session["kmeans_assign"]
            centroids = cuda.session["kmeans_centroids"]
            partial = cuda.session["kmeans_partial"]
            cuda.begin_measurement()
            compute = cuda.create_stream("compute")
            transfer = cuda.create_stream("transfer")
            cuda.prefetch_async(centroids, stream=transfer)
            for iteration in range(cfg.iterations):
                # The partial-sum scratch was discarded last iteration;
                # the prefetch-before-reuse pairing keeps its discard
                # site lazy under UvmDiscardLazy.
                prefetched = cuda.prefetch_async(partial, stream=transfer)
                assign_kernel = KernelSpec(
                    f"kmeans_assign_{iteration}",
                    [
                        BufferAccess(
                            points,
                            AccessMode.READ,
                            pattern=IrregularPattern(seed=cfg.seed + iteration),
                        ),
                        BufferAccess(
                            centroids, AccessMode.READ, pattern=SequentialPattern()
                        ),
                        BufferAccess(
                            assign, AccessMode.WRITE, pattern=SequentialPattern()
                        ),
                        BufferAccess(
                            partial, AccessMode.WRITE, pattern=SequentialPattern()
                        ),
                    ],
                    duration=cfg.points_bytes / cfg.kernel_throughput,
                    waves=cfg.waves,
                )
                compute.wait_for(prefetched)
                cuda.launch(assign_kernel, stream=compute)
                update_kernel = KernelSpec(
                    f"kmeans_update_{iteration}",
                    [
                        BufferAccess(
                            partial, AccessMode.READ, pattern=SequentialPattern()
                        ),
                        BufferAccess(
                            centroids,
                            AccessMode.READWRITE,
                            pattern=SequentialPattern(),
                        ),
                    ],
                    duration=cfg.partial_bytes / cfg.kernel_throughput,
                    waves=max(1, cfg.waves // 2),
                )
                cuda.launch(update_kernel, stream=compute)
                # The partial sums die with the update kernel; the next
                # iteration prefetches them back (paired site).
                paired = iteration + 1 < cfg.iterations
                mode = policy.mode_for(paired_with_prefetch=paired)
                if mode is not None:
                    cuda.discard_async(partial, mode=mode, stream=compute)
                # Assignments are overwritten next iteration without a
                # prefetch — an unpaired site that stays eager (§5.2).
                mode = policy.mode_for(paired_with_prefetch=False)
                if mode is not None:
                    cuda.discard_async(assign, mode=mode, stream=compute)
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
        """Run one oversubscription cell of the k-means table."""
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
