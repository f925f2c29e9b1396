"""Declarative experiment sweeps: grids, caching, parallel execution.

Every table and figure in the paper is a grid of independent simulation
points — (workload x system x link x oversubscription ratio / batch size
x driver config).  This module is the one engine that runs such grids:

- :class:`SweepPoint` names one cell declaratively (plain strings and
  numbers, picklable and JSON-able),
- :class:`SweepGrid` expands a compact grid spec into points,
- :func:`execute_point` runs one point to an
  :class:`~repro.harness.results.ExperimentResult` (or ``None`` when the
  configuration does not fit, e.g. No-UVM under oversubscription);
  every simulated point runs through :func:`run_split_phase`, the one
  setup-prefix-then-measured-body pipeline that serve and trace share,
- :class:`ResultCache` memoizes finished points on disk, keyed by a
  stable content hash of the *full* point configuration, so re-running a
  sweep only simulates points whose inputs changed,
- :func:`run_sweep` drives a batch of points through a
  ``multiprocessing`` worker pool (each point is a CPU-bound
  deterministic simulation, so processes — not threads — scale it).

The CLI's ``sweep`` subcommand, the ``run``/``reproduce`` commands and
the ``benchmarks/`` figure regenerators all go through this API.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError, OutOfMemoryError
from repro.harness.results import ExperimentResult
from repro.harness.runner import ratio_label
from repro.harness.systems import System

#: Bump when the cache entry schema or simulator semantics change in a
#: way that must invalidate previously stored results.
CACHE_VERSION = 2

#: Environment variable overriding the default on-disk cache location.
CACHE_ENV = "REPRO_SWEEP_CACHE"

#: The paper's per-network batch-size grids (Figures 5/6/7, §7.5).
DL_BATCH_GRID: Dict[str, Tuple[int, ...]] = {
    "vgg16": (50, 75, 100, 125, 150),
    "darknet19": (86, 171, 260, 360),
    "resnet53": (28, 56, 100, 150),
    "rnn": (75, 150, 225, 300),
}

#: The paper's own micro-benchmarks (§7.2-7.4) — the calibrated set the
#: analytical fast model ships curves for.
PAPER_MICRO_WORKLOADS = ("fir", "radix", "hashjoin")

#: UVMBench-style workload categories (arXiv 2007.09822): irregular
#: graph traversal, random-access ML, HPC stencil and tree reduction.
#: Sweepable like the paper micros but NOT pre-calibrated — fast-model
#: queries refuse with :class:`~repro.fastmodel.UncalibratedPointError`
#: until a calibration covers them.
UVMBENCH_WORKLOADS = ("bfs", "kmeans", "knn", "stencil", "reduction")

#: Every ratio-configured (non-DL) workload the sweep engine accepts.
MICRO_WORKLOADS = PAPER_MICRO_WORKLOADS + UVMBENCH_WORKLOADS

LINK_NAMES = ("gen3", "gen4")
GPU_NAMES = ("rtx3080ti", "gtx1070", "a100")

_SYSTEM_VALUES = {s.value for s in System}
_SYSTEM_BY_NAME = {s.name: s.value for s in System}


def default_cache_dir() -> Path:
    """Where sweep results are cached (override: ``REPRO_SWEEP_CACHE``)."""
    return Path(os.environ.get(CACHE_ENV, ".repro_cache/sweeps"))


def _normalize_system(system: Union[System, str]) -> str:
    if isinstance(system, System):
        return system.value
    if system in _SYSTEM_VALUES:
        return system
    if system in _SYSTEM_BY_NAME:
        return _SYSTEM_BY_NAME[system]
    raise ConfigurationError(
        f"unknown system {system!r}; expected one of {sorted(_SYSTEM_VALUES)}"
    )


def _normalize_driver(
    driver: Union[Mapping[str, object], Sequence, None]
) -> Tuple[Tuple[str, object], ...]:
    if not driver:
        return ()
    items = driver.items() if isinstance(driver, Mapping) else driver
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class SweepPoint:
    """One cell of an experiment grid, as plain picklable data.

    ``workload`` is a micro-benchmark name (``fir``/``radix``/
    ``hashjoin``, configured by ``ratio``) or ``dl:<network>``
    (configured by ``batch_size``).  ``driver`` holds
    :class:`~repro.driver.config.UvmDriverConfig` field overrides.
    """

    workload: str
    system: str
    link: str = "gen4"
    ratio: float = 2.0
    batch_size: Optional[int] = None
    scale: float = 0.125
    gpu: str = "rtx3080ti"
    driver: Tuple[Tuple[str, object], ...] = ()
    #: DL-only override of the trainer's mini-batch count (``None`` =
    #: the :class:`~repro.workloads.dl.TrainerConfig` default).  Omitted
    #: from serialized dicts (and hence cache keys) when unset, so the
    #: field's introduction invalidates no existing cache entries.
    batches: Optional[int] = None
    #: Chaos-injection overrides (:class:`repro.chaos.ChaosConfig`
    #: fields), normalized like ``driver``.  Omitted from serialized
    #: dicts (and cache keys) when empty, so the field's introduction
    #: invalidates no existing cache entries.  Chaos applies to the
    #: measured body only — setup prefixes stay chaos-free — so chaos
    #: points share prefix snapshots with fault-free ones.
    chaos: Tuple[Tuple[str, object], ...] = ()
    #: ``"exact"`` simulates the point; ``"fast"`` answers it from the
    #: calibrated analytical model (:mod:`repro.fastmodel`) without
    #: simulating.  Serialized (and hashed into the cache key) only
    #: when not ``"exact"``, so exact keys are unchanged and fast
    #: results live in a disjoint cache namespace — the two can never
    #: alias each other in either direction.
    mode: str = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "system", _normalize_system(self.system))
        object.__setattr__(self, "driver", _normalize_driver(self.driver))
        object.__setattr__(self, "chaos", _normalize_driver(self.chaos))
        for name in ("ratio", "scale"):
            # json.loads accepts NaN/Infinity: refuse them here rather
            # than crash later on a label or a frame count.
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite: {value}")
        if self.mode not in ("exact", "fast"):
            raise ConfigurationError(
                f"mode must be 'exact' or 'fast', got {self.mode!r}"
            )
        if self.mode == "fast" and self.chaos:
            raise ConfigurationError(
                "chaos points cannot use the analytical fast model; "
                "fault injection needs the event-level simulator"
            )
        if self.chaos:
            if System(self.system) is System.NO_UVM:
                raise ConfigurationError(
                    "chaos injection requires a UVM system; No-UVM has no "
                    "fault-handling driver to perturb"
                )
            from repro.chaos.schedule import ChaosConfig

            try:
                ChaosConfig.from_items(self.chaos)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad chaos override: {exc}") from None
        if self.driver:
            # Reject an unknown knob or a bad value here, not in the
            # worker that would otherwise fail on it.
            from repro.driver.config import UvmDriverConfig

            try:
                UvmDriverConfig(**dict(self.driver)).validate()
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad driver override: {exc}") from None
        if self.is_dl:
            network = self.workload.split(":", 1)[1]
            if network not in DL_BATCH_GRID:
                raise ConfigurationError(
                    f"unknown network {network!r}; expected one of "
                    f"{sorted(DL_BATCH_GRID)}"
                )
            if self.batch_size is None or self.batch_size < 1:
                raise ConfigurationError(
                    f"DL point {self.workload!r} needs a positive batch_size"
                )
            if self.batches is not None and self.batches < 2:
                raise ConfigurationError(
                    "batches must leave at least one measured batch after "
                    f"warm-up (>= 2), got {self.batches}"
                )
        elif self.workload in MICRO_WORKLOADS:
            if self.batch_size is not None:
                raise ConfigurationError(
                    f"micro workload {self.workload!r} takes a ratio, "
                    "not a batch_size"
                )
            if self.batches is not None:
                raise ConfigurationError(
                    f"micro workload {self.workload!r} has no batches knob"
                )
            if self.ratio <= 0:
                raise ConfigurationError(f"ratio must be positive: {self.ratio}")
        else:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; expected one of "
                f"{MICRO_WORKLOADS} or dl:<{'|'.join(sorted(DL_BATCH_GRID))}>"
            )
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive: {self.scale}")
        if self.link not in LINK_NAMES:
            raise ConfigurationError(
                f"unknown link {self.link!r}; expected one of {LINK_NAMES}"
            )
        if self.gpu not in GPU_NAMES:
            raise ConfigurationError(
                f"unknown gpu {self.gpu!r}; expected one of {GPU_NAMES}"
            )

    @property
    def is_dl(self) -> bool:
        return self.workload.startswith("dl:")

    @property
    def config_label(self) -> str:
        """The paper-style column label of this point."""
        if self.is_dl:
            return f"bs={self.batch_size}"
        return ratio_label(self.ratio)

    @property
    def label(self) -> str:
        """Human-readable one-line identity, for progress output."""
        return (
            f"{self.workload}/{self.system}/{self.link}/"
            f"{self.config_label}@x{self.scale:g}"
            f"{'+chaos' if self.chaos else ''}"
            f"{'+fast' if self.mode == 'fast' else ''}"
        )

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "workload": self.workload,
            "system": self.system,
            "link": self.link,
            "ratio": self.ratio,
            "batch_size": self.batch_size,
            "scale": self.scale,
            "gpu": self.gpu,
            "driver": dict(self.driver),
        }
        if self.batches is not None:
            data["batches"] = self.batches
        if self.chaos:
            data["chaos"] = dict(self.chaos)
        if self.mode != "exact":
            data["mode"] = self.mode
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepPoint":
        unknown = set(data) - {
            "workload", "system", "link", "ratio", "batch_size",
            "scale", "gpu", "driver", "batches", "chaos", "mode",
        }
        if unknown:
            raise ConfigurationError(f"unknown sweep-point keys: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]

    def cache_key(self) -> str:
        """Stable content hash of the full point configuration."""
        canonical = json.dumps(
            {"version": CACHE_VERSION, **self.to_dict()}, sort_keys=True
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class SweepGrid:
    """A declarative grid that expands to the cartesian set of points.

    ``batch_sizes=None`` means each DL workload uses its paper grid
    (:data:`DL_BATCH_GRID`); micro workloads always use ``ratios``.
    """

    workloads: Sequence[str]
    systems: Sequence[str] = ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")
    links: Sequence[str] = ("gen4",)
    ratios: Sequence[float] = (2.0,)
    batch_sizes: Optional[Sequence[int]] = None
    scale: float = 0.125
    gpus: Sequence[str] = ("rtx3080ti",)
    driver: Mapping[str, object] = field(default_factory=dict)

    def expand(self) -> List[SweepPoint]:
        """All points, ordered workload-major then link, system, config."""
        if not self.workloads:
            raise ConfigurationError("a sweep grid needs at least one workload")
        for workload in self.workloads:
            if not isinstance(workload, str):
                raise ConfigurationError(
                    f"workloads must be strings, got {workload!r}"
                )
        points: List[SweepPoint] = []
        for workload in self.workloads:
            for gpu in self.gpus:
                for link in self.links:
                    for system in self.systems:
                        for point in self._configs(workload, gpu, link, system):
                            points.append(point)
        return points

    def _configs(
        self, workload: str, gpu: str, link: str, system: str
    ) -> Iterable[SweepPoint]:
        common = dict(
            workload=workload, system=system, link=link,
            scale=self.scale, gpu=gpu, driver=dict(self.driver),
        )
        if workload.startswith("dl:"):
            batches = self.batch_sizes
            if batches is None:
                batches = DL_BATCH_GRID[workload.split(":", 1)[1]]
            for batch in batches:
                yield SweepPoint(batch_size=batch, **common)
        else:
            for ratio in self.ratios:
                yield SweepPoint(ratio=ratio, **common)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepGrid":
        unknown = set(data) - {
            "workloads", "systems", "links", "ratios", "batch_sizes",
            "scale", "gpus", "driver",
        }
        if unknown:
            raise ConfigurationError(f"unknown sweep-grid keys: {sorted(unknown)}")
        if "workloads" not in data:
            raise ConfigurationError("grid spec must name 'workloads'")
        return cls(**data)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "SweepGrid":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid grid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("grid spec must be a JSON object")
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# point execution
# ----------------------------------------------------------------------


def _gpu_spec(point: SweepPoint):
    from repro.cuda.device import a100_40gb, gtx_1070, rtx_3080ti

    factory = {"rtx3080ti": rtx_3080ti, "gtx1070": gtx_1070, "a100": a100_40gb}
    return factory[point.gpu]().scaled(point.scale)


def _link(point: SweepPoint):
    from repro.interconnect import pcie_gen3, pcie_gen4

    return {"gen3": pcie_gen3, "gen4": pcie_gen4}[point.link]()


def _driver_config(point: SweepPoint):
    if not point.driver:
        return None
    from repro.driver.config import UvmDriverConfig

    # Overrides were validated when the point was built.
    return UvmDriverConfig(**dict(point.driver))


def _dl_trainer(point: SweepPoint, system: System):
    from repro.workloads.dl import DarknetTrainer, TrainerConfig
    from repro.workloads.dl import darknet19, resnet53, rnn_shakespeare, vgg16

    factory = {
        "vgg16": vgg16, "darknet19": darknet19,
        "resnet53": resnet53, "rnn": rnn_shakespeare,
    }[point.workload.split(":", 1)[1]]
    if point.batches is None:
        trainer_config = TrainerConfig(batch_size=point.batch_size)
    else:
        trainer_config = TrainerConfig(
            batch_size=point.batch_size, batches=point.batches
        )
    return DarknetTrainer(factory().scaled(point.scale), trainer_config, system)


def _micro_factories():
    from repro.workloads.bfs import BfsConfig, BfsWorkload
    from repro.workloads.fir import FirConfig, FirWorkload
    from repro.workloads.hash_join import HashJoinConfig, HashJoinWorkload
    from repro.workloads.kmeans import KMeansConfig, KMeansWorkload
    from repro.workloads.knn import KnnConfig, KnnWorkload
    from repro.workloads.radix_sort import RadixSortConfig, RadixSortWorkload
    from repro.workloads.reduction import ReductionConfig, ReductionWorkload
    from repro.workloads.stencil import StencilConfig, StencilWorkload

    return {
        "fir": (FirWorkload, FirConfig),
        "radix": (RadixSortWorkload, RadixSortConfig),
        "hashjoin": (HashJoinWorkload, HashJoinConfig),
        "bfs": (BfsWorkload, BfsConfig),
        "kmeans": (KMeansWorkload, KMeansConfig),
        "knn": (KnnWorkload, KnnConfig),
        "stencil": (StencilWorkload, StencilConfig),
        "reduction": (ReductionWorkload, ReductionConfig),
    }


def _micro_workload(point: SweepPoint):
    workload_cls, config_cls = _micro_factories()[point.workload]
    return workload_cls(config_cls().scaled(point.scale))


def _install_chaos(runtime, point: SweepPoint):
    """Build and install the point's injector; ``None`` when chaos-free."""
    if not point.chaos:
        return None
    from repro.chaos.injector import ChaosInjector
    from repro.chaos.schedule import ChaosConfig

    return ChaosInjector(ChaosConfig.from_items(point.chaos)).install(runtime)


@dataclass
class _PointPlan:
    """A point decomposed into the split-phase protocol."""

    setup: Callable
    body: Callable
    system: str
    config_label: str
    app_bytes: int
    ratio: float
    metric: Optional[Callable] = None


def _point_plan(point: SweepPoint) -> _PointPlan:
    """Split-phase plan for ``point`` (No-UVM DL points have an empty
    setup prefix)."""
    system = System(point.system)
    if point.is_dl:
        trainer = _dl_trainer(point, system)
        return _PointPlan(
            setup=trainer.setup_program(),
            body=trainer.body_program(),
            system=system.value,
            config_label=f"bs={point.batch_size}",
            app_bytes=trainer.app_bytes,
            ratio=1.0,  # DL oversubscribes via batch size, not an occupant
            metric=trainer.images_per_second,
        )
    workload = _micro_workload(point)
    return _PointPlan(
        setup=workload.setup_program(),
        body=workload.body_program(system),
        system=system.value,
        config_label=ratio_label(point.ratio),
        app_bytes=workload.config.app_bytes,
        ratio=point.ratio,
    )


def build_prefix(point: SweepPoint, plan: _PointPlan):
    """Simulate ``point``'s setup prefix; the quiescent runtime, or
    ``None`` when the prefix does not fit."""
    from repro.harness.runner import run_uvm_prefix

    try:
        return run_uvm_prefix(
            plan.setup,
            _gpu_spec(point),
            _link(point),
            driver_config=_driver_config(point),
        )
    except OutOfMemoryError:
        return None


class PointObserver:
    """Something a caller attaches to a point's measured body.

    :func:`run_split_phase` calls :meth:`install` after the prefix (and
    any fork) and before chaos, :meth:`body_done` after a body that
    finished while chaos is still installed, and :meth:`uninstall` once
    chaos is gone, on every path.  Observers never see the setup
    prefix, so a cold and a forked run observe the same body.
    """

    def install(self, runtime, plan: _PointPlan) -> None:
        pass

    def body_done(self, runtime) -> None:
        pass

    def uninstall(self) -> None:
        pass


def run_split_phase(
    point: SweepPoint,
    plan: _PointPlan,
    snapshot=None,
    observers: Sequence[PointObserver] = (),
) -> Tuple[Optional[ExperimentResult], Optional[object]]:
    """Run one point as setup prefix, then measured body.

    The one execution path of every simulated point — run, sweep,
    serve and trace.  Without ``snapshot`` the prefix is simulated
    here; with one, the body runs on a fork of it, reconfigured to the
    point's full driver config.  Then ``observers`` install in order,
    then the point's chaos injector, the body runs, and everything
    uninstalls in reverse order.

    Returns ``(result, runtime)``; ``result`` is ``None`` when the
    point does not fit, ``runtime`` is ``None`` when the prefix itself
    did not.
    """
    from repro.harness.runner import run_uvm_body

    if snapshot is None:
        runtime = build_prefix(point, plan)
        if runtime is None:
            return None, None
    else:
        from repro.driver.config import UvmDriverConfig

        runtime = snapshot.fork()
        runtime.driver.reconfigure(_driver_config(point) or UvmDriverConfig())
    installed: List[PointObserver] = []
    try:
        for observer in observers:
            observer.install(runtime, plan)
            installed.append(observer)
        injector = _install_chaos(runtime, point)
        try:
            result = run_uvm_body(
                runtime,
                plan.body,
                plan.system,
                plan.config_label,
                plan.app_bytes,
                plan.ratio,
                metric=plan.metric,
            )
            for observer in observers:
                observer.body_done(runtime)
        finally:
            if injector is not None:
                injector.uninstall()
    except OutOfMemoryError:
        result = None
    finally:
        for observer in reversed(installed):
            observer.uninstall()
    return result, runtime


def execute_point(point: SweepPoint) -> Optional[ExperimentResult]:
    """Resolve one point; ``None`` when the configuration does not fit
    (the paper's No-UVM OOM crash under oversubscription).

    ``mode="exact"`` simulates; ``mode="fast"`` answers from the
    calibrated analytical model without simulating (raising
    :class:`~repro.fastmodel.FastModelError` when no calibration
    covers the point).  Every simulated point runs through
    :func:`run_split_phase`.
    """
    if point.mode == "fast":
        from repro.fastmodel import predict_point

        return predict_point(point)
    return run_split_phase(point, _point_plan(point))[0]


# ----------------------------------------------------------------------
# shared-prefix snapshots
# ----------------------------------------------------------------------

#: Driver-config fields that influence the *setup* prefix (CPU faults
#: during host initialization, instrumentation that records them).  Two
#: points may share one prefix snapshot only when these agree; every
#: other knob is setup-inert and is re-applied per fork via
#: :meth:`~repro.driver.driver.UvmDriver.reconfigure`.
SETUP_AFFECTING_DRIVER_KEYS = frozenset(
    {
        "cpu_fault_overhead",
        "event_log_enabled",
        "event_log_capacity",
        "keep_transfer_records",
    }
)


def prefix_key(point: SweepPoint) -> Optional[Tuple]:
    """Key of the setup-prefix snapshot ``point`` can fork from, or
    ``None`` when it has no prefix (fast mode, No-UVM).

    The key deliberately excludes ``system`` (all UVM systems share the
    same CPU-only setup), ``ratio`` (the oversubscription occupant is
    reserved after forking and costs no simulated time), and ``chaos``
    (the injector installs per fork, after the shared prefix — setup is
    always simulated fault-free).  The experiment server's snapshot
    pools and prefix-affine dispatch are keyed by it.
    """
    if point.mode == "fast" or System(point.system) is System.NO_UVM:
        return None
    setup_overrides = tuple(
        (k, v)
        for k, v in point.driver
        if k in SETUP_AFFECTING_DRIVER_KEYS
    )
    return (
        point.workload,
        point.link,
        point.scale,
        point.gpu,
        point.batch_size,
        point.batches,
        setup_overrides,
    )


def execute_group(
    points: Sequence[SweepPoint],
) -> List[Optional[ExperimentResult]]:
    """Simulate points sharing one :func:`prefix_key` from one snapshot.

    The first point's setup prefix is simulated once and snapshotted,
    and every point's body runs on a fork of it.  Forked runs are
    bit-for-bit identical to :func:`execute_point` (``tests/
    test_snapshot_fork.py`` pins that down).  Sweeps do not use this:
    a fork costs about as much as building the prefix
    (``docs/SWEEPS.md``).  Points without a prefix, or whose snapshot
    cannot be taken, run through :func:`execute_point`.
    """
    from repro.engine.snapshot import resolve_prefix_snapshot

    points = list(points)
    plans = [_point_plan(point) for point in points]
    key = prefix_key(points[0]) if points else None
    snapshot = None
    if key is not None:
        snapshot, _ = resolve_prefix_snapshot(
            key, lambda: build_prefix(points[0], plans[0])
        )
    if snapshot is None:
        return [execute_point(point) for point in points]
    return [
        run_split_phase(point, plan, snapshot)[0]
        for point, plan in zip(points, plans)
    ]


def _outcome_to_dict(result: Optional[ExperimentResult]) -> Dict[str, object]:
    if result is None:
        return {"status": "oom"}
    return {"status": "ok", "result": result.to_dict()}


def _outcome_from_dict(outcome: object) -> Optional[ExperimentResult]:
    """Decode a stored outcome; raises on any corrupt/foreign shape."""
    if not isinstance(outcome, dict):
        raise ValueError(f"outcome is not an object: {outcome!r}")
    status = outcome.get("status")
    if status == "oom":
        return None
    if status != "ok":
        raise ValueError(f"unknown outcome status: {status!r}")
    return ExperimentResult.from_dict(outcome["result"])


def _pool_worker(item: Tuple[int, Dict[str, object]]) -> Tuple[int, Dict[str, object]]:
    """Top-level (picklable) worker: simulate one point in a subprocess."""
    index, point_dict = item
    point = SweepPoint.from_dict(point_dict)
    return index, _outcome_to_dict(execute_point(point))


# ----------------------------------------------------------------------
# on-disk result cache
# ----------------------------------------------------------------------


#: Distinguishes concurrent writers' temp files within one process; the
#: pid alone is not enough once the experiment server's thread pool and
#: the sweep's process pool share a cache root.
_TMP_COUNTER = itertools.count()


class ResultCache:
    """Content-addressed on-disk store of finished sweep points.

    Entries live at ``<root>/<key[:2]>/<key>.json``; a key is the
    sha256 of the point's canonical JSON plus :data:`CACHE_VERSION`, so
    *any* input change — workload, system, link, ratio, batch, scale,
    GPU, driver override, or cache schema — misses and re-simulates.
    Unreadable or corrupt entries are treated as misses, never errors.

    The store is safe under concurrent readers and writers from any mix
    of threads and processes (the experiment server hammers it from
    both): each writer stages to a uniquely-named temp file (pid +
    thread id + counter) and publishes with the atomic ``os.replace``,
    so a reader observes either the old complete entry or the new one,
    never a partial write.  Reads retry briefly on transient
    ``OSError`` and fall back to a miss.  Concurrent writers of the
    same key are idempotent — both write the identical deterministic
    outcome — so last-replace-wins is correct.
    """

    #: Read attempts before treating a transient error as a miss.
    READ_RETRIES = 3

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, point: SweepPoint, key: Optional[str] = None) -> Path:
        # The sha256 over canonical JSON is the expensive part of a cache
        # probe; callers that already hold the key pass it to avoid
        # hashing the same point two or three times per lookup.
        if key is None:
            key = point.cache_key()
        return self.root / key[:2] / f"{key}.json"

    def get(self, point: SweepPoint) -> Optional[Dict[str, object]]:
        """The stored outcome dict, or ``None`` on miss/corruption."""
        key = point.cache_key()
        path = self.path_for(point, key)
        payload = None
        for attempt in range(self.READ_RETRIES):
            try:
                payload = json.loads(path.read_text())
                break
            except FileNotFoundError:
                return None
            except (OSError, ValueError):
                # A transient read failure (e.g. replace-in-progress on a
                # filesystem without atomic rename semantics); back off
                # briefly, then treat as a miss.
                if attempt + 1 < self.READ_RETRIES:
                    time.sleep(0.005 * (attempt + 1))
        if payload is None:
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != CACHE_VERSION:
            return None
        if payload.get("key") != key:
            return None
        outcome = payload.get("outcome")
        try:
            _outcome_from_dict(outcome)
        except (KeyError, TypeError, ValueError):
            return None
        return outcome  # type: ignore[return-value]

    def put(self, point: SweepPoint, outcome: Dict[str, object]) -> None:
        """Atomically persist one outcome (write temp file, then rename).

        The temp name is unique per (process, thread, call) so two
        concurrent writers — even threads sharing a pid — never
        interleave bytes in one staging file.
        """
        key = point.cache_key()
        path = self.path_for(point, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_VERSION,
            "key": key,
            "point": point.to_dict(),
            "outcome": outcome,
        }
        tmp = path.with_suffix(
            f".tmp-{os.getpid()}-{threading.get_ident()}-{next(_TMP_COUNTER)}"
        )
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except OSError:
            # Cache writes are best-effort; never fail the simulation.
            try:
                tmp.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# the sweep runner
# ----------------------------------------------------------------------


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` learned, aligned index-for-index."""

    points: List[SweepPoint]
    results: List[Optional[ExperimentResult]]
    #: Per-point provenance: ``"cache"`` or ``"run"``.
    provenance: List[str]
    wall_seconds: float

    @property
    def cached(self) -> int:
        return sum(1 for p in self.provenance if p == "cache")

    @property
    def simulated(self) -> int:
        return sum(1 for p in self.provenance if p == "run")

    def rows(self) -> List[Tuple[SweepPoint, Optional[ExperimentResult]]]:
        return list(zip(self.points, self.results))

    def to_json(self) -> str:
        """Canonical serialization of (point, outcome) pairs.

        Independent of execution order, job count and cache state — two
        reports over the same points compare byte-for-byte equal exactly
        when every simulated value matches.
        """
        return json.dumps(
            [
                {"point": point.to_dict(), "outcome": _outcome_to_dict(result)}
                for point, result in self.rows()
            ],
            sort_keys=True,
            indent=1,
        )


def run_sweep(
    points: Union[SweepGrid, Iterable[SweepPoint]],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Execute a batch of sweep points, using the cache and worker pool.

    Every cache miss runs through :func:`execute_point`: inline, or one
    point per worker process with ``jobs > 1``; hits are served inline.
    Results are returned in point order regardless of completion order,
    so output is deterministic for any job count.
    """
    if isinstance(points, SweepGrid):
        points = points.expand()
    points = list(points)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1: {jobs}")
    started = time.monotonic()
    total = len(points)
    results: List[Optional[ExperimentResult]] = [None] * total
    provenance: List[str] = ["run"] * total
    done = 0

    def note(index: int, source: str) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            point = points[index]
            if source == "cache":
                suffix = "cached"
            elif point.mode == "fast":
                suffix = "predicted"
            else:
                suffix = "simulated"
            progress(f"[{done}/{total}] {suffix} {point.label}")

    pending: List[int] = []
    for index, point in enumerate(points):
        outcome = cache.get(point) if cache is not None else None
        if outcome is not None:
            results[index] = _outcome_from_dict(outcome)
            provenance[index] = "cache"
            note(index, "cache")
        else:
            pending.append(index)

    def finish(index: int, outcome: Dict[str, object]) -> None:
        results[index] = _outcome_from_dict(outcome)
        if cache is not None:
            cache.put(points[index], outcome)
        note(index, "run")

    # Analytical fast-mode points resolve in microseconds; answer them
    # inline instead of shipping them through the worker pool.
    simulated: List[int] = []
    for index in pending:
        if points[index].mode == "fast":
            finish(index, _outcome_to_dict(execute_point(points[index])))
        else:
            simulated.append(index)

    if jobs > 1 and len(simulated) > 1:
        work = [(index, points[index].to_dict()) for index in simulated]
        with multiprocessing.Pool(processes=min(jobs, len(work))) as pool:
            for index, outcome in pool.imap_unordered(_pool_worker, work):
                finish(index, outcome)
    else:
        for index in simulated:
            finish(index, _outcome_to_dict(execute_point(points[index])))

    return SweepReport(points, results, provenance, time.monotonic() - started)
