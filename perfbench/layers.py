"""Per-layer host-time tracing, installed from outside the package.

:class:`LayerTracer` replaces chosen functions and methods of the
``repro`` package with timing wrappers for as long as it is installed,
and restores the originals on :meth:`LayerTracer.uninstall`.  Every
wrapped call is a span; a span's *self time* is its duration minus the
durations of the wrapped spans nested inside it, so the self times of
all spans add up to the time covered by the outermost spans, and
``wall - covered`` is the time no layer claims (``unattributed_s``).

A function that returns a generator (a simulation process body such as
``UvmDriver.handle_gpu_faults``) gets a proxy that times every
resumption of the generator -- ``send``, ``throw``, ``next`` and
``close`` -- and not only its creation, because the engine resumes it
many times while other spans run in between.

The tracer keeps one span stack and so assumes a single thread runs
the wrapped code, which holds for an in-process sweep and for each
process of the experiment server (see ``serve_hook.py``).
"""

from __future__ import annotations

import importlib
import time
import types
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (metric name, module, attribute path).  The metric name's first
#: dotted component is the layer.  The attribute path is ``Class.method``
#: or a module-level function name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # engine: the dispatch loop; its self time includes the workload
    # programs' own generator code, which no layer below claims.
    ("engine.run", "repro.engine.core", "Environment.run"),
    ("engine.acquire", "repro.engine.resources", "Resource.acquire"),
    # driver: fault, evict, discard and prefetch paths
    ("driver.handle_gpu_faults", "repro.driver.driver", "UvmDriver.handle_gpu_faults"),
    ("driver.make_resident_gpu", "repro.driver.driver", "UvmDriver.make_resident_gpu"),
    ("driver.make_resident_cpu", "repro.driver.driver", "UvmDriver.make_resident_cpu"),
    ("driver.prefetch", "repro.driver.driver", "UvmDriver.prefetch"),
    ("driver.discard_block_eager", "repro.driver.driver", "UvmDriver.discard_block_eager"),
    ("driver.discard_block_lazy", "repro.driver.driver", "UvmDriver.discard_block_lazy"),
    ("driver.note_access", "repro.driver.driver", "UvmDriver.note_access"),
    ("driver.lock_blocks", "repro.driver.driver", "UvmDriver.lock_blocks"),
    ("driver.unlock_blocks", "repro.driver.driver", "UvmDriver.unlock_blocks"),
    ("driver.gpu_needs_fault", "repro.driver.driver", "UvmDriver.gpu_needs_fault"),
    ("driver.register_blocks", "repro.driver.driver", "UvmDriver.register_blocks"),
    ("driver.release_blocks", "repro.driver.driver", "UvmDriver.release_blocks"),
    ("driver.finalize", "repro.driver.driver", "UvmDriver.finalize"),
    ("driver.reconfigure", "repro.driver.driver", "UvmDriver.reconfigure"),
    # vm: page tables (scalar reference and vectorized bitmap)
    ("vm.is_mapped", "repro.vm.page_table", "PageTable.is_mapped"),
    ("vm.map_block", "repro.vm.page_table", "PageTable.map_block"),
    ("vm.unmap_block", "repro.vm.page_table", "PageTable.unmap_block"),
    ("vm.map_blocks", "repro.vm.page_table", "PageTable.map_blocks"),
    ("vm.unmap_blocks", "repro.vm.page_table", "PageTable.unmap_blocks"),
    ("vm.is_mapped", "repro.vm.page_table", "BitmapPageTable.is_mapped"),
    ("vm.map_block", "repro.vm.page_table", "BitmapPageTable.map_block"),
    ("vm.unmap_block", "repro.vm.page_table", "BitmapPageTable.unmap_block"),
    ("vm.map_blocks", "repro.vm.page_table", "BitmapPageTable.map_blocks"),
    ("vm.unmap_blocks", "repro.vm.page_table", "BitmapPageTable.unmap_blocks"),
    # migration: the driver's migration engine and the link model
    ("migration.transfer_blocks", "repro.driver.migration", "MigrationEngine.transfer_blocks"),
    ("migration.transfer_blocks_peer", "repro.driver.migration", "MigrationEngine.transfer_blocks_peer"),
    ("migration.raw_transfer", "repro.driver.migration", "MigrationEngine.raw_transfer"),
    ("migration.transfer_time", "repro.driver.migration", "MigrationEngine.transfer_time"),
    ("migration.link_transfer_time", "repro.interconnect.link", "Link.transfer_time"),
    # memsim: frame allocator and zero-fill model
    ("memsim.allocate", "repro.memsim.frames", "FrameAllocator.allocate"),
    ("memsim.free", "repro.memsim.frames", "FrameAllocator.free"),
    ("memsim.reserve", "repro.memsim.frames", "FrameAllocator.reserve"),
    ("memsim.unreserve", "repro.memsim.frames", "FrameAllocator.unreserve"),
    ("memsim.zero_time", "repro.memsim.zeroing", "ZeroFillModel.zero_time"),
    # gpu: kernel execution
    ("gpu.run_kernel", "repro.gpu.executor", "GpuExecutor.run_kernel"),
    # cuda: the runtime API and streams
    ("cuda.run", "repro.cuda.runtime", "CudaRuntime.run"),
    ("cuda.malloc_managed", "repro.cuda.runtime", "CudaRuntime.malloc_managed"),
    ("cuda.free", "repro.cuda.runtime", "CudaRuntime.free"),
    ("cuda.host_write", "repro.cuda.runtime", "CudaRuntime.host_write"),
    ("cuda.host_read", "repro.cuda.runtime", "CudaRuntime.host_read"),
    ("cuda.host_update", "repro.cuda.runtime", "CudaRuntime.host_update"),
    ("cuda.prefetch_async", "repro.cuda.runtime", "CudaRuntime.prefetch_async"),
    ("cuda.discard_async", "repro.cuda.runtime", "CudaRuntime.discard_async"),
    ("cuda.launch", "repro.cuda.runtime", "CudaRuntime.launch"),
    ("cuda.launch_raw", "repro.cuda.runtime", "CudaRuntime.launch_raw"),
    ("cuda.memcpy_async", "repro.cuda.runtime", "CudaRuntime.memcpy_async"),
    ("cuda.synchronize", "repro.cuda.runtime", "CudaRuntime.synchronize"),
    ("cuda.enqueue", "repro.cuda.stream", "CudaStream.enqueue"),
    ("cuda.blocks_in", "repro.cuda.memory", "ManagedBuffer.blocks_in"),
    # core: the discard directives
    ("core.discard", "repro.core.discard", "DiscardManager.discard"),
    ("core.discard_range", "repro.core.discard", "DiscardManager.discard_range"),
    ("core.select_blocks", "repro.core.discard", "DiscardManager.select_blocks"),
    # instrument: counters, traffic, redundancy classifier, event log
    ("instrument.bump", "repro.instrument.counters", "Counters.bump"),
    ("instrument.traffic_record", "repro.instrument.traffic", "TrafficRecorder.record"),
    ("instrument.rmt_on_transfer", "repro.instrument.rmt", "RmtClassifier.on_transfer"),
    ("instrument.rmt_on_read", "repro.instrument.rmt", "RmtClassifier.on_read"),
    ("instrument.rmt_on_overwrite", "repro.instrument.rmt", "RmtClassifier.on_overwrite"),
    ("instrument.rmt_on_discard", "repro.instrument.rmt", "RmtClassifier.on_discard"),
    ("instrument.rmt_finalize", "repro.instrument.rmt", "RmtClassifier.finalize"),
    ("instrument.log", "repro.instrument.eventlog", "EventLog.log"),
    # snapshot transport and the prefix build it replaces
    ("snapshot.serialize", "repro.engine.snapshot", "EngineSnapshot.__init__"),
    ("snapshot.fork", "repro.engine.snapshot", "EngineSnapshot.fork"),
    ("snapshot.blob_fetch", "repro.engine.snapshot", "BlobStore.fetch_or_claim"),
    ("snapshot.pool_lookup", "repro.engine.snapshot", "SnapshotPool.lookup"),
    ("harness.prefix_build", "repro.harness.runner", "run_uvm_prefix"),
    ("harness.body", "repro.harness.runner", "run_uvm_body"),
    ("harness.execute_point", "repro.harness.sweep", "execute_point"),
    ("harness.execute_group", "repro.harness.sweep", "execute_group"),
    ("harness.result_from_runtime", "repro.harness.results", "ExperimentResult.from_runtime"),
    # result cache and fast model
    ("result_cache.get", "repro.harness.sweep", "ResultCache.get"),
    ("result_cache.put", "repro.harness.sweep", "ResultCache.put"),
    ("fastmodel.predict", "repro.fastmodel.model", "FastModel.predict"),
)


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        #: Calls that returned something other than ``None`` (the
        #: result cache's hits; meaningless for other functions).
        self.hits = 0


class LayerTracer:
    """Install timing wrappers, accumulate per-function self time.

    ``clock`` is injectable so a test can drive the accounting with
    exact, hand-chosen durations.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, _Stat] = {}
        #: Child-span durations accumulated for each open span.
        self._stack: List[float] = []
        #: Sum of the durations of spans with no wrapped parent.
        self.covered_s = 0.0
        #: Events processed inside wrapped ``Environment.run`` calls.
        self.engine_events = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------

    def stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def reset(self) -> None:
        """Zero every figure (wrappers stay installed)."""
        for stat in self.stats.values():
            stat.calls = stat.hits = 0
            stat.self_s = stat.total_s = 0.0
        self._stack.clear()
        self.covered_s = 0.0
        self.engine_events = 0

    def timed(self, stat: _Stat, call: Callable, *args, **kwargs):
        """Run ``call`` as one span charged to ``stat``."""
        stack = self._stack
        clock = self.clock
        stack.append(0.0)
        started = clock()
        try:
            return call(*args, **kwargs)
        finally:
            duration = clock() - started
            child = stack.pop()
            stat.self_s += duration - child
            stat.total_s += duration
            if stack:
                stack[-1] += duration
            else:
                self.covered_s += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A timing wrapper for ``fn`` charged to metric ``name``.

        The span bookkeeping of :meth:`timed` is inlined here: this
        wrapper runs millions of times per sweep, and one Python call
        less per span is most of the tracing overhead saved.
        """
        stat = self.stat(name)
        stack = self._stack
        clock = self.clock
        generator_type = types.GeneratorType

        def wrapper(*args, **kwargs):
            stat.calls += 1
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - started
                stat.self_s += duration - stack.pop()
                stat.total_s += duration
                if stack:
                    stack[-1] += duration
                else:
                    self.covered_s += duration
            if type(result) is generator_type:
                return _TimedGenerator(self, stat, result)
            if result is not None:
                stat.hits += 1
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -------------------------------------------

    def install(self, targets: Iterable[Tuple[str, str, str]] = TARGETS) -> None:
        """Wrap every target in place."""
        for name, module_name, path in targets:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            descriptor = type(original)
            if descriptor in (classmethod, staticmethod):
                wrapped = descriptor(self.wrap(name, original.__func__))
            else:
                wrapped = self.wrap(name, original)
            if name == "engine.run":
                wrapped = self._count_events(wrapped)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _count_events(self, run: Callable) -> Callable:
        def counted(env, *args, **kwargs):
            before = env._event_count
            try:
                return run(env, *args, **kwargs)
            finally:
                self.engine_events += env._event_count - before

        counted.__wrapped__ = run
        counted.__name__ = run.__name__
        return counted

    # -- report ----------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + stat.self_s
        return layers

    def check_accounting(self, wall_s: float) -> Optional[str]:
        """``None`` when per-layer self times plus the unattributed
        remainder sum to ``wall_s``; otherwise the discrepancy."""
        if self._stack:
            return f"{len(self._stack)} spans still open"
        negative = [n for n, s in self.stats.items() if s.self_s < -1e-9]
        if negative:
            return f"negative self time in {sorted(negative)}"
        unattributed = wall_s - self.covered_s
        if unattributed < -1e-6:
            return f"spans cover {self.covered_s:.6f}s of a {wall_s:.6f}s wall"
        total = sum(self.layer_self().values()) + unattributed
        if abs(total - wall_s) > 1e-9 * max(1.0, len(self.stats)) + 1e-6 * wall_s:
            return f"self times + unattributed = {total!r}, wall = {wall_s!r}"
        return None


class _TimedGenerator:
    """Times every resumption of a wrapped generator."""

    __slots__ = ("_tracer", "_stat", "_gen")

    def __init__(self, tracer: LayerTracer, stat: _Stat, gen) -> None:
        self._tracer = tracer
        self._stat = stat
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.timed(self._stat, self._gen.send, None)

    def send(self, value):
        return self._tracer.timed(self._stat, self._gen.send, value)

    def throw(self, *args):
        return self._tracer.timed(self._stat, self._gen.throw, *args)

    def close(self):
        return self._tracer.timed(self._stat, self._gen.close)


def _resolve(module_name: str, path: str):
    """(owner whose ``__dict__`` defines the attribute, attribute name)."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return klass, attr
        raise AttributeError(f"{module_name}.{path} not found")
    if attr not in owner.__dict__:
        raise AttributeError(f"{module_name}.{path} not found")
    return owner, attr
