"""Snapshot/fork correctness: forked runs must be bit-identical to cold.

Three layers, mirroring the machinery's structure:

- engine level — :class:`~repro.engine.snapshot.EngineSnapshot` only
  accepts quiescent graphs (a hypothesis sweep stops simulations at
  random points and checks the legality decision), the ``_PENDING``
  sentinel and finished processes survive deep copies, live processes
  fail loudly,
- group level — for a differential corpus spanning every workload
  family, system, ratio and a set of setup-inert driver variants,
  :func:`~repro.harness.sweep.execute_group` (shared prefix, snapshot,
  fork per point) must reproduce :func:`execute_point` (cold,
  split-phase) results byte-for-byte, and :func:`execute_point` must
  reproduce the workload's own ``run()`` (the paper benchmarks' path),
- sweep level — :func:`run_sweep` reports and cache contents must be
  identical at one job and at two.

There is deliberately no tolerance anywhere in this file: forking and
the setup/body split are advertised as changing no simulated value, so
a single diverging bit is a semantics bug, not noise.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.core import Environment, _PENDING
from repro.engine.snapshot import EngineSnapshot, assert_quiescent
from repro.errors import SnapshotError
from repro.harness.sweep import (
    ResultCache,
    SweepPoint,
    execute_group,
    execute_point,
    prefix_key,
    run_sweep,
)

UVM_SYSTEMS = ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")


def _corpus():
    """The differential corpus: every family x system x two ratios,
    plus setup-inert driver variants and a DL grid."""
    points = []
    for workload, ratios in (
        ("fir", (1.5, 2.0)),
        ("radix", (0.9, 2.0)),
        ("hashjoin", (1.0, 2.0)),
    ):
        for system in UVM_SYSTEMS:
            for ratio in ratios:
                points.append(
                    SweepPoint(workload, system, ratio=ratio, scale=0.01)
                )
    for variant in (
        {"eviction_policy": "fifo"},
        {"strict_lazy": True},
        {"discarded_queue_enabled": False},
    ):
        points.append(
            SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01, driver=variant)
        )
    for system in UVM_SYSTEMS:
        points.append(
            SweepPoint("dl:vgg16", system, batch_size=8, scale=0.03125)
        )
    return points


def _grouped_corpus():
    groups = {}
    for point in _corpus():
        groups.setdefault(prefix_key(point), []).append(point)
    assert None not in groups
    return sorted(groups.items(), key=lambda kv: repr(kv[0]))


def _own_run(point):
    """``point`` through the workload's own ``run()``."""
    from repro.errors import OutOfMemoryError
    from repro.harness.sweep import (
        _dl_trainer,
        _driver_config,
        _gpu_spec,
        _link,
        _micro_workload,
    )
    from repro.harness.systems import System

    system = System(point.system)
    gpu, link, driver_config = _gpu_spec(point), _link(point), _driver_config(point)
    try:
        if point.is_dl:
            return _dl_trainer(point, system).run(
                gpu, link, driver_config=driver_config
            )
        return _micro_workload(point).run(
            system, point.ratio, gpu, link, driver_config=driver_config
        )
    except OutOfMemoryError:
        return None


def _canonical(result):
    if result is None:
        return None
    return json.dumps(result.to_dict(), sort_keys=True)


class TestEngineSnapshot:
    def test_pending_sentinel_identity_survives_deepcopy(self):
        assert copy.deepcopy(_PENDING) is _PENDING
        assert copy.deepcopy({"k": _PENDING})["k"] is _PENDING

    def test_live_process_refuses_deepcopy(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        with pytest.raises(SnapshotError):
            copy.deepcopy(process)

    def test_finished_process_deepcopies_without_generator(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        process = env.process(proc())
        env.run()
        clone = copy.deepcopy(process)
        assert clone.value == "done"
        assert clone._generator is None

    def test_snapshot_rejects_pending_events(self):
        env = Environment()
        env.timeout(1.0)
        with pytest.raises(SnapshotError):
            EngineSnapshot(env)

    def test_snapshot_rejects_busy_runtime(self):
        from repro.cuda.runtime import CudaRuntime

        runtime = CudaRuntime()
        runtime.env.timeout(1.0)
        with pytest.raises(SnapshotError):
            EngineSnapshot(runtime)

    def test_assert_quiescent_requires_checkable_root(self):
        with pytest.raises(SnapshotError):
            assert_quiescent(object())

    def test_forks_are_independent(self):
        env = Environment()

        def proc():
            yield env.timeout(2.5e-6)

        env.process(proc())
        env.run()
        snapshot = EngineSnapshot(env)
        fork_a = snapshot.fork()
        assert fork_a.now == env.now

        def more(e):
            yield e.timeout(1e-6)

        fork_a.process(more(fork_a))
        fork_a.run()
        fork_b = snapshot.fork()
        assert fork_a.now > env.now
        assert fork_b.now == env.now  # payload untouched by fork_a's run

    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.integers(min_value=1, max_value=40),
        stop_steps=st.integers(min_value=0, max_value=60),
    )
    def test_snapshot_legality_at_random_stop_points(self, steps, stop_steps):
        """Stopping a simulation after an arbitrary number of events:
        a snapshot is legal exactly when the run has fully drained."""
        env = Environment()

        def proc():
            # Whole-second steps keep the accumulated clock float-exact,
            # so the deadline comparison below is not at the mercy of the
            # last ulp of a 1e-6 sum.
            for _ in range(steps):
                yield env.timeout(1.0)

        env.process(proc())
        env.run(until=float(stop_steps))
        if stop_steps >= steps:
            fork = EngineSnapshot(env).fork()
            assert fork.now == env.now
            assert fork.quiescent
        else:
            assert not env.quiescent
            with pytest.raises(SnapshotError):
                EngineSnapshot(env)


class TestPrefixKey:
    def test_no_uvm_is_never_grouped(self):
        point = SweepPoint("dl:vgg16", "No-UVM", batch_size=8, scale=0.03125)
        assert prefix_key(point) is None

    def test_system_ratio_and_inert_knobs_share_a_key(self):
        base = SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01)
        same = [
            SweepPoint("fir", "UVM-opt", ratio=2.0, scale=0.01),
            SweepPoint("fir", "UvmDiscard", ratio=3.0, scale=0.01),
            SweepPoint(
                "fir", "UvmDiscard", ratio=2.0, scale=0.01,
                driver={"eviction_policy": "fifo"},
            ),
        ]
        for point in same:
            assert prefix_key(point) == prefix_key(base), point.label

    def test_setup_affecting_fields_split_groups(self):
        base = SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01)
        different = [
            SweepPoint("radix", "UvmDiscard", ratio=2.0, scale=0.01),
            SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.02),
            SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01, link="gen3"),
            SweepPoint(
                "fir", "UvmDiscard", ratio=2.0, scale=0.01,
                driver={"cpu_fault_overhead": 0.0},
            ),
            SweepPoint(
                "fir", "UvmDiscard", ratio=2.0, scale=0.01,
                driver={"keep_transfer_records": True},
            ),
        ]
        for point in different:
            assert prefix_key(point) != prefix_key(base), point.label

    def test_dl_batches_field_splits_groups(self):
        a = SweepPoint("dl:vgg16", "UvmDiscard", batch_size=8, scale=0.03125)
        b = dataclasses.replace(a, batches=5)
        assert prefix_key(a) != prefix_key(b)


class TestForkEqualsCold:
    @pytest.mark.parametrize(
        "group", [g for _, g in _grouped_corpus()],
        ids=[f"{g[0].workload}@{g[0].scale:g}" for _, g in _grouped_corpus()],
    )
    def test_group_matches_cold_runs_byte_for_byte(self, group):
        cold = [execute_point(point) for point in group]
        forked = execute_group(group)
        for point, c, f in zip(group, cold, forked):
            assert _canonical(c) == _canonical(f), point.label
        # The sweep pipeline and the workload's own run() (what the
        # paper benchmarks call) must agree exactly.
        for point, c in zip(group, cold):
            assert _canonical(c) == _canonical(_own_run(point)), point.label

    def test_single_point_group_falls_back_to_cold(self):
        point = SweepPoint("fir", "UvmDiscard", ratio=2.0, scale=0.01)
        (forked,) = execute_group([point])
        assert _canonical(forked) == _canonical(execute_point(point))


class TestRunSweepJobs:
    POINTS = [
        SweepPoint("fir", system, ratio=ratio, scale=0.01)
        for system in ("UVM-opt", "UvmDiscard")
        for ratio in (1.5, 2.0)
    ] + [
        SweepPoint("dl:vgg16", system, batch_size=8, scale=0.03125)
        for system in ("UVM-opt", "UvmDiscard")
    ]

    def test_report_identical_at_one_and_two_jobs(self):
        serial = run_sweep(self.POINTS, jobs=1)
        pooled = run_sweep(self.POINTS, jobs=2)
        assert serial.to_json() == pooled.to_json()

    def test_cache_written_at_one_job_count_serves_the_other(self, tmp_path):
        for written, read in ((1, 2), (2, 1)):
            cache = ResultCache(tmp_path / f"jobs{written}")
            cold = run_sweep(self.POINTS, jobs=written, cache=cache)
            assert cold.simulated == len(self.POINTS)
            warm = run_sweep(self.POINTS, jobs=read, cache=cache)
            assert warm.simulated == 0
            assert warm.to_json() == cold.to_json()
