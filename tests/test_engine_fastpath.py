"""Edge-case and fast-path regression tests for the engine kernel.

The optimized engine takes shortcuts — synchronous continuation through
already-processed events, ``try_acquire`` grants that never touch the
heap, recycled :class:`Timeout` objects, timeouts taken inline by the
run-ahead clock (:meth:`Environment.advance`), lazily formatted log
entries.  These tests pin down the semantics the shortcuts must
preserve.
"""

from __future__ import annotations

import pytest

from repro.engine.core import Environment, Timeout
from repro.engine.resources import Request, Resource, Store
from repro.errors import SimulationError
from repro.instrument.eventlog import EventLog, LogEntry


class Boom(RuntimeError):
    pass


class TestAllOfFailure:
    def test_child_failure_propagates_to_waiter(self):
        env = Environment()
        seen = {}

        def failing():
            yield env.timeout(1.0)
            raise Boom("child died")

        def healthy():
            yield env.timeout(2.0)
            return "ok"

        def waiter():
            try:
                yield env.all_of([env.process(failing()), env.process(healthy())])
            except Boom as exc:
                seen["error"] = str(exc)
                seen["time"] = env.now

        env.process(waiter())
        env.run()
        assert seen["error"] == "child died"
        # The failure surfaces when the failing child dies, not when the
        # slower sibling would have completed.
        assert seen["time"] == pytest.approx(1.0)

    def test_already_failed_child_rejected(self):
        env = Environment()
        failed = env.event()
        failed.fail(Boom("pre-failed"))

        def waiter():
            with pytest.raises(Boom):
                yield env.all_of([failed, env.timeout(1.0)])

        env.process(waiter())
        env.run()


class TestRequestCancel:
    def test_cancel_while_queued_skips_grant(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = []

        def holder():
            request = resource.request()
            yield request
            yield env.timeout(1.0)
            resource.release(request)

        def cancelling_waiter():
            request = resource.request()
            yield env.timeout(0.5)  # still queued behind the holder
            request.cancel()
            granted.append(("cancelled-fired", request.triggered))

        def patient_waiter():
            request = resource.request()
            yield request
            granted.append(("patient", env.now))
            resource.release(request)

        env.process(holder())
        env.process(cancelling_waiter())
        env.process(patient_waiter())
        env.run()
        # The freed slot bypasses the cancelled request and goes to the
        # next one in FIFO order; the cancelled request never fires.
        assert ("cancelled-fired", False) in granted
        assert ("patient", pytest.approx(1.0)) in granted

    def test_cancel_of_granted_request_rejected(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        request = resource.request()  # granted immediately
        with pytest.raises(SimulationError):
            request.cancel()

    def test_cancel_twice_rejected(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.request()  # occupies the slot
        queued = resource.request()
        queued.cancel()
        with pytest.raises(SimulationError):
            queued.cancel()


class TestStoreOrdering:
    def test_simultaneous_puts_wake_getters_in_fifo_order(self):
        env = Environment()
        store = Store(env)
        received = []

        def getter(name):
            item = yield store.get()
            received.append((name, item, env.now))

        def putter():
            yield env.timeout(1.0)
            # Both puts land at the same timestamp; the oldest blocked
            # getter must receive the oldest item.
            store.put("first")
            store.put("second")

        env.process(getter("g1"))
        env.process(getter("g2"))
        env.process(putter())
        env.run()
        assert received == [
            ("g1", "first", pytest.approx(1.0)),
            ("g2", "second", pytest.approx(1.0)),
        ]

    def test_put_before_get_keeps_fifo(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        out = []

        def drain():
            out.append((yield store.get()))
            out.append((yield store.get()))

        env.process(drain())
        env.run()
        assert out == [1, 2]


class TestTryAcquire:
    def test_grants_when_free_and_yield_is_noop(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def fast():
            request = resource.try_acquire()
            assert isinstance(request, Request)
            yield request  # already processed: resumes without scheduling
            order.append(("held", env.now))
            yield env.timeout(1.0)
            resource.release(request)
            order.append(("released", env.now))

        env.process(fast())
        env.run()
        assert order == [("held", 0.0), ("released", 1.0)]

    def test_returns_none_when_full_or_contended(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.try_acquire()
        assert first is not None
        assert resource.try_acquire() is None  # full
        waiter = resource.request()  # queues behind the grant
        resource.release(first)
        # waiter now holds the slot; a queue ever being non-empty must
        # never let try_acquire jump the FIFO.
        assert resource.in_use == 1
        resource.release(waiter)
        assert resource.try_acquire() is not None

    def test_release_of_fast_grant_wakes_queued_waiter(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        woken = []

        def fast():
            request = resource.try_acquire()
            yield env.timeout(1.0)
            resource.release(request)

        def slow():
            request = resource.request()
            yield request
            woken.append(env.now)
            resource.release(request)

        env.process(fast())
        env.process(slow())
        env.run()
        assert woken == [pytest.approx(1.0)]


class TestTimeoutRecycling:
    def test_many_sequential_timeouts_keep_correct_delays(self):
        env = Environment()
        trace = []

        def ticker():
            for i in range(1, 300):
                yield env.timeout(i * 1e-6)
                trace.append(env.now)

        env.process(ticker())
        env.run()
        expected = 0.0
        for i, now in zip(range(1, 300), trace):
            expected += i * 1e-6
            assert now == pytest.approx(expected)

    def test_held_reference_is_not_recycled(self):
        env = Environment()
        kept = {}

        def holder():
            timeout = env.timeout(2.0)
            kept["timeout"] = timeout
            yield timeout
            # Burn through enough further timeouts that a recycled object
            # would have been reinitialized by now.
            for _ in range(50):
                yield env.timeout(0.1)

        env.process(holder())
        env.run()
        assert isinstance(kept["timeout"], Timeout)
        assert kept["timeout"].delay == 2.0


class _Grenade:
    """Formatting sentinel: any stringification is a test failure."""

    def __str__(self):
        raise AssertionError("sentinel was formatted")

    __repr__ = __str__
    __format__ = None  # belt and braces: format() would TypeError


class TestEventLogLaziness:
    def test_disabled_log_never_formats(self):
        log = EventLog(enabled=False)
        log.log(0.0, "evict", "reclaimed block %s", _Grenade())
        assert len(log) == 0

    def test_enabled_log_defers_formatting_until_read(self):
        log = EventLog(enabled=True)
        log.log(0.0, "evict", "reclaimed block %s", _Grenade())
        entry = log.entries()[0]
        assert entry._args  # still raw: nothing interpolated yet
        with pytest.raises(AssertionError, match="sentinel was formatted"):
            _ = entry.message

    def test_interpolation_happens_once_and_caches(self):
        class Counting:
            calls = 0

            def __str__(self):
                Counting.calls += 1
                return "block-7"

        log = EventLog(enabled=True)
        log.log(1.0, "fault", "migrated %s", Counting())
        entry = log.entries()[0]
        assert entry.message == "migrated block-7"
        assert entry.message == "migrated block-7"
        assert Counting.calls == 1

    def test_formatted_entries_compare_and_hash_on_message(self):
        eager = LogEntry(1.0, "fault", "migrated block-7")
        lazy = LogEntry(1.0, "fault", "migrated %s", "block-7")
        assert eager == lazy
        assert hash(eager) == hash(lazy)
        assert "migrated block-7" in str(lazy)

    def test_plain_message_without_args_untouched(self):
        log = EventLog(enabled=True)
        log.log(0.0, "note", "literal 100%% done")
        # No args: the template is the message, %-escapes included.
        assert log.entries()[0].message == "literal 100%% done"


# ---------------------------------------------------------------------------
# Run-ahead clock: Environment.advance
# ---------------------------------------------------------------------------


def _never(self, delay):
    """The reference engine: every timeout goes through the heap."""
    return False


def _inline(env, delay):
    """The call-site idiom of the driver, migration and gpu layers."""
    if not env.advance(delay):
        yield env.timeout(delay)


def _with_and_without(monkeypatch, run):
    """Call ``run()`` with the run-ahead clock, then with the reference.

    Asserts that both calls return equal outcomes and returns the first
    call's ``advance`` answers, in call order, so a case can also pin
    which calls ran ahead and which were refused.
    """
    real = Environment.advance
    answers = []

    def counting(self, delay):
        taken = real(self, delay)
        answers.append(taken)
        return taken

    outcomes = []
    for advance in (counting, _never):
        monkeypatch.setattr(Environment, "advance", advance)
        outcomes.append(run())
    assert outcomes[0] == outcomes[1]
    return answers


def _both_ways(monkeypatch, scenario):
    """:func:`_with_and_without` for ``scenario(env, log)`` on a fresh
    environment; the outcome is ``(now, sequence, event_count, log)``."""

    def run():
        env = Environment()
        log = []
        scenario(env, log)
        return env.now, env._sequence, env.event_count, log

    return _with_and_without(monkeypatch, run)


class TestRunAhead:
    def test_lone_process_runs_ahead(self, monkeypatch):
        def scenario(env, log):
            def ticker():
                for delay in (1.0, 0.5, 0.0, 2.25):
                    yield from _inline(env, delay)
                    log.append(("tick", env.now, env.event_count))

            env.process(ticker())
            env.run()

        assert _both_ways(monkeypatch, scenario) == [True] * 4

    def test_equal_time_tie_is_refused(self, monkeypatch):
        def scenario(env, log):
            def heaped():
                yield env.timeout(1.0)
                log.append(("heaped", env.now, env.event_count))

            def inline():
                yield from _inline(env, 1.0)
                log.append(("inline", env.now, env.event_count))

            env.process(heaped())
            env.process(inline())
            env.run()

        # The heap entry at exactly now + delay is older: it runs first.
        assert _both_ways(monkeypatch, scenario) == [False]

    def test_process_waking_inside_the_window_is_refused(self, monkeypatch):
        def scenario(env, log):
            def sleeper(delay):
                yield env.timeout(delay)
                log.append(("sleeper", delay, env.now, env.event_count))

            def runner():
                # 2.0 would overtake the sleeper at 0.5; afterwards the
                # next wake-up (3.0) lies strictly beyond now + 1.0.
                yield from _inline(env, 2.0)
                log.append(("runner", env.now, env.event_count))
                yield from _inline(env, 0.5)
                log.append(("runner", env.now, env.event_count))

            env.process(sleeper(0.5))
            env.process(sleeper(3.0))
            env.process(runner())
            env.run()

        assert _both_ways(monkeypatch, scenario) == [False, True]

    def test_run_until_time_stops_at_the_deadline(self, monkeypatch):
        def scenario(env, log):
            def ticker():
                for _ in range(6):
                    yield from _inline(env, 1.0)
                    log.append(("tick", env.now, env.event_count))

            env.process(ticker())
            for until in (2.5, 4.0, 4.0, None):
                env.run(until=until)
                log.append(("stopped", env.now, env._sequence, env.event_count))

        answers = _both_ways(monkeypatch, scenario)
        # 3.0 is past the first deadline (2.5); 4.0 is exactly on the
        # second, and 5.0 past it.
        assert answers == [True, True, False, True, False, True]

    def test_run_until_event_with_a_waiter_on_the_sentinel(self, monkeypatch):
        def scenario(env, log):
            gate = env.event()

            def opener():
                yield from _inline(env, 1.0)
                gate.succeed("open")
                yield from _inline(env, 1.0)
                log.append(("opener", env.now, env.event_count))

            def waiter():
                value = yield gate
                log.append(("waiter", value, env.now, env.event_count))
                # The sentinel has fired: the run returns before this
                # timeout, so it must not be taken inline.
                yield from _inline(env, 0.25)
                log.append(("waiter", env.now, env.event_count))

            env.process(waiter())
            env.process(opener())
            log.append(("returned", env.run(until=gate), env.now))
            env.run()

        assert _both_ways(monkeypatch, scenario) == [True, False, False]

    @pytest.mark.parametrize("until", ("drain", "deadline", "sentinel"))
    def test_fan_out_callbacks_are_refused(self, monkeypatch, until):
        def scenario(env, log):
            gate = env.event()

            def waiter(name):
                yield gate
                log.append((name, "woken", env.now, env.event_count))
                yield from _inline(env, 1.0)
                log.append((name, "done", env.now, env.event_count))

            def opener():
                yield env.timeout(1.0)
                gate.succeed()
                yield env.timeout(5.0)

            env.process(waiter("a"))
            env.process(waiter("b"))
            env.process(opener())
            if until == "deadline":
                env.run(until=10.0)
            elif until == "sentinel":
                env.run(until=env.timeout(10.0))
            env.run()

        # Taken inline, "a" would finish before "b" even woke up.
        assert _both_ways(monkeypatch, scenario)[:2] == [False, False]

    def test_step_never_runs_ahead(self, monkeypatch):
        def scenario(env, log):
            def ticker():
                for _ in range(3):
                    yield from _inline(env, 1.0)
                    log.append(("tick", env.now, env.event_count))

            env.process(ticker())
            while not env.quiescent:
                env.step()
                log.append(("step", env.now, env.event_count))

        assert _both_ways(monkeypatch, scenario) == [False] * 3

    def test_step_inside_a_run_never_runs_ahead(self, monkeypatch):
        def scenario(env, log):
            def child():
                yield from _inline(env, 1.0)
                log.append(("child", env.now, env.event_count))

            def stepper():
                env.process(child())
                env.step()  # dispatches the child's first resume
                log.append(("stepper", env.now, env.event_count))
                yield env.timeout(0.5)
                log.append(("stepper", env.now, env.event_count))

            env.process(stepper())
            env.run()

        assert _both_ways(monkeypatch, scenario) == [False]

    def test_installed_monitor_is_never_skipped(self, monkeypatch):
        def scenario(env, log):
            env.add_monitor(
                lambda e, count: log.append(("monitor", e.now, count))
            )

            def ticker():
                for _ in range(3):
                    yield from _inline(env, 1.0)

            env.process(ticker())
            env.run()

        assert _both_ways(monkeypatch, scenario) == [False] * 3

    def test_nan_and_negative_delays_are_refused(self, monkeypatch):
        def scenario(env, log):
            def prober():
                yield from _inline(env, 1.0)
                for delay in (float("nan"), -1.0):
                    log.append(
                        (repr(delay), env.advance(delay), env.now,
                         env._sequence, env.event_count)
                    )
                with pytest.raises(ValueError):
                    yield env.timeout(-1.0)
                # -0.0 is a valid zero delay: it runs ahead like 0.0.
                yield from _inline(env, -0.0)
                log.append(("after", env.now, env.event_count))

            env.process(prober())
            env.run()

        assert _both_ways(monkeypatch, scenario) == [True, False, False, True]

    def test_outside_a_run_is_refused(self):
        env = Environment()
        assert env.advance(1.0) is False
        assert (env.now, env._sequence, env.event_count) == (0.0, 0, 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_contention_corpus(self, monkeypatch, seed):
        """Processes contending for a resource and a store with delays
        drawn from a small set, so ties are common."""
        import random

        def scenario(env, log):
            rng = random.Random(seed)
            resource = Resource(env, capacity=2)
            store = Store(env)

            def worker(name):
                for round_ in range(8):
                    delay = rng.choice((0.0, 0.5, 1.0, 1.5))
                    yield from _inline(env, delay)
                    request = resource.request()
                    yield request
                    yield from _inline(env, rng.choice((0.25, 0.5)))
                    resource.release(request)
                    store.put((name, round_))
                    log.append((name, round_, env.now, env.event_count))

            def consumer():
                for _ in range(4 * 8):
                    item = yield store.get()
                    yield from _inline(env, rng.choice((0.0, 0.125)))
                    log.append(("got", item, env.now))

            for name in "abcd":
                env.process(worker(name))
            env.process(consumer())
            env.run(until=env.now + rng.choice((3.0, 4.5, 100.0)))
            env.run()

        answers = _both_ways(monkeypatch, scenario)
        assert True in answers and False in answers


def _point_corpus():
    from repro.harness.sweep import SweepPoint

    return [
        SweepPoint(workload="bfs", system="UvmDiscard", ratio=2.0,
                   scale=0.0625),
        SweepPoint(workload="dl:vgg16", system="UvmDiscardLazy",
                   batch_size=50, scale=0.03125, batches=2),
        SweepPoint(
            workload="fir", system="UvmDiscard", scale=0.0625,
            chaos=(("seed", 3), ("transfer_fault_interval", 40),
                   ("link_degrade_interval", 90)),
        ),
    ]


class TestRunAheadPoints:
    """Whole experiments give byte-identical results both ways."""

    @pytest.mark.parametrize(
        "point", _point_corpus(), ids=("bfs-2.0x", "vgg16-prefetch", "chaos")
    )
    def test_sweep_point(self, monkeypatch, point):
        import json

        from repro.harness.sweep import execute_point

        def run():
            return json.dumps(execute_point(point).to_dict(), sort_keys=True)

        taken = sum(_with_and_without(monkeypatch, run))
        if point.chaos:
            # The injector and the validator are engine monitors.
            assert taken == 0
        else:
            assert taken > 0

    def test_multi_gpu_pipeline(self, monkeypatch):
        import json

        from conftest import tiny_gpu

        from repro import AccessMode, BufferAccess, CudaRuntime, KernelSpec
        from repro.harness.results import ExperimentResult
        from repro.interconnect import nvlink_gen3
        from repro.units import MIB

        def run():
            outcomes = []
            for p2p in (False, True):
                runtime = CudaRuntime(
                    gpus=[tiny_gpu(16, "gpu0"), tiny_gpu(16, "gpu1")],
                    p2p_link=nvlink_gen3() if p2p else None,
                )
                payload = runtime.malloc_managed(24 * MIB, "payload")
                scratch = runtime.malloc_managed(8 * MIB, "scratch")

                def program(cuda):
                    for i in range(3):
                        cuda.launch(
                            KernelSpec(
                                f"produce_{i}",
                                [BufferAccess(scratch, AccessMode.WRITE),
                                 BufferAccess(payload, AccessMode.WRITE)],
                                flops=1e8,
                            ),
                            device="gpu0",
                        )
                        cuda.discard_async(scratch, mode="eager")
                        cuda.launch(
                            KernelSpec(
                                f"consume_{i}",
                                [BufferAccess(payload, AccessMode.READ)],
                                flops=1e8,
                            ),
                            device="gpu1",
                        )
                        yield from cuda.synchronize()

                runtime.run(program)
                result = ExperimentResult.from_runtime(
                    runtime, "UvmDiscard", f"p2p={p2p}"
                )
                outcomes.append(
                    (json.dumps(result.to_dict(), sort_keys=True),
                     runtime.env.now, runtime.env.event_count)
                )
            return outcomes

        assert any(_with_and_without(monkeypatch, run))

    def test_strict_chaos_suite(self, monkeypatch):
        from repro.chaos import run_chaos_suite

        def run():
            report = run_chaos_suite(seed=7, workloads=["fir"], strict=True)
            return [
                (r.fault_free_digest, r.chaos_digest, r.chaos_repeat_digest,
                 r.fault_free_seconds, r.chaos_seconds, r.violations,
                 r.checks, sorted(r.counters.items()))
                for r in report.results
            ]

        _with_and_without(monkeypatch, run)
