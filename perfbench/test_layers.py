"""Tests of the layer tracer's self-time accounting.

    PYTHONPATH=src python3 -m pytest perfbench/test_layers.py -q
"""

from __future__ import annotations

import pytest

from layers import LayerTracer


class FakeClock:
    """A clock that moves only when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _hand_built(clock: FakeClock):
    """An engine loop resuming a generator whose every resumption does
    2 s of its own work and one 1 s call into another layer."""
    tracer = LayerTracer(clock=clock)

    def child() -> None:
        clock.advance(1.0)

    child = tracer.wrap("vm.child", child)

    def body():
        for _ in range(3):
            clock.advance(2.0)
            child()
            yield
        return "done"

    body = tracer.wrap("driver.body", body)

    def engine(make):
        gen = make()
        while True:
            clock.advance(0.5)  # dispatch work between resumptions
            try:
                gen.send(None)
            except StopIteration as stop:
                return stop.value

    engine = tracer.wrap("engine.loop", engine)
    return tracer, engine, body


def test_every_resumption_is_timed_and_self_times_sum_to_wall():
    clock = FakeClock()
    tracer, engine, body = _hand_built(clock)
    clock.advance(1.0)  # outside every span
    assert engine(body) == "done"
    wall = clock.now

    stats = tracer.stats
    # Three resumptions do work; the fourth only raises StopIteration.
    assert stats["driver.body"].calls == 1
    assert stats["driver.body"].total_s == pytest.approx(9.0)
    assert stats["driver.body"].self_s == pytest.approx(6.0)
    assert stats["vm.child"].calls == 3
    assert stats["vm.child"].self_s == pytest.approx(3.0)
    # The engine's own 4 x 0.5 s; the generator's time while suspended
    # is the engine's, not the generator's.
    assert stats["engine.loop"].self_s == pytest.approx(2.0)
    assert tracer.covered_s == pytest.approx(11.0)
    assert wall - tracer.covered_s == pytest.approx(1.0)
    assert sum(tracer.layer_self().values()) == pytest.approx(tracer.covered_s)
    assert tracer.check_accounting(wall) is None


def test_accounting_check_rejects_spans_longer_than_the_wall():
    clock = FakeClock()
    tracer, engine, body = _hand_built(clock)
    engine(body)
    assert tracer.check_accounting(clock.now - 1.0) is not None


def test_yield_from_and_throw_go_through_the_proxy():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def inner():
        try:
            clock.advance(1.0)
            yield 1
        except KeyError:
            clock.advance(4.0)
            yield 2

    inner = tracer.wrap("core.inner", inner)

    def outer():
        value = yield from inner()
        return value

    gen = outer()
    assert next(gen) == 1
    assert gen.throw(KeyError()) == 2
    with pytest.raises(StopIteration):
        gen.send(None)
    assert tracer.stats["core.inner"].self_s == pytest.approx(5.0)
    assert tracer.check_accounting(clock.now) is None


def test_an_exception_closes_its_span():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def fails():
        clock.advance(2.0)
        raise ValueError("boom")

    fails = tracer.wrap("gpu.fails", fails)
    with pytest.raises(ValueError):
        fails()
    assert tracer.stats["gpu.fails"].self_s == pytest.approx(2.0)
    assert tracer.check_accounting(clock.now) is None


def test_install_restores_originals_and_keeps_results_identical():
    from repro.driver.driver import UvmDriver
    from repro.harness.results import ExperimentResult
    from repro.harness.sweep import SweepPoint, run_sweep

    original = UvmDriver.__dict__["note_access"]
    grid = [
        SweepPoint("fir", system, ratio=2.0, scale=0.03125)
        for system in ("UVM-opt", "UvmDiscardLazy")
    ]
    untraced = run_sweep(grid).to_json()
    tracer = LayerTracer()
    tracer.install()
    try:
        assert UvmDriver.__dict__["note_access"] is not original
        traced = run_sweep(grid).to_json()
    finally:
        tracer.uninstall()
    assert UvmDriver.__dict__["note_access"] is original
    assert isinstance(ExperimentResult.__dict__["from_runtime"], classmethod)
    assert traced == untraced
    assert tracer.stats["engine.run"].calls > 0
    assert tracer.engine_events > 0
