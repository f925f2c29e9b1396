"""Tests for the experiment harness: oversubscription, systems, results."""

import pytest

from conftest import tiny_gpu

from repro.cuda.runtime import CudaRuntime
from repro.errors import ConfigurationError
from repro.harness import (
    DiscardPolicy,
    ExperimentResult,
    ResultTable,
    System,
    apply_oversubscription,
    occupant_bytes,
)
from repro.harness.runner import ratio_label, run_uvm_experiment
from repro.interconnect import pcie_gen4
from repro.units import BIG_PAGE, GIB, MIB


class TestOccupantBytes:
    def test_fits_means_no_occupant(self):
        assert occupant_bytes(12 * GIB, 6 * GIB, 0.99) == 0
        assert occupant_bytes(12 * GIB, 6 * GIB, 1.0) == 0

    def test_ratio_200_halves_available(self):
        gpu = 12 * GIB
        app = 8 * GIB
        occupant = occupant_bytes(gpu, app, 2.0)
        available = gpu - occupant
        assert available == pytest.approx(app / 2.0, abs=BIG_PAGE)

    def test_occupant_is_block_aligned(self):
        occupant = occupant_bytes(12 * GIB, 8 * GIB + 12345, 3.0)
        assert occupant % BIG_PAGE == 0

    def test_impossible_ratio_rejected(self):
        # App already bigger than GPU: a 1.5x ratio can't be constructed
        # when the app/1.5 still exceeds the whole GPU.
        with pytest.raises(ConfigurationError):
            occupant_bytes(4 * GIB, 16 * GIB, 1.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            occupant_bytes(GIB, GIB, 0)
        with pytest.raises(ConfigurationError):
            occupant_bytes(GIB, 0, 2.0)

    def test_apply_reserves_memory(self):
        runtime = CudaRuntime(gpu=tiny_gpu(memory_mib=64))
        reserved = apply_oversubscription(runtime, 32 * MIB, 2.0)
        assert reserved == 48 * MIB
        assert runtime.driver.gpu_free_bytes("gpu0") == 16 * MIB


class TestSystems:
    def test_flags(self):
        assert not System.NO_UVM.uses_uvm
        assert System.UVM_OPT.uses_uvm
        assert not System.UVM_OPT.uses_discard
        assert System.UVM_DISCARD.uses_discard
        assert System.UVM_DISCARD_LAZY.uses_discard

    def test_policy_uvm_opt_never_discards(self):
        policy = DiscardPolicy(System.UVM_OPT)
        assert policy.mode_for(True) is None
        assert policy.mode_for(False) is None

    def test_policy_eager_system_always_eager(self):
        policy = DiscardPolicy(System.UVM_DISCARD)
        assert policy.mode_for(True) == "eager"
        assert policy.mode_for(False) == "eager"

    def test_policy_lazy_requires_prefetch_pairing(self):
        """§7.1: lazy replaces only prefetch-paired discards."""
        policy = DiscardPolicy(System.UVM_DISCARD_LAZY)
        assert policy.mode_for(True) == "lazy"
        assert policy.mode_for(False) == "eager"


class TestResultTable:
    def _result(self, system, config, elapsed, traffic=1.0, metric=None):
        return ExperimentResult(
            system=system,
            config=config,
            elapsed_seconds=elapsed,
            traffic_gb=traffic,
            traffic_h2d_gb=traffic / 2,
            traffic_d2h_gb=traffic / 2,
            redundant_gb=0.0,
            useful_gb=traffic,
            metric=metric,
        )

    def test_normalized_runtime(self):
        table = ResultTable("t", ["200%"])
        table.add(self._result("base", "200%", 2.0))
        table.add(self._result("fast", "200%", 1.0))
        assert table.normalized_runtime("fast", "200%", "base") == pytest.approx(0.5)

    def test_render_contains_all_cells(self):
        table = ResultTable("My table", ["<100%", "200%"])
        table.add(self._result("sysA", "<100%", 1.0, traffic=3.25))
        table.add(self._result("sysA", "200%", 2.0, traffic=7.5))
        text = table.render("traffic_gb")
        assert "My table" in text
        assert "sysA" in text
        assert "3.25" in text and "7.50" in text

    def test_render_missing_cell_dash(self):
        table = ResultTable("t", ["a", "b"])
        table.add(self._result("s", "a", 1.0))
        assert "-" in table.render("traffic_gb")

    def test_render_normalized_requires_baseline(self):
        table = ResultTable("t", ["a"])
        table.add(self._result("s", "a", 1.0))
        with pytest.raises(ValueError):
            table.render("normalized_runtime")

    def test_render_metric_none_dash(self):
        table = ResultTable("t", ["a"])
        table.add(self._result("s", "a", 1.0, metric=None))
        assert "-" in table.render("metric")


class TestRunner:
    def test_ratio_label(self):
        assert ratio_label(0.99) == "<100%"
        assert ratio_label(1.0) == "<100%"
        assert ratio_label(2.0) == "200%"

    def test_ratio_label_boundaries(self):
        # At or below 1.0 is the paper's "fits" column; just above it
        # rounds to a plain whole-percent header.
        assert ratio_label(1.001) == "100%"
        assert ratio_label(1.25) == "125%"
        assert ratio_label(1.5) == "150%"

    def test_ratio_label_rounds_half_up_decimally(self):
        # 2.675 * 100 is 267.49999... in binary floats; the label must
        # still round the *decimal* value half-up to 268%.
        assert ratio_label(2.675) == "268%"
        assert ratio_label(1.125) == "113%"
        assert ratio_label(3.9999) == "400%"

    def test_run_uvm_experiment_end_to_end(self):
        def setup(cuda):
            cuda.session["buffer"] = cuda.malloc_managed(8 * MIB)
            yield from cuda.synchronize()

        def body(cuda):
            cuda.prefetch_async(cuda.session["buffer"])
            yield from cuda.synchronize()

        result = run_uvm_experiment(
            setup,
            body,
            "UVM-opt",
            "200%",
            app_bytes=16 * MIB,
            ratio=2.0,
            gpu=tiny_gpu(memory_mib=64),
            link=pcie_gen4(),
            metric=lambda rt: 42.0,
        )
        assert result.system == "UVM-opt"
        assert result.config == "200%"
        assert result.metric == 42.0
        assert result.counters["zeroed_blocks"] == 4
