"""Simulator-kernel perf suite, runnable as ``pytest benchmarks/perf``.

Unlike the paper benchmarks in ``benchmarks/``, these measure the
simulator's own wall time.  Two layers of assertions:

- **Determinism** (always on): the non-wall metrics — simulated event
  counts, traffic bytes — must match the committed baseline exactly.
  An optimization that changes them changed simulation behaviour, not
  just speed.
- **Wall time** (opt-in via ``REPRO_PERF_STRICT=1``, used by the CI
  perf-smoke job): each benchmark must finish within
  ``DEFAULT_MAX_REGRESSION`` (2x) of the committed baseline.  Off by
  default so laptops under load don't flake.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.harness.perf import (
    BENCHMARKS,
    NONDETERMINISTIC_KEYS,
    check_regressions,
    load_bench_json,
    run_benchmarks,
)

BASELINE_PATH = pathlib.Path(__file__).parent / "baseline.json"


@pytest.fixture(scope="module")
def results():
    return run_benchmarks(repeat=1)


@pytest.fixture(scope="module")
def baseline():
    return load_bench_json(BASELINE_PATH.read_text())


def test_suite_covers_all_benchmarks(results, baseline):
    assert set(results) == set(BENCHMARKS)
    assert set(baseline) == set(BENCHMARKS)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_deterministic_metrics_match_baseline(results, baseline, name):
    current = {
        k: v for k, v in results[name].items() if k not in NONDETERMINISTIC_KEYS
    }
    expected = {
        k: v for k, v in baseline[name].items() if k not in NONDETERMINISTIC_KEYS
    }
    assert current == expected


def test_wall_times_positive(results):
    for name, entry in results.items():
        assert entry["wall_seconds"] > 0, name


@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_STRICT") != "1",
    reason="wall-clock gate is CI-only (REPRO_PERF_STRICT=1)",
)
def test_no_wall_time_regression(results, baseline):
    failures = check_regressions(results, baseline)
    assert not failures, "\n".join(failures)


@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_STRICT") != "1",
    reason="wall-clock gate is CI-only (REPRO_PERF_STRICT=1)",
)
def test_blob_fork_beats_deepcopy(results):
    """The serialize-once blob transport must fork at least 2x faster
    than the deepcopy it replaced (measured ~5-7x in practice)."""
    assert results["snapshot_fork"]["fork_speedup"] >= 2.0
