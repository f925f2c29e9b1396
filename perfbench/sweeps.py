"""``fig5_dl`` and ``uvmbench_oversub``: a grid through ``run_sweep``.

One round is: the grid simulated from an empty result cache (one
worker, snapshot reuse at its default), the same grid re-run warm from
that cache, the workload's fast-mode points answered by the analytical
model, and single-point re-asks answered from the warm cache.  Rounds
repeat until ``--seconds`` is used up; each metric is the median (or
the stated percentile) over its samples, scaled to the reference host
speed by the host probe taken alongside them (``hostprobe.py``).
"""

from __future__ import annotations

import collections
import random
import resource
import shutil
import statistics
import time
from typing import Dict, List

import points
import serve_mix
from common import (
    Context,
    Outcome,
    add_layer_metrics,
    add_result_metrics,
    measure_setup,
    percentile,
)
from hostprobe import HostProbe
from layers import LayerTracer
from repro.harness.sweep import ResultCache, SweepPoint, run_sweep

GRIDS = {
    "fig5_dl": points.fig5_dl_grid,
    "uvmbench_oversub": points.uvmbench_oversub_grid,
}

#: Fresh interpreters timed to ready per run.
SETUP_SPAWNS = 5
#: Host probe samples (hostprobe.py) after each point of a cold sweep;
#: warm sweeps, fast sweeps and re-asks are each followed by one, and
#: each setup interpreter takes its own (``measure_setup``).
COLD_PROBES = 3
WARM_REPEATS = 40
FAST_REPEATS = 40
#: Re-asks per round: one round alone gives the 1000 samples a p99 with
#: ten samples beyond it needs.
REASKS = 1000


class _Round:
    """The samples of one round."""

    def __init__(self) -> None:
        self.cold: float = 0.0
        self.warm: List[float] = []
        self.fast_us: List[float] = []
        self.answers: List[float] = []
        self.results = []


def one_round(
    ctx: Context,
    index: int,
    grid: List[SweepPoint],
    fast: List[SweepPoint],
    expected: points.Expected,
    outcome: Outcome,
    probes: Dict[str, HostProbe],
    reasks: int = REASKS,
) -> _Round:
    sample = _Round()
    cache_dir = ctx.run_dir / f"cache-{index}"
    cache = ResultCache(cache_dir)

    probing = 0.0

    def probe_point(_message: str) -> None:
        nonlocal probing
        probing += probes["sweep_cold_s"].burst(COLD_PROBES)

    # The probe runs after every point, inside the timed sweep, and its
    # time is taken back out.
    started = time.perf_counter()
    report = run_sweep(grid, jobs=1, cache=cache, progress=probe_point)
    sample.cold = time.perf_counter() - started - probing
    sample.results = report.results
    _check_report(report, "run", expected, outcome)

    for _ in range(WARM_REPEATS):
        started = time.perf_counter()
        report = run_sweep(grid, jobs=1, cache=cache)
        sample.warm.append(time.perf_counter() - started)
        probes["sweep_warm_s"].sample()
        _check_report(report, "cache", expected, outcome)

    for _ in range(FAST_REPEATS):
        started = time.perf_counter()
        report = run_sweep(fast, jobs=1)
        sample.fast_us.append((time.perf_counter() - started) / len(fast) * 1e6)
        probes["fast_answer_us"].sample()
        _check_report(report, "run", expected, outcome)

    rng = random.Random(f"reask:{ctx.seed}:{index}")
    for _ in range(reasks):
        point = rng.choice(grid)
        started = time.perf_counter()
        report = run_sweep([point], jobs=1, cache=cache)
        sample.answers.append(time.perf_counter() - started)
        probes["answer"].sample()
        _check_report(report, "cache", expected, outcome)

    shutil.rmtree(cache_dir, ignore_errors=True)
    return sample


def _check_report(report, provenance: str, expected, outcome: Outcome) -> None:
    for point, result, source in zip(
        report.points, report.results, report.provenance
    ):
        problem = expected.check(point, points.outcome_of(result))
        if problem is None and source != provenance:
            problem = f"{point.label}: answered from {source}, not {provenance}"
        outcome.check(problem)


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    expected = points.Expected(ctx.workload)
    grid = points.shuffled(GRIDS[ctx.workload](), ctx.seed)
    fast = points.shuffled(points.fast_points(ctx.workload), ctx.seed)
    if ctx.trace:
        return _traced(ctx, grid, fast, expected, outcome)

    setup, _, setup_slowdowns = measure_setup(
        ctx, GRIDS[ctx.workload].__name__, SETUP_SPAWNS
    )
    probes = collections.defaultdict(HostProbe)
    rounds: List[_Round] = []
    durations: List[float] = []
    window = time.perf_counter()
    while True:
        started = time.perf_counter()
        sample = one_round(ctx, len(rounds), grid, fast, expected, outcome, probes)
        # Results are kept for the traced run only; holding every
        # round's would grow the heap the later rounds are timed with.
        sample.results = []
        rounds.append(sample)
        durations.append(time.perf_counter() - started)
        used = time.perf_counter() - window
        if used + statistics.median(durations) > ctx.seconds:
            break

    answers = [s for r in rounds for s in r.answers]
    # Each timing is scaled by the probe statistic that matches it (see
    # hostprobe.py): short operations' medians by the probe's median, the
    # re-asks' p99 by its p99, and the cold sweep, a spawn and a rate,
    # each of which spans many changes of host speed, by its mean.
    outcome.timing(
        "setup_s", statistics.median(setup), "s", len(setup),
        statistics.median(setup_slowdowns),
    )
    outcome.timing(
        "sweep_cold_s", statistics.median([r.cold for r in rounds]), "s",
        len(rounds), probes["sweep_cold_s"].slowdown("mean"),
    )
    warm = [s for r in rounds for s in r.warm]
    outcome.timing(
        "sweep_warm_s", statistics.median(warm), "s", len(warm),
        probes["sweep_warm_s"].slowdown("p50"),
    )
    fast_us = [s for r in rounds for s in r.fast_us]
    outcome.timing(
        "fast_answer_us", statistics.median(fast_us), "us", len(fast_us),
        probes["fast_answer_us"].slowdown("p50"),
    )
    outcome.timing(
        "answer_p50_s", percentile(answers, 0.5), "s", len(answers),
        probes["answer"].slowdown("p50"),
    )
    outcome.timing(
        "answer_p99_s", percentile(answers, 0.99), "s", len(answers),
        probes["answer"].slowdown("p99"),
    )
    outcome.timing(
        "answers_per_s", len(answers) / sum(answers), "1/s", len(answers),
        probes["answer"].slowdown("mean"),
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outcome.add("peak_rss_mb", peak_kb / 1024.0, "MB")
    return outcome


def _traced(ctx, grid, fast, expected, outcome: Outcome) -> Outcome:
    """One untraced cold sweep as the overhead reference, then one
    round with every layer wrapped."""
    _, imports, _ = measure_setup(ctx, GRIDS[ctx.workload].__name__, 3)
    cache_dir = ctx.run_dir / "reference"
    started = time.perf_counter()
    report = run_sweep(grid, jobs=1, cache=ResultCache(cache_dir))
    untraced_cold = time.perf_counter() - started
    _check_report(report, "run", expected, outcome)
    shutil.rmtree(cache_dir, ignore_errors=True)

    tracer = LayerTracer()
    tracer.install()
    try:
        started = time.perf_counter()
        sample = one_round(
            ctx, 0, grid, fast, expected, outcome,
            collections.defaultdict(HostProbe), reasks=100,
        )
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    add_layer_metrics(outcome, tracer, wall)
    add_result_metrics(outcome, [r.to_dict() for r in sample.results if r is not None])
    # The serve layer has no workload of its own in the benchmark (see
    # README.md), so every traced run also serves a short traced session.
    serve_fast = points.shuffled(points.fast_points("serve_mix"), ctx.seed)
    answers, _, metrics, trace_dir = serve_mix.traced_session(
        ctx, serve_fast, points.Expected("serve_mix"), outcome
    )
    _, _, problems, queue_depth_max = serve_mix.merge_traces(trace_dir)
    outcome.check(f"traced server: {'; '.join(problems)}" if problems else None)
    serve_mix.add_serve_metrics(outcome, metrics, answers, queue_depth_max)
    outcome.median("import.repro_cli_s", imports, "s")
    outcome.add("trace.overhead_ratio", sample.cold / untraced_cold, "ratio")
    return outcome
