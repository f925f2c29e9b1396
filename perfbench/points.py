"""The benchmark's inputs and their expected outcomes.

Every point a workload asks for is fixed here; ``--seed`` only orders
them (and, for ``serve_mix``, draws the request schedule).  The exact
outcome of every point is stored under ``expected/`` by
``make_expected.py`` from cold, unshared ``execute_point`` runs, and
every answer the benchmark receives -- from a cold sweep, the cache,
the fast model or the server -- must match it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.harness.sweep import (
    DL_BATCH_GRID,
    MICRO_WORKLOADS,
    PAPER_MICRO_WORKLOADS,
    SweepGrid,
    SweepPoint,
)

SYSTEMS = ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: The analytical fast model is calibrated at this scale only.
FAST_SCALE = 0.125

#: ``serve_mix`` leaves radix out of its population: a radix point
#: costs about ten times any other micro point at this scale, and the
#: workload is meant to keep simulations small so the serving layers
#: show.
SERVE_WORKLOADS = tuple(w for w in MICRO_WORKLOADS if w != "radix")
#: 98 ratios from 1.05 to 2.99, so 7 workloads x 3 systems x 98 = 2058
#: population points: three in five requests ask a new one, and a 40 s
#: run asks well under 2000 requests, so the mix holds to the end.  All
#: of them share one setup prefix per workload (the prefix key ignores
#: system and ratio).
SERVE_RATIOS = tuple(round(1.05 + 0.02 * i, 2) for i in range(98))
#: The ratios of the ten grids each submitted as one ``POST /sweep``
#: job (7 workloads x 3 systems x 2 ratios = 42 points).  They sit
#: between population ratios, so no job point is ever a cache hit left
#: by the request mix.
_MIDPOINTS = tuple(round(1.06 + 0.08 * i, 2) for i in range(20))
SERVE_SWEEP_RATIOS = tuple((_MIDPOINTS[i], _MIDPOINTS[i + 10]) for i in range(10))
#: The population ratios the fast model is asked at (every fourth one).
SERVE_FAST_RATIOS = SERVE_RATIOS[::4]


def fig5_dl_grid() -> List[SweepPoint]:
    """Fig 5: 4 networks x their paper batch grids x 3 systems = 51."""
    return SweepGrid(
        workloads=[f"dl:{net}" for net in DL_BATCH_GRID],
        systems=SYSTEMS,
        links=("gen4",),
        scale=0.125,
    ).expand()


def uvmbench_oversub_grid() -> List[SweepPoint]:
    """8 micro workloads x 3 systems x ratios 1.5, 2.0 at scale 0.5 = 48."""
    return SweepGrid(
        workloads=list(MICRO_WORKLOADS),
        systems=SYSTEMS,
        links=("gen4",),
        ratios=(1.5, 2.0),
        scale=0.5,
    ).expand()


def serve_population() -> List[SweepPoint]:
    return SweepGrid(
        workloads=list(SERVE_WORKLOADS),
        systems=SYSTEMS,
        ratios=SERVE_RATIOS,
        scale=0.125,
    ).expand()


def serve_sweep_grids() -> List[List[SweepPoint]]:
    return [
        SweepGrid(
            workloads=list(SERVE_WORKLOADS),
            systems=SYSTEMS,
            ratios=ratios,
            scale=0.125,
        ).expand()
        for ratios in SERVE_SWEEP_RATIOS
    ]


def fast_points(workload: str) -> List[SweepPoint]:
    """The points each workload answers in ``mode="fast"``.

    ``fig5_dl`` asks its own grid.  The fast model has no calibration
    for the UVMBench categories or for scale 0.5, so
    ``uvmbench_oversub`` asks its paper-micro part (fir, radix,
    hashjoin) at the calibrated scale, and ``serve_mix`` asks the paper
    micros at every other population ratio.
    """
    if workload == "fig5_dl":
        base = fig5_dl_grid()
    elif workload == "uvmbench_oversub":
        base = SweepGrid(
            workloads=list(PAPER_MICRO_WORKLOADS),
            systems=SYSTEMS,
            ratios=(1.5, 2.0),
            scale=FAST_SCALE,
        ).expand()
    else:
        base = SweepGrid(
            workloads=list(PAPER_MICRO_WORKLOADS),
            systems=SYSTEMS,
            ratios=SERVE_FAST_RATIOS,
            scale=FAST_SCALE,
        ).expand()
    return [
        SweepPoint.from_dict({**point.to_dict(), "mode": "fast"})
        for point in base
    ]


def all_points(workload: str) -> List[SweepPoint]:
    """Every point ``workload`` can ask for (what ``expected/`` covers)."""
    if workload == "fig5_dl":
        simulated = fig5_dl_grid()
    elif workload == "uvmbench_oversub":
        simulated = uvmbench_oversub_grid()
    else:
        simulated = serve_population() + [
            point for grid in serve_sweep_grids() for point in grid
        ]
    return simulated + fast_points(workload)


def shuffled(points: Sequence[SweepPoint], seed: int) -> List[SweepPoint]:
    order = list(points)
    random.Random(f"order:{seed}").shuffle(order)
    return order


def request_schedule(seed: int) -> Iterator[SweepPoint]:
    """``serve_mix``'s endless request stream.

    Three requests in five ask a population point not asked before; the
    others re-ask an answered one -- half of those one of the four most
    recent, which is often still in flight on the other client, so
    in-flight coalescing is exercised.  Once the population is used up
    every request is a re-ask.

    Not an even split: answers come in two modes (a simulation, or a
    cache hit an order of magnitude faster), and with half in each the
    median sits in the gap between them and jumps from one mode to the
    other from run to run.  With three in five simulated, the median is
    a simulated answer.
    """
    rng = random.Random(f"schedule:{seed}")
    fresh = shuffled(serve_population(), seed)
    asked: List[SweepPoint] = []
    while True:
        if asked and (not fresh or rng.random() < 0.4):
            if rng.random() < 0.5:
                yield rng.choice(asked[-4:])
            else:
                yield rng.choice(asked)
        else:
            point = fresh.pop()
            asked.append(point)
            yield point


# ----------------------------------------------------------------------
# expected outcomes
# ----------------------------------------------------------------------


def outcome_digest(outcome: Mapping[str, object]) -> str:
    """sha256 of an outcome dict (``{"status", "result"}``) as canonical
    JSON -- the form the sweep cache stores and the server returns."""
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def outcome_of(result) -> Dict[str, object]:
    """The outcome dict of an ``ExperimentResult`` (``None`` = OOM), in
    the shape the sweep cache stores and the server returns."""
    if result is None:
        return {"status": "oom"}
    return {"status": "ok", "result": result.to_dict()}


def expected_key(point: SweepPoint) -> str:
    """The point's cache key, shortened: 128 bits tell 2000 points apart."""
    return point.cache_key()[:32]


def expected_entry(outcome: Mapping[str, object]) -> Dict[str, object]:
    """The readable fields of an outcome plus a digest of all of it."""
    result = outcome.get("result") or {}
    return {
        "traffic_gb": result.get("traffic_gb"),
        "elapsed_seconds": result.get("elapsed_seconds"),
        "counters": result.get("counters"),
        "digest": outcome_digest(outcome)[:32],
    }


class Expected:
    """The stored outcomes of one workload, keyed by point cache key."""

    def __init__(self, workload: str) -> None:
        path = EXPECTED_DIR / f"{workload}.json"
        self.entries: Dict[str, Dict[str, object]] = json.loads(
            path.read_text()
        )["points"]

    def check(self, point: SweepPoint, outcome: object) -> Optional[str]:
        """``None`` when ``outcome`` is exactly the stored one, else why not."""
        want = self.entries.get(expected_key(point))
        if want is None:
            return f"{point.label}: no expected outcome stored"
        if not isinstance(outcome, dict):
            return f"{point.label}: outcome is {outcome!r}"
        got = expected_entry(outcome)
        if got == want:
            return None
        differing = sorted(k for k in want if got.get(k) != want[k])
        return f"{point.label}: {', '.join(differing)} differ from expected"
