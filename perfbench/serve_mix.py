"""``serve_mix``: the experiment server under a closed loop of 2 clients.

``python -m repro serve`` runs as a subprocess with its defaults
(process executor, 2 workers) except ``--port 0`` and a fresh result
cache.  Two client threads each send ``POST /run`` and wait for the
reply before sending the next, with no think time, drawing from the
seeded schedule of ``points.request_schedule``: three requests in five
need a simulation, the rest re-ask an answered point.  Before the loop,
ten grids go through ``POST /sweep`` cold, all their points go through
as one job ten times warm, and the fast model answers the paper micros
in five jobs.  The server must then drain on SIGTERM
with exit code 0 and leave no worker behind.  Timings are scaled to
the reference host speed by the host probe (``hostprobe.py``), run in
this process on each CPU in turn while the server is idle.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

import points
from common import (
    BENCH_DIR,
    Context,
    Outcome,
    add_layer_metrics,
    add_result_metrics,
    measure_setup,
    percentile,
    spawn_until_ready,
)
from hostprobe import HostProbe
from layers import LayerTracer

SETUP_SPAWNS = 5
CLIENTS = 2
#: Share of ``--seconds`` the closed loop runs for.  At 90-140
#: requests a second, three in five of them new, the 13 s loop of a 40 s
#: run asks some 700-1100 of the 2058 population points, so the mix
#: holds to the end.
LOOP_SHARE = 1 / 3
#: The loop runs in this many parts, the host probed between them.
LOOP_PARTS = 6
WARM_REPEATS = 10
#: The 225 fast-mode points go through as this many ``POST /sweep`` jobs.
FAST_JOBS = 5
#: Requests in each closed loop of the traced run: the same schedule
#: prefix is served once untraced and once traced.
TRACED_REQUESTS = 300
#: Host probe samples (hostprobe.py) on each CPU, taken only while the
#: server is idle: before each setup spawn, after each job, and before
#: and after each part of the loop.  Not between requests: a
#: probe sharing a CPU with the tail of the server's work on the last
#: request would time the server.
PROBES = 100


class Server:
    """One ``repro serve`` subprocess and the client side of it."""

    def __init__(self, ctx: Context, name: str, trace_dir: Optional[Path] = None):
        cache_dir = ctx.run_dir / f"{name}-cache"
        serve_args = ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            trace_dir.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "serve_hook.py"), str(trace_dir), *serve_args]
        self.proc, self.ready_s, line = spawn_until_ready(cmd, "serving on http://", ctx)
        host, port = re.search(r"http://([0-9.]+):(\d+)", line).groups()
        self.host, self.port = host, int(port)
        # Keep reading stdout so the server can never block on a full pipe.
        self._drain = threading.Thread(target=self._read_stdout, daemon=True)
        self._drain.start()

    def _read_stdout(self) -> None:
        for _ in self.proc.stdout:
            pass

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """(HTTP status, decoded JSON body) of one request."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def descendants(self) -> List[int]:
        found, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            for task in Path(f"/proc/{pid}/task").glob("*"):
                try:
                    children = (task / "children").read_text().split()
                except OSError:
                    continue
                for child in map(int, children):
                    found.append(child)
                    frontier.append(child)
        return found

    def peak_rss_mb(self) -> float:
        """Sum of the per-process peak resident sets of the server tree."""
        total_kb = 0
        for pid in [self.proc.pid, *self.descendants()]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self, outcome: Outcome) -> None:
        """SIGTERM; the server must drain with exit 0 and leave no
        worker process behind.  Either failure is one failed check."""
        workers = self.descendants()
        self.proc.terminate()
        try:
            code = self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._drain.join(10)
        self.proc.stdout.close()
        deadline = time.monotonic() + 5
        alive = workers
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in alive if _running(pid)]
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        problem = None
        if code != 0:
            problem = f"server exited {code} on SIGTERM"
        elif alive:
            problem = f"server left {len(alive)} orphan workers: {alive}"
        outcome.check(problem)


def _running(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return not re.search(r"^State:\s+Z", status, re.MULTILINE)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------


class _Answer:
    __slots__ = ("point", "latency", "status", "body")

    def __init__(self, point, latency, status, body) -> None:
        self.point, self.latency, self.status, self.body = point, latency, status, body


def closed_loop(
    server: Server, schedule, deadline: Optional[float], limit: Optional[int]
) -> Tuple[List[_Answer], float]:
    """Two clients, each waiting for its reply before the next request.

    Stops at ``deadline`` (perf_counter) or after ``limit`` requests.
    Answers are checked afterwards, so checking costs no client time.
    """
    lock = threading.Lock()
    answers: List[_Answer] = []
    issued = [0]

    def client() -> None:
        while True:
            with lock:
                if limit is not None and issued[0] >= limit:
                    return
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                issued[0] += 1
                point = next(schedule)
            started = time.perf_counter()
            try:
                status, body = server.request("POST", "/run", {"point": point.to_dict()})
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, body = 0, {"error": repr(exc)}
            answer = _Answer(point, time.perf_counter() - started, status, body)
            with lock:
                answers.append(answer)

    started = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers, time.perf_counter() - started


def check_answers(answers: List[_Answer], expected, outcome: Outcome) -> None:
    for answer in answers:
        if answer.status != 200:
            outcome.check(f"{answer.point.label}: HTTP {answer.status} {answer.body}")
        else:
            outcome.check(expected.check(answer.point, answer.body.get("outcome")))


def sweep_job(server: Server, grid, provenance: str, expected, outcome) -> float:
    """Submit ``grid`` as one ``POST /sweep`` job, wait for it, check
    every outcome; returns the job's server-side wall seconds."""
    status, body = server.request("POST", "/sweep", {"points": [p.to_dict() for p in grid]})
    if status != 202:
        raise RuntimeError(f"POST /sweep answered {status}: {body}")
    while True:
        status, job = server.request("GET", f"/status/{body['id']}")
        if status != 200:
            raise RuntimeError(f"GET /status answered {status}: {job}")
        if job["state"] == "done":
            break
        time.sleep(0.01)
    for point, result, source in zip(grid, job["outcomes"], job["provenance"]):
        problem = expected.check(point, result)
        if problem is None and source != provenance:
            problem = f"{point.label}: answered from {source}, not {provenance}"
        outcome.check(problem)
    return job["wall_seconds"]


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    expected = points.Expected("serve_mix")
    fast = points.shuffled(points.fast_points("serve_mix"), ctx.seed)
    if ctx.trace:
        return _traced(ctx, fast, expected, outcome)

    probe = HostProbe()
    setup = []
    for index in range(SETUP_SPAWNS):
        probe.burst_each_cpu(PROBES)
        server = Server(ctx, f"server-{index}")
        setup.append(server.ready_s)
        if index < SETUP_SPAWNS - 1:
            server.stop(outcome)

    # The jobs and fast answers come first, so each phase starts from a
    # server state that does not depend on how many loop requests the
    # host had time for: the server keeps what it served, and a larger
    # heap slows what comes after.
    try:
        cold, warm = [], []
        for grid in points.serve_sweep_grids():
            cold.append(sweep_job(server, grid, "run", expected, outcome))
            probe.burst_each_cpu(PROBES)
        every_job = [point for grid in points.serve_sweep_grids() for point in grid]
        for _ in range(WARM_REPEATS):
            warm.append(sweep_job(server, every_job, "cache", expected, outcome))
            probe.burst_each_cpu(PROBES)
        fast_us = []
        for index in range(FAST_JOBS):
            job = fast[index::FAST_JOBS]
            wall = sweep_job(server, job, "run", expected, outcome)
            fast_us.append(wall / len(job) * 1e6)
            probe.burst_each_cpu(PROBES)
        schedule = points.request_schedule(ctx.seed)
        answers, loop_wall = [], 0.0
        for _ in range(LOOP_PARTS):
            probe.burst_each_cpu(PROBES)
            deadline = time.perf_counter() + ctx.seconds * LOOP_SHARE / LOOP_PARTS
            part, wall = closed_loop(server, schedule, deadline, None)
            answers += part
            loop_wall += wall
        probe.burst_each_cpu(PROBES)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop(outcome)
    check_answers(answers, expected, outcome)

    # One slowdown for the run: the server's processes run on every CPU
    # and their operations take milliseconds or more, so every timing is
    # scaled by the probe's mean over all CPUs and the whole run.
    slowdown = probe.slowdown("mean")
    latencies = [a.latency for a in answers]
    completed = sum(1 for a in answers if a.status == 200)
    outcome.timing("setup_s", statistics.median(setup), "s", len(setup), slowdown)
    outcome.timing("sweep_cold_s", statistics.median(cold), "s", len(cold), slowdown)
    outcome.timing("sweep_warm_s", statistics.median(warm), "s", len(warm), slowdown)
    outcome.timing(
        "fast_answer_us", statistics.median(fast_us), "us", len(fast_us), slowdown
    )
    outcome.timing(
        "answer_p50_s", percentile(latencies, 0.5), "s", len(latencies), slowdown
    )
    outcome.timing(
        "answer_p99_s", percentile(latencies, 0.99), "s", len(latencies), slowdown
    )
    outcome.timing(
        "answers_per_s", completed / loop_wall, "1/s", len(latencies), slowdown
    )
    outcome.add("peak_rss_mb", peak_rss, "MB")
    return outcome


def _traced(ctx: Context, fast, expected, outcome: Outcome) -> Outcome:
    """The same schedule prefix served untraced, then by a server whose
    processes all run the layer tracer; per-layer figures come from the
    traced server's processes, its ``/metrics`` and client timing."""
    _, imports, _ = measure_setup(ctx, "serve_population", 3)

    reference = Server(ctx, "reference")
    try:
        answers, untraced_wall = closed_loop(
            reference, points.request_schedule(ctx.seed), None, TRACED_REQUESTS
        )
    finally:
        reference.stop(outcome)
    check_answers(answers, expected, outcome)

    answers, traced_wall, metrics, trace_dir = traced_session(
        ctx, fast, expected, outcome
    )
    tracer, wall, problems, queue_depth_max = merge_traces(trace_dir)
    add_layer_metrics(outcome, tracer, wall, "; ".join(problems) or None)
    add_result_metrics(
        outcome,
        [
            a.body["outcome"]["result"]
            for a in answers
            if a.status == 200 and a.body.get("provenance") == "run"
        ],
    )
    add_serve_metrics(outcome, metrics, answers, queue_depth_max)
    outcome.median("import.repro_cli_s", imports, "s")
    outcome.add("trace.overhead_ratio", traced_wall / untraced_wall, "ratio")
    return outcome


def traced_session(ctx: Context, fast, expected, outcome: Outcome):
    """The first ``TRACED_REQUESTS`` of the schedule, one cold job and
    one fast-mode job, served by a server whose processes all run the
    layer tracer.  Returns the checked answers, the loop's wall, the
    server's ``/metrics`` and the directory its processes' traces are in."""
    trace_dir = ctx.run_dir / "trace"
    server = Server(ctx, "traced", trace_dir=trace_dir)
    try:
        answers, traced_wall = closed_loop(
            server, points.request_schedule(ctx.seed), None, TRACED_REQUESTS
        )
        sweep_job(server, points.serve_sweep_grids()[0], "run", expected, outcome)
        sweep_job(server, fast[::FAST_JOBS], "run", expected, outcome)
        status, metrics = server.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
    finally:
        server.stop(outcome)
    check_answers(answers, expected, outcome)
    return answers, traced_wall, metrics, trace_dir


def add_serve_metrics(outcome: Outcome, metrics, answers, queue_depth_max) -> None:
    """The ``serve.*`` per-layer figures, from ``/metrics`` and client
    timing of a traced session."""
    counters = metrics["counters"]
    hits = counters.get("serve/cache_hits", 0)
    coalesced = counters.get("serve/coalesced", 0)
    simulated_count = counters.get("serve/simulated", 0)
    answered = hits + coalesced + simulated_count
    forks = counters.get("serve/pool_fork", 0)
    pooled = forks + counters.get("serve/pool_blob", 0) + counters.get("serve/pool_cold", 0)
    ok = [a for a in answers if a.status == 200]
    outcome.add("serve.cache_hit_ratio", hits / answered if answered else 0.0, "ratio")
    outcome.add("serve.coalesced_ratio", coalesced / answered if answered else 0.0, "ratio")
    outcome.add("serve.pool_fork_ratio", forks / pooled if pooled else 0.0, "ratio")
    outcome.add(
        "serve.server_p50_s",
        metrics["histograms"].get("serve/request_seconds", {}).get("p50") or 0.0,
        "s",
    )
    outcome.add(
        "serve.transport_s",
        statistics.median(a.latency - a.body["seconds"] for a in ok) if ok else 0.0,
        "s",
        len(ok),
    )
    outcome.add("serve.queue_depth_max", queue_depth_max, "count")


def merge_traces(trace_dir: Path):
    """One tracer summing every traced process's figures, the summed
    process walls, each process's accounting problem, and the server's
    highest queue depth."""
    merged = LayerTracer()
    wall = 0.0
    problems: List[str] = []
    queue_depth_max = 0
    records = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    if not any(r["role"] == "server" for r in records):
        problems.append("the traced server wrote no trace")
    if not any(r["role"] == "worker" for r in records):
        problems.append("no traced worker wrote a trace")
    for record in records:
        wall += record["wall_s"]
        merged.covered_s += record["covered_s"]
        merged.engine_events += record["engine_events"]
        queue_depth_max = max(queue_depth_max, record["queue_depth_max"])
        if record["problem"]:
            problems.append(f"{record['role']} {record['pid']}: {record['problem']}")
        for name, (calls, self_s, total_s, hits) in record["stats"].items():
            stat = merged.stat(name)
            stat.calls += calls
            stat.self_s += self_s
            stat.total_s += total_s
            stat.hits += hits
    return merged, wall, problems, queue_depth_max
