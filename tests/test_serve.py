"""Tests for the simulation-as-a-service stack (:mod:`repro.serve`).

Four layers, bottom up:

- unit — :class:`~repro.engine.snapshot.SnapshotPool` admit/fork/evict
  accounting, token-bucket rate limiting, latency-histogram quantiles,
- worker — :func:`~repro.serve.worker.execute_point_pooled` must return
  byte-identical outcomes warm (fork), cold and unpooled, including OOM
  and chaos points,
- server — a real asyncio server on an ephemeral port, driven by the
  sync client from worker threads: dedup (disk cache + in-flight
  coalescing), backpressure 429s, per-client rate-limit 429s, the
  ``/sweep``/``/status`` job flow, malformed-request errors, metrics,
  and graceful drain,
- determinism — every served outcome equals a local
  :func:`~repro.harness.sweep.execute_point` run byte-for-byte (that
  function is exactly what ``python -m repro run`` executes).

The heavier concurrent-load battery lives in
``benchmarks/perf/test_serve_load.py``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.engine.core import Environment
from repro.engine.snapshot import EngineSnapshot, SnapshotPool
from repro.harness.sweep import (
    ResultCache,
    SweepPoint,
    _outcome_to_dict,
    execute_point,
    prefix_key,
)
from repro.instrument.metrics import Histogram
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import RateLimited, RateLimiter, TokenBucket
from repro.serve.server import ExperimentServer, ServeConfig
from repro.serve.worker import execute_point_pooled

SCALE = 0.03125


def fir_point(system="UvmDiscard", ratio=2.0, **kwargs):
    return SweepPoint(
        workload="fir", system=system, ratio=ratio, scale=SCALE, **kwargs
    )


def canonical(outcome):
    return json.dumps(outcome, sort_keys=True)


# ----------------------------------------------------------------------
# snapshot pool
# ----------------------------------------------------------------------


class _Payload:
    """A tiny quiescent stand-in for a runtime (deep-copyable)."""

    def __init__(self, tag):
        self.tag = tag

    def snapshot_precheck(self):
        pass


class TestSnapshotPool:
    def test_admit_fork_and_lru_eviction(self):
        pool = SnapshotPool(max_bytes=100)
        assert pool.admit(("a",), _Payload("a"), nbytes=40)
        assert pool.admit(("b",), _Payload("b"), nbytes=40)
        assert pool.fork(("a",)).tag == "a"  # touches a: b becomes LRU
        assert pool.admit(("c",), _Payload("c"), nbytes=40)  # evicts b
        assert pool.fork(("b",)) is None
        assert pool.fork(("a",)).tag == "a"
        assert pool.fork(("c",)).tag == "c"
        stats = pool.stats()
        assert stats["evicted"] == 1
        assert stats["entries"] == 2
        assert stats["bytes"] == 80 <= pool.max_bytes

    def test_forks_are_independent_copies(self):
        pool = SnapshotPool(max_bytes=100)
        pool.admit(("k",), _Payload("orig"), nbytes=10)
        first, second = pool.fork(("k",)), pool.fork(("k",))
        first.tag = "mutated"
        assert second.tag == "orig"
        assert pool.fork(("k",)).tag == "orig"

    def test_oversize_entry_is_refused(self):
        pool = SnapshotPool(max_bytes=10)
        assert not pool.admit(("big",), _Payload("big"), nbytes=11)
        assert pool.stats()["rejected_oversize"] == 1
        assert len(pool) == 0

    def test_live_simulation_is_refused_not_raised(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        pool = SnapshotPool(max_bytes=1 << 20)
        assert not pool.admit(("live",), env)
        assert pool.stats()["rejected_live"] == 1
        assert pool.fork(("live",)) is None

    def test_readmit_replaces_and_reaccounts(self):
        pool = SnapshotPool(max_bytes=100)
        pool.admit(("k",), _Payload("v1"), nbytes=60)
        pool.admit(("k",), _Payload("v2"), nbytes=30)
        assert pool.nbytes == 30
        assert pool.fork(("k",)).tag == "v2"

    def test_explicit_evict_and_clear(self):
        pool = SnapshotPool(max_bytes=100)
        pool.admit(("k",), _Payload("k"), nbytes=10)
        assert pool.evict(("k",))
        assert not pool.evict(("k",))
        pool.admit(("j",), _Payload("j"), nbytes=10)
        pool.clear()
        assert len(pool) == 0 and pool.nbytes == 0

    def test_accepts_prebuilt_snapshot_and_estimates_bytes(self):
        pool = SnapshotPool(max_bytes=1 << 20)
        snapshot = EngineSnapshot(_Payload("x"))
        assert pool.admit(("k",), snapshot)
        assert 0 < pool.nbytes <= pool.max_bytes

    def test_zero_budget_pool_admits_nothing(self):
        pool = SnapshotPool(max_bytes=0)
        assert not pool.admit(("k",), _Payload("k"), nbytes=1)


# ----------------------------------------------------------------------
# rate limiting and latency quantiles
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: clock[0])
        assert bucket.try_take() is None
        assert bucket.try_take() is None
        retry = bucket.try_take()
        assert retry == pytest.approx(0.5)
        clock[0] += 0.5
        assert bucket.try_take() is None

    def test_limiter_is_per_client(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: clock[0])
        limiter.check("alice")
        with pytest.raises(RateLimited):
            limiter.check("alice")
        limiter.check("bob")  # separate bucket

    def test_disabled_limiter_never_fires(self):
        limiter = RateLimiter(rate=0.0, burst=1)
        for _ in range(100):
            limiter.check("anyone")


class TestHistogramQuantile:
    def test_quantiles_bracket_observations(self):
        histogram = Histogram("latency", bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.02, 0.05, 0.5, 0.9):
            histogram.observe(value)
        assert histogram.quantile(0.0) == pytest.approx(0.005)
        assert histogram.quantile(1.0) == pytest.approx(0.9)
        assert 0.005 <= histogram.quantile(0.5) <= 0.9
        assert histogram.quantile(0.5) <= histogram.quantile(0.99)

    def test_empty_and_bad_inputs(self):
        histogram = Histogram("empty", bounds=(1.0,))
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


# ----------------------------------------------------------------------
# pooled worker execution
# ----------------------------------------------------------------------


class TestExecutePointPooled:
    def test_cold_then_fork_byte_identical_to_execute_point(self):
        pool = SnapshotPool(max_bytes=1 << 30)
        point = fir_point()
        reference = canonical(_outcome_to_dict(execute_point(point)))
        cold, cold_source = execute_point_pooled(point, pool)
        warm, warm_source = execute_point_pooled(point, pool)
        assert (cold_source, warm_source) == ("cold", "fork")
        assert canonical(cold) == reference
        assert canonical(warm) == reference

    def test_sibling_point_forks_shared_prefix(self):
        pool = SnapshotPool(max_bytes=1 << 30)
        first = fir_point(system="UVM-opt", ratio=1.5)
        sibling = fir_point(system="UvmDiscard", ratio=3.0)
        assert prefix_key(first) == prefix_key(sibling)
        _, source_first = execute_point_pooled(first, pool)
        outcome, source_sibling = execute_point_pooled(sibling, pool)
        assert (source_first, source_sibling) == ("cold", "fork")
        assert canonical(outcome) == canonical(
            _outcome_to_dict(execute_point(sibling))
        )

    def test_unpooled_paths(self):
        point = fir_point()
        outcome, source = execute_point_pooled(point, None)
        assert source == "unpooled"
        assert canonical(outcome) == canonical(
            _outcome_to_dict(execute_point(point))
        )
        no_uvm = SweepPoint("fir", "No-UVM", ratio=0.9, scale=SCALE)
        _, source = execute_point_pooled(no_uvm, SnapshotPool(1 << 30))
        assert source == "unpooled"

    def test_oom_point_reports_oom(self):
        pool = SnapshotPool(max_bytes=1 << 30)
        point = SweepPoint(
            "dl:vgg16", "No-UVM", batch_size=150, scale=SCALE
        )
        outcome, source = execute_point_pooled(point, pool)
        assert outcome == {"status": "oom"}
        assert source == "unpooled"  # No-UVM has no split-phase plan

    def test_chaos_point_through_the_pool(self):
        pool = SnapshotPool(max_bytes=1 << 30)
        chaos = {"seed": 3, "transfer_fault_interval": 40}
        point = fir_point(chaos=tuple(sorted(chaos.items())))
        reference = canonical(_outcome_to_dict(execute_point(point)))
        cold, _ = execute_point_pooled(point, pool)
        warm, source = execute_point_pooled(point, pool)
        assert source == "fork"
        assert canonical(cold) == reference
        assert canonical(warm) == reference


# ----------------------------------------------------------------------
# the server, end to end
# ----------------------------------------------------------------------


class RunningServer:
    """Run an :class:`ExperimentServer` on a background event loop."""

    def __init__(self, **overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 2)
        overrides.setdefault("executor", "thread")
        overrides.setdefault("cache_dir", None)
        self.config = ServeConfig(**overrides)
        self.server = None
        self.exit_code = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(20), "server failed to start"
        return self

    def __exit__(self, *_exc):
        self.stop()

    def stop(self):
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive()

    def _main(self):
        asyncio.run(self._amain())

    async def _amain(self):
        self.server = ExperimentServer(self.config)
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        self.exit_code = await self.server.run_until_stopped(
            install_signals=False
        )

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.port}"


class TestServerEndToEnd:
    def test_run_sweep_status_metrics_and_identity(self, tmp_path):
        with RunningServer(cache_dir=tmp_path / "cache") as running:
            client = ServeClient(running.url, client_id="e2e")
            assert client.health()["ok"] is True

            point = fir_point()
            first = client.run_point(point)
            assert (first["provenance"], first["source"]) == ("run", "cold")
            # Byte-identity: execute_point is what `repro run` executes.
            assert canonical(first["outcome"]) == canonical(
                _outcome_to_dict(execute_point(point))
            )

            # The duplicate is served from the content-hash cache.
            duplicate = client.run_point(point)
            assert duplicate["provenance"] == "cache"
            assert canonical(duplicate["outcome"]) == canonical(first["outcome"])

            # A sibling system forks the warm fir prefix.
            sibling = client.run_point(fir_point(system="UVM-opt"))
            assert (sibling["provenance"], sibling["source"]) == ("run", "fork")

            # Sweep -> job -> status.
            batch = [fir_point(ratio=r) for r in (1.5, 2.0, 3.0)]
            submitted = client.submit_sweep(points=batch)
            assert submitted["points"] == 3
            job = client.wait_job(submitted["id"])
            assert job["state"] == "done"
            assert len(job["outcomes"]) == 3
            # ratio 2.0 was already cached; the rest simulated.
            assert job["provenance"].count("cache") >= 1
            for spec, outcome in zip(job["points"], job["outcomes"]):
                local = _outcome_to_dict(
                    execute_point(SweepPoint.from_dict(spec))
                )
                assert canonical(outcome) == canonical(local)

            metrics = client.metrics()
            counters = metrics["counters"]
            assert counters["serve/cache_hits"] >= 1
            assert counters["serve/pool_cold"] >= 1
            assert counters["serve/pool_fork"] >= 1
            assert metrics["pool_hit_rate"] > 0
            assert metrics["histograms"]["serve/request_seconds"]["count"] >= 4
            assert "p50" in metrics["histograms"]["serve/request_seconds"]
            assert "p99" in metrics["histograms"]["serve/request_seconds"]
        assert running.exit_code == 0

    def test_grid_sweep_and_deferred_run(self):
        with RunningServer() as running:
            client = ServeClient(running.url)
            submitted = client.submit_sweep(
                grid={
                    "workloads": ["fir"],
                    "systems": ["UVM-opt", "UvmDiscard"],
                    "ratios": [2.0],
                    "scale": SCALE,
                }
            )
            assert submitted["points"] == 2
            job = client.wait_job(submitted["id"])
            assert job["provenance"].count("run") == 2

            deferred = client.run_point(fir_point(ratio=1.5), wait=False)
            status = client.wait_job(deferred["id"])
            assert status["total"] == 1
            assert status["outcomes"][0]["status"] == "ok"

    def test_concurrent_duplicates_coalesce(self):
        with RunningServer(workers=2) as running:
            # ~0.3s of simulation: long enough that the staggered
            # duplicate reliably arrives while the first is in flight.
            point = SweepPoint("radix", "UvmDiscard", ratio=2.0, scale=0.125)
            responses, lock = [], threading.Lock()

            def fire():
                response = ServeClient(running.url).run_point(point)
                with lock:
                    responses.append(response)

            first = threading.Thread(target=fire)
            first.start()
            time.sleep(0.1)  # let the first request enter the executor
            second = threading.Thread(target=fire)
            second.start()
            first.join()
            second.join()
            provenances = sorted(r["provenance"] for r in responses)
            assert provenances == ["coalesced", "run"]
            assert canonical(responses[0]["outcome"]) == canonical(
                responses[1]["outcome"]
            )
            # Only one simulation happened for the two requests.
            metrics = ServeClient(running.url).metrics()
            assert metrics["counters"]["serve/simulated"] == 1

    def test_queue_backpressure_answers_429_with_retry_after(self):
        with RunningServer(workers=1, queue_limit=1) as running:
            statuses, lock = [], threading.Lock()

            def fire(ratio):
                client = ServeClient(running.url, max_retries=0)
                point = SweepPoint("radix", "UvmDiscard", ratio=ratio, scale=0.125)
                status = 200
                try:
                    client.run_point(point)
                except ServeError as exc:
                    status = exc.status
                with lock:
                    statuses.append(status)

            threads = [
                threading.Thread(target=fire, args=(ratio,))
                for ratio in (1.5, 2.0, 3.0, 4.0)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses.count(200) >= 1
            assert statuses.count(429) >= 1
            raw_status, headers, _ = ServeClient(
                running.url, max_retries=0
            )._once("POST", "/run", None)
            # (also: a bare POST with no body is a 400, not a crash)
            assert raw_status == 400
            metrics = ServeClient(running.url).metrics()
            assert metrics["counters"]["serve/rejected_busy"] >= 1

    def test_prometheus_exposition_and_run_attribution(self):
        import urllib.request

        with RunningServer() as running:
            client = ServeClient(running.url, client_id="prom")
            # A run that retains transfer records carries the byte-
            # attribution summary in its /run outcome.
            explained = client.run_point(
                fir_point(driver=(("keep_transfer_records", True),))
            )
            attribution = explained["outcome"]["result"]["attribution"]
            assert attribution["complete"] is True
            assert attribution["waste"]["useful_bytes"] > 0
            # The hot path stays lean: no records, no attribution key
            # (omitted so pre-attribution caches stay byte-identical).
            bare = client.run_point(fir_point())
            assert "attribution" not in bare["outcome"]["result"]

            response = urllib.request.urlopen(
                running.url + "/metrics?format=prometheus"
            )
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
            assert "# TYPE repro_serve_requests_total counter" in text
            assert "# TYPE repro_serve_request_seconds summary" in text
            assert 'repro_serve_request_seconds{quantile="0.5"}' in text
            assert "repro_serve_queue_limit 256" in text
            # Scrapes are parseable: every sample line is "name value".
            for line in text.strip().split("\n"):
                if line.startswith("#"):
                    continue
                name, value = line.rsplit(" ", 1)
                float(value)
                assert name
            # The JSON document stays the default.
            metrics = client.metrics()
            assert "counters" in metrics and "histograms" in metrics

    def test_rate_limited_client_gets_429_and_retry_succeeds(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = fir_point()
        cache.put(point, _outcome_to_dict(execute_point(point)))
        with RunningServer(
            cache_dir=tmp_path / "cache", rate=2.0, burst=1.0
        ) as running:
            impatient = ServeClient(running.url, client_id="hot", max_retries=0)
            assert impatient.run_point(point)["provenance"] == "cache"
            with pytest.raises(ServeError) as excinfo:
                impatient.run_point(point)
            assert excinfo.value.status == 429
            # A different client has its own bucket.
            other = ServeClient(running.url, client_id="cool", max_retries=0)
            assert other.run_point(point)["provenance"] == "cache"
            # The retrying client absorbs the 429 by honoring Retry-After.
            patient = ServeClient(running.url, client_id="hot", max_retries=10)
            assert patient.run_point(point)["provenance"] == "cache"
            assert patient.retries >= 1
            metrics = ServeClient(running.url).metrics()
            assert metrics["counters"]["serve/rejected_rate"] >= 1

    def test_malformed_requests(self):
        with RunningServer() as running:
            client = ServeClient(running.url, max_retries=0)

            def status_of(method, path, payload=None):
                try:
                    client._request(method, path, payload)
                except ServeError as exc:
                    return exc.status
                return 200

            assert status_of("POST", "/run", {"client": "x"}) == 400  # no point
            assert status_of("POST", "/run", {"point": {"workload": "nope"}}) == 400
            assert status_of("POST", "/run", {"point": 7}) == 400
            assert (
                status_of("POST", "/run", {"point": fir_point().to_dict(),
                                           "wait": "yes"})
                == 400
            )
            assert status_of("POST", "/sweep", {"client": "x"}) == 400
            assert status_of("POST", "/sweep", {"points": []}) == 400
            assert (
                status_of("POST", "/sweep", {"grid": {"workloads": []}}) == 400
            )
            assert status_of("GET", "/status/job-999") == 404
            assert status_of("GET", "/nope") == 404
            assert status_of("GET", "/run") == 405
            assert status_of("POST", "/metrics") == 405
            # Invalid JSON body.
            connection_status, _, payload = client._once(
                "POST", "/run", None
            )
            assert connection_status == 400
            assert "error" in payload

    def test_bad_driver_override_answers_400(self):
        with RunningServer() as running:
            client = ServeClient(running.url, max_retries=0)
            for driver in (
                {"vectorized": False},
                {"eviction_policy": "mru"},
            ):
                point = dict(fir_point().to_dict(), driver=driver)
                with pytest.raises(ServeError) as info:
                    client._request("POST", "/run", {"point": point})
                assert info.value.status == 400
                assert "bad driver override" in str(info.value)
            counters = client.metrics()["counters"]
            assert counters.get("serve/errors", 0) == 0

    def test_graceful_drain_finishes_inflight_work(self):
        with RunningServer(workers=1, drain_seconds=60.0) as running:
            responses, lock = [], threading.Lock()

            def fire():
                point = SweepPoint("radix", "UvmDiscard", ratio=2.0, scale=0.125)
                response = ServeClient(running.url).run_point(point)
                with lock:
                    responses.append(response)

            worker_thread = threading.Thread(target=fire)
            worker_thread.start()
            time.sleep(0.1)  # request is in flight
            running.stop()  # graceful shutdown while simulating
            worker_thread.join(timeout=60)
            assert running.exit_code == 0
            assert len(responses) == 1
            assert responses[0]["outcome"]["status"] == "ok"


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"executor": "fibers"},
            {"queue_limit": 0},
            {"pool_bytes": -1},
            {"rate": 5.0, "burst": 0.5},
            {"port": 70000},
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServeConfig(**overrides).validate()
