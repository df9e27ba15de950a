"""Overload protection: admission shedding, the circuit breaker, and
graceful drain.

The service-level tests swap the process pool for a
``ThreadPoolExecutor`` and monkeypatch ``execute_query_job`` so job
outcomes (block / fail / succeed) are scripted — overload scenarios
need exact control of when a worker finishes, which a real pool cannot
give deterministically.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.cli import _retry_after_seconds
from repro.serve import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    FeasibilityQuery,
    FeasibilityService,
    ServeConfig,
    ServiceOverloaded,
    start_http_server,
)
from repro.serve import service as service_module

TINY = dict(device="pixel 2", d_min_ms=60.0, d_max_ms=80.0, d_step_ms=20.0,
            trials_per_d=1, trial_duration_ms=400.0, probe_chars=0,
            probe_trials=0)


def _tiny(**overrides):
    return FeasibilityQuery(**{**TINY, **overrides})


class TestBreakerStateMachine:
    def test_trips_after_threshold_failures_in_window(self):
        breaker = CircuitBreaker(BreakerConfig(
            window=4, failure_threshold=3, cooldown_rejections=2))
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_successes_age_failures_out_of_the_window(self):
        breaker = CircuitBreaker(BreakerConfig(
            window=3, failure_threshold=3, cooldown_rejections=1))
        for _ in range(10):  # never 3 failures within any 3 outcomes
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_rejections_then_one_probe(self):
        breaker = CircuitBreaker(BreakerConfig(
            window=2, failure_threshold=2, cooldown_rejections=3))
        breaker.record_failure(), breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert [breaker.allow() for _ in range(3)] == [False] * 3
        assert breaker.rejections_total == 3
        assert breaker.allow() is True  # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow() is False  # one probe at a time

    def test_probe_success_closes_and_clears_the_window(self):
        breaker = CircuitBreaker(BreakerConfig(
            window=2, failure_threshold=2, cooldown_rejections=1))
        breaker.record_failure(), breaker.record_failure()
        breaker.allow()  # rejection serving the cooldown
        assert breaker.allow() is True
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.failures_in_window == 0

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(BreakerConfig(
            window=2, failure_threshold=2, cooldown_rejections=2))
        breaker.record_failure(), breaker.record_failure()
        breaker.allow(), breaker.allow()
        assert breaker.allow() is True  # probe admitted
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.allow() is False  # cooldown counts from zero again

    def test_zero_threshold_disables_the_breaker(self):
        breaker = CircuitBreaker(BreakerConfig(
            window=4, failure_threshold=0, cooldown_rejections=1))
        for _ in range(50):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow() is True

    def test_on_state_fires_per_transition(self):
        seen = []
        breaker = CircuitBreaker(
            BreakerConfig(window=1, failure_threshold=1,
                          cooldown_rejections=1),
            on_state=seen.append)
        breaker.record_failure()
        breaker.allow()          # cooldown rejection
        breaker.allow()          # probe
        breaker.record_success()
        assert seen == [BreakerState.OPEN, BreakerState.HALF_OPEN,
                        BreakerState.CLOSED]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="window"):
            BreakerConfig(window=0)
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerConfig(window=4, failure_threshold=5)
        with pytest.raises(ValueError, match="cooldown"):
            BreakerConfig(cooldown_rejections=0)

    def test_overloaded_carries_reason_and_retry_after(self):
        exc = ServiceOverloaded("queue-full", 1.5)
        assert exc.reason == "queue-full"
        assert exc.retry_after == 1.5
        assert "queue-full" in str(exc) and "1.5s" in str(exc)


async def _scripted_service(monkeypatch, config, behavior):
    """A started service whose pool is a thread and whose job execution
    is the scripted ``behavior(query)``."""
    monkeypatch.setattr(service_module, "execute_query_job", behavior)
    service = FeasibilityService(config)
    await service.start()
    real_pool = service._pool
    service._pool = ThreadPoolExecutor(max_workers=config.workers)
    real_pool.shutdown(wait=False)
    return service


class TestAdmissionShedding:
    def test_queue_high_watermark_sheds_instead_of_blocking(
            self, monkeypatch):
        release = threading.Event()

        def blocked(query):
            release.wait(timeout=30)
            return None  # treated as a failed job; irrelevant here

        async def body():
            service = await _scripted_service(
                monkeypatch,
                ServeConfig(workers=1, queue_limit=1,
                            retry_after_seconds=2.5),
                blocked)
            try:
                running = asyncio.ensure_future(
                    service.submit(_tiny(seed=1)))
                await asyncio.sleep(0.05)  # drainer picks seed=1 up
                queued = asyncio.ensure_future(
                    service.submit(_tiny(seed=2)))
                await asyncio.sleep(0.05)  # seed=2 now fills the queue
                with pytest.raises(ServiceOverloaded) as exc_info:
                    await service.submit(_tiny(seed=3))
                stats = service.stats()
                release.set()
                await asyncio.gather(running, queued)
                return exc_info.value, stats
            finally:
                release.set()
                await service.close()

        exc, stats = asyncio.run(body())
        assert exc.reason == "queue-full"
        assert exc.retry_after == 2.5
        assert stats["serve_shed_total"] == 1.0

    def test_breaker_opens_after_failures_and_sheds(self, monkeypatch):
        def failing(query):
            raise RuntimeError("worker melted")

        async def body():
            service = await _scripted_service(
                monkeypatch,
                ServeConfig(workers=1, queue_limit=8,
                            breaker=BreakerConfig(
                                window=2, failure_threshold=2,
                                cooldown_rejections=2)),
                failing)
            try:
                first = await service.submit(_tiny(seed=1))
                second = await service.submit(_tiny(seed=2))
                with pytest.raises(ServiceOverloaded) as shed:
                    await service.submit(_tiny(seed=3))
                return first, second, shed.value, service.stats()
            finally:
                await service.close()

        first, second, shed, stats = asyncio.run(body())
        assert not first.ok and not second.ok
        assert shed.reason == "breaker-open"
        assert stats["serve_breaker_state"] == float(BreakerState.OPEN)
        assert stats["serve_shed_total"] == 1.0

    def test_half_open_probe_recovers_the_service(self, monkeypatch):
        healthy = threading.Event()

        def flaky(query):
            if not healthy.is_set():
                raise RuntimeError("still broken")
            from repro.serve.execution import execute_query_job
            return execute_query_job(query)

        async def body():
            service = await _scripted_service(
                monkeypatch,
                ServeConfig(workers=1, queue_limit=8,
                            breaker=BreakerConfig(
                                window=2, failure_threshold=2,
                                cooldown_rejections=2)),
                flaky)
            try:
                await service.submit(_tiny(seed=1))
                await service.submit(_tiny(seed=2))  # breaker now OPEN
                healthy.set()
                shed = 0
                response = None
                for seed in range(3, 10):
                    try:
                        response = await service.submit(_tiny(seed=seed))
                        break
                    except ServiceOverloaded:
                        shed += 1
                return response, shed, service.stats()
            finally:
                await service.close()

        response, shed, stats = asyncio.run(body())
        assert shed == 2  # exactly the cooldown's worth of rejections
        assert response is not None and response.ok
        assert stats["serve_breaker_state"] == float(BreakerState.CLOSED)

    def test_draining_service_sheds_new_requests(self, monkeypatch):
        def instant(query):
            from repro.serve.execution import execute_query_job
            return execute_query_job(query)

        async def body():
            service = await _scripted_service(
                monkeypatch, ServeConfig(workers=1, queue_limit=4),
                instant)
            try:
                before = await service.submit(_tiny(seed=1))
                elapsed = await service.drain()
                with pytest.raises(ServiceOverloaded) as shed:
                    await service.submit(_tiny(seed=2))
                return before, elapsed, shed.value, service.stats()
            finally:
                await service.close()

        before, elapsed, shed, stats = asyncio.run(body())
        assert before.ok
        assert shed.reason == "draining"
        assert elapsed >= 0.0
        assert stats["serve_drain_seconds"] == pytest.approx(elapsed)

    def test_drain_finishes_queued_jobs_and_flushes_cache(
            self, monkeypatch, tmp_path):
        def instant(query):
            from repro.serve.execution import execute_query_job
            return execute_query_job(query)

        async def body():
            service = await _scripted_service(
                monkeypatch,
                ServeConfig(workers=1, queue_limit=8, cache_dir=tmp_path),
                instant)
            try:
                responses = await asyncio.gather(
                    service.submit(_tiny(seed=1)),
                    service.submit(_tiny(seed=2)))
                # Failed disk writes would sit dirty; force one to prove
                # drain retries it.
                service.cache._dirty["deadbeef"] = responses[0].report
                await service.drain()
                return responses, service.cache.dirty_entries
            finally:
                await service.close()

        responses, dirty = asyncio.run(body())
        assert all(response.ok for response in responses)
        assert dirty == 0


class TestHttp503:
    def test_shed_request_gets_503_with_retry_after(self, monkeypatch):
        release = threading.Event()

        def blocked(query):
            release.wait(timeout=30)
            raise RuntimeError("irrelevant")

        async def _post(port, query):
            payload = query.canonical_json().encode("utf-8")
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"POST /query HTTP/1.1\r\n"
                         + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                         + payload)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        async def body():
            service = await _scripted_service(
                monkeypatch,
                ServeConfig(workers=1, queue_limit=1,
                            retry_after_seconds=0.25),
                blocked)
            server = await start_http_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                hang_a = asyncio.ensure_future(_post(port, _tiny(seed=1)))
                await asyncio.sleep(0.1)
                hang_b = asyncio.ensure_future(_post(port, _tiny(seed=2)))
                await asyncio.sleep(0.1)
                shed = await asyncio.wait_for(
                    _post(port, _tiny(seed=3)), timeout=5)
                release.set()
                await asyncio.gather(hang_a, hang_b)
                return shed
            finally:
                release.set()
                server.close()
                await server.wait_closed()
                await service.close()

        raw = asyncio.run(body())
        head, body_bytes = raw.split(b"\r\n\r\n", 1)
        assert raw.startswith(b"HTTP/1.1 503")
        assert b"Retry-After: 0.25" in head
        answer = json.loads(body_bytes)
        assert answer["reason"] == "queue-full"
        assert answer["retry_after"] == 0.25


class TestRetryAfterParsing:
    def test_parses_seconds(self):
        assert _retry_after_seconds({"Retry-After": "2.5"}) == 2.5

    def test_clamps_extremes(self):
        assert _retry_after_seconds({"Retry-After": "0"}) == 0.05
        assert _retry_after_seconds({"Retry-After": "86400"}) == 30.0

    def test_fallback_on_garbage_or_absence(self):
        assert _retry_after_seconds({"Retry-After": "soon"},
                                    fallback=2.0) == 2.0
        assert _retry_after_seconds({}, fallback=0.5) == 0.5
        assert _retry_after_seconds(None, fallback=0.7) == 0.7


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve()
                                  .parents[2] / "src"))
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", "0", "--workers", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        except Exception:
            proc.kill()
            raise
        assert proc.returncode == 0, err
        assert "drained in" in out
