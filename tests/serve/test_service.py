"""End-to-end tests for the feasibility service: byte-identity with the
in-process path, single-flight coalescing, the persistent cache,
supervised failure handling and the HTTP front."""

import asyncio
import hashlib
import json

import pytest

from repro.api import query_feasibility
from repro.experiments.resilience import RunPolicy
from repro.serve import (
    FeasibilityQuery,
    FeasibilityService,
    ServeConfig,
    start_http_server,
)

#: A deliberately tiny sweep so each executed query stays sub-second.
TINY = dict(device="pixel 2", d_min_ms=60.0, d_max_ms=80.0, d_step_ms=20.0,
            trials_per_d=1, trial_duration_ms=400.0, probe_chars=0,
            probe_trials=0)


def _tiny(**overrides):
    fields = {**TINY, **overrides}
    return FeasibilityQuery(**fields)


async def _with_service(body, config=None):
    service = FeasibilityService(config or ServeConfig(workers=2))
    await service.start()
    try:
        return await body(service)
    finally:
        await service.close()


#: sha256 of ``aggregates_json()`` for fixed tiny queries. Unlike the
#: served-vs-direct comparison (both sides move together), these pin the
#: served bytes themselves across refactors of the execution path.
SERVED_BYTES_SHA256 = {
    "sweep": "5d68866848ccd68c5a3e13052c2e9c35fb444c323bba55d6bf6752d4aee64ff8",
    "sweep+probe":
        "545d328e4348065ecb0cdf11d5479668aa623ee1b70affc29d6791c86d91b5b7",
}


class TestExecutionIdentity:
    @pytest.mark.parametrize("label, overrides", [
        ("sweep", {}),
        ("sweep+probe", {"probe_chars": 3, "probe_trials": 1}),
    ])
    def test_served_bytes_are_pinned(self, label, overrides):
        report = query_feasibility(_tiny(**overrides))
        digest = hashlib.sha256(
            report.aggregates_json().encode("utf-8")).hexdigest()
        assert digest == SERVED_BYTES_SHA256[label]

    def test_served_answer_matches_in_process_byte_for_byte(self):
        query = _tiny()
        direct = query_feasibility(query)

        async def body(service):
            return await service.submit(query)

        response = asyncio.run(_with_service(body))
        assert response.ok
        assert response.provenance.source == "executed"
        assert response.report.aggregates_json() == direct.aggregates_json()
        assert response.report == direct

    def test_report_carries_query_hash_and_bound(self):
        query = _tiny()
        report = query_feasibility(query)
        assert report.query_hash == query.content_hash()
        assert report.published_upper_bound_d_ms > 0
        assert len(report.points) == len(query.d_values())


class TestCoalescingAndCache:
    def test_identical_concurrent_queries_execute_once(self):
        query = _tiny(seed=11)

        async def body(service):
            first, second = await asyncio.gather(
                service.submit(query), service.submit(query))
            stats = service.stats()
            third = await service.submit(query)
            return first, second, third, stats

        first, second, third, stats = asyncio.run(_with_service(body))
        assert sorted([first.provenance.source, second.provenance.source]) \
            == ["coalesced", "executed"]
        assert stats["serve_coalesced_total"] == 1.0
        assert stats["serve_executed_total"] == 1.0
        assert first.report.aggregates_json() == second.report.aggregates_json()
        assert third.provenance.source == "cache"

    def test_distinct_queries_are_not_coalesced(self):
        async def body(service):
            a, b = await asyncio.gather(
                service.submit(_tiny(seed=1)), service.submit(_tiny(seed=2)))
            return a, b, service.stats()

        a, b, stats = asyncio.run(_with_service(body))
        assert stats["serve_coalesced_total"] == 0.0
        assert stats["serve_executed_total"] == 2.0
        assert a.report.query_hash != b.report.query_hash

    def test_disk_cache_survives_service_restart(self, tmp_path):
        query = _tiny(seed=3)
        config = ServeConfig(workers=1, cache_dir=tmp_path)

        async def executed(service):
            return await service.submit(query)

        first = asyncio.run(_with_service(executed, config))
        second = asyncio.run(_with_service(executed, config))
        assert first.provenance.source == "executed"
        assert second.provenance.source == "cache"
        assert second.report == first.report


class TestSupervision:
    def test_worker_crash_degrades_to_structured_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "serve-query:*:crash")
        query = _tiny(seed=4)

        async def body(service):
            return await service.submit(query), service.stats()

        response, stats = asyncio.run(_with_service(body))
        assert not response.ok
        assert response.failure is not None
        assert response.failure.kind == "exception"
        assert "ChaosCrash" in response.failure.error
        assert response.failure.attempts == 1
        assert stats["serve_failures_total"] == 1.0

    def test_retry_policy_recovers_from_first_attempt_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "serve-query:1:crash")
        query = _tiny(seed=5)
        config = ServeConfig(workers=1, policy=RunPolicy(max_attempts=2))

        async def body(service):
            return await service.submit(query), service.stats()

        response, stats = asyncio.run(_with_service(body, config))
        assert response.ok
        assert response.provenance.attempts == 2
        assert stats["serve_retries_total"] == 1.0
        assert stats["serve_executed_total"] == 1.0

    def test_poisoned_result_is_rejected_by_the_supervisor(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "serve-query:*:poison")
        query = _tiny(seed=6)

        async def body(service):
            return await service.submit(query)

        response = asyncio.run(_with_service(body))
        assert not response.ok
        assert response.failure.kind == "poisoned"


async def _http(port, request: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw


def _body(raw: bytes) -> str:
    return raw.split(b"\r\n\r\n", 1)[1].decode("utf-8")


class TestHttpFront:
    def test_endpoints(self):
        query = _tiny(seed=7)

        async def body(service):
            server = await start_http_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                health = await _http(
                    port, b"GET /healthz HTTP/1.1\r\n\r\n")
                payload = query.canonical_json().encode("utf-8")
                posted = await _http(port, (
                    b"POST /query HTTP/1.1\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload))
                bad = await _http(port, (
                    b"POST /query HTTP/1.1\r\n"
                    b"Content-Length: 24\r\n\r\n"
                    b'{"device":"no such ph"}x'))
                metrics = await _http(
                    port, b"GET /metrics HTTP/1.1\r\n\r\n")
                missing = await _http(
                    port, b"GET /nope HTTP/1.1\r\n\r\n")
            finally:
                server.close()
                await server.wait_closed()
            return health, posted, bad, metrics, missing

        health, posted, bad, metrics, missing = asyncio.run(
            _with_service(body))
        assert health.startswith(b"HTTP/1.1 200")
        assert json.loads(_body(health)) == {"status": "ok"}

        assert posted.startswith(b"HTTP/1.1 200")
        answer = json.loads(_body(posted))
        assert answer["provenance"]["source"] == "executed"
        assert answer["report"]["query_hash"] == query.content_hash()

        assert bad.startswith(b"HTTP/1.1 400")
        assert "error" in json.loads(_body(bad))

        assert metrics.startswith(b"HTTP/1.1 200")
        assert "serve_queries_total" in _body(metrics)
        assert "serve_coalesced_total" in _body(metrics)

        assert missing.startswith(b"HTTP/1.1 404")


class TestLifecycle:
    def test_submit_before_start_is_an_error(self):
        service = FeasibilityService()

        async def body():
            with pytest.raises(RuntimeError, match="not started"):
                await service.submit(_tiny())

        asyncio.run(body())

    def test_double_start_is_an_error(self):
        async def body(service):
            with pytest.raises(RuntimeError, match="already started"):
                await service.start()

        asyncio.run(_with_service(body))

    def test_close_reaps_pool_workers_and_manager_thread(self):
        # A worker or manager thread outliving close() keeps the pool's
        # semaphores alive past the service, which the resource tracker
        # then reports as leaked at interpreter exit.
        async def body():
            service = FeasibilityService(ServeConfig(workers=2))
            await service.start()
            response = await service.submit(_tiny(seed=21))
            pool = service._pool
            workers = list(pool._processes.values())
            manager = pool._executor_manager_thread
            await service.close()
            return response, workers, manager

        response, workers, manager = asyncio.run(body())
        assert response.ok
        assert workers
        assert [w for w in workers if w.is_alive()] == []
        assert manager is not None and not manager.is_alive()
