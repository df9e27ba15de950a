"""The asyncio feasibility service: queue → single-flight → pool → cache.

One :class:`FeasibilityService` owns a bounded job queue, a
:class:`~concurrent.futures.ProcessPoolExecutor` whose workers keep warm
:class:`~repro.experiments.engine.TrialExecutor` stack pools between
jobs, a content-addressed :class:`~repro.serve.cache.QueryCache`, and a
single-flight table that coalesces identical in-flight queries onto one
execution.

``submit()`` is the whole request path:

1. **Cache** — a completed identical query is served immediately
   (provenance ``"cache"``).
2. **Single-flight** — an identical query already queued or running is
   awaited, not re-executed (provenance ``"coalesced"``); the underlying
   trials run exactly once.
3. **Admission** — a full queue, an open circuit breaker, or a draining
   service sheds the request with :class:`ServiceOverloaded` (the HTTP
   front maps it to ``503`` + ``Retry-After``) instead of blocking; an
   admitted query joins the bounded queue until a drain task feeds it
   to a pool worker.

The :class:`~repro.serve.breaker.CircuitBreaker` watches executed-job
outcomes: enough failures in its window open it, a cooldown's worth of
shed requests admit one half-open probe, and the probe's outcome closes
or re-opens it. :meth:`FeasibilityService.drain` is the graceful-SIGTERM
half: stop accepting, finish in-flight jobs, flush the disk cache.

Execution is supervised with the runners' machinery: every job runs
through :func:`~repro.experiments.resilience.run_task` (the chaos gate
and poison check), a
:class:`~repro.experiments.resilience.RunPolicy` governs retries with
reproducible backoff and per-job deadlines; a crashed worker (or the
whole pool breaking) costs only that job's attempt — the pool is
rebuilt and the job degrades to a structured
:class:`~repro.experiments.resilience.ExperimentFailure` on the
response instead of killing the service. Every stage feeds the
:class:`~repro.obs.metrics.MetricsRegistry` exposed at ``/metrics``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..experiments.resilience import (
    DEFAULT_POLICY,
    DeadlineExceeded,
    RunPolicy,
    SupervisedTask,
    _terminate_pool,
    make_failure,
    run_task,
)
from ..obs.metrics import MetricsRegistry
from ..storage.store import FS_FAULTS_METRIC, FS_WRITE_ERRORS_METRIC
from .breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ServiceOverloaded,
)
from .cache import SERVE_CACHE_REJECTS_METRIC, QueryCache
from .execution import CHAOS_POINT, execute_query_job
from .schema import FeasibilityQuery, QueryProvenance, QueryResponse

__all__ = ["ServeConfig", "FeasibilityService"]

#: Counters the service registers eagerly so a scrape of a fresh service
#: already exposes every series at zero.
_COUNTERS = (
    "serve_queries_total",
    "serve_cache_hits_total",
    "serve_coalesced_total",
    "serve_executed_total",
    "serve_failures_total",
    "serve_retries_total",
    "serve_deadline_exceeded_total",
    "serve_pool_rebuilds_total",
    "serve_shed_total",
    SERVE_CACHE_REJECTS_METRIC,
    FS_FAULTS_METRIC,
    FS_WRITE_ERRORS_METRIC,
)


@dataclass(frozen=True, kw_only=True)
class ServeConfig:
    """Tunables for one service instance."""

    #: Pool workers; also the number of queue drain tasks.
    workers: int = 2
    #: Bounded queue size — the admission high-watermark: requests
    #: beyond it are shed with 503 + Retry-After, never blocked.
    queue_limit: int = 32
    #: Directory for the persistent query cache; ``None`` = memory-only.
    cache_dir: Optional[Path] = None
    #: Retry/deadline/backoff policy per job (default: one attempt).
    policy: RunPolicy = DEFAULT_POLICY
    #: Circuit-breaker thresholds fronting the worker pool.
    breaker: BreakerConfig = BreakerConfig()
    #: ``Retry-After`` value (seconds) attached to shed responses.
    retry_after_seconds: float = 1.0


class FeasibilityService:
    """Owns the queue, the worker pool, the cache and the metrics."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = QueryCache(self.config.cache_dir,
                                registry=self.registry)
        self._queue: Optional[asyncio.Queue] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._drainers: List[asyncio.Task] = []
        self._inflight: Dict[str, asyncio.Future] = {}
        self._draining = False
        self.breaker = CircuitBreaker(
            self.config.breaker,
            on_state=lambda state: self.registry.gauge(
                "serve_breaker_state").set(float(int(state))))
        for name in _COUNTERS:
            self.registry.counter(name)
        self.registry.gauge("serve_queue_depth")
        self.registry.gauge("serve_breaker_state").set(
            float(int(BreakerState.CLOSED)))
        self.registry.gauge("serve_drain_seconds")
        self.registry.histogram("serve_queue_wait_ms")
        self.registry.histogram("serve_job_wall_ms")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        # spawn, not fork: workers are created lazily at first job and on
        # every rebuild, i.e. while client sockets are open. A forked
        # worker would inherit those FDs and keep connections from ever
        # seeing EOF after the server closes them.
        return ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=multiprocessing.get_context("spawn"))

    async def start(self) -> None:
        """Create the queue, the pool, and one drain task per worker."""
        if self._queue is not None:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._pool = self._new_pool()
        self._drainers = [
            asyncio.get_running_loop().create_task(self._drain())
            for _ in range(self.config.workers)
        ]

    async def drain(self) -> float:
        """Graceful-shutdown step one: stop accepting, finish in-flight.

        New submissions shed with ``ServiceOverloaded("draining")``,
        every queued job runs to completion, then the disk cache's
        flush-pending entries retry. Returns the wall seconds spent,
        also exported as the ``serve_drain_seconds`` gauge. Call
        :meth:`close` afterwards to tear the tasks and pool down.
        """
        start = time.perf_counter()
        self._draining = True
        if self._queue is not None:
            await self._queue.join()
        self.cache.flush()
        elapsed = time.perf_counter() - start
        self.registry.gauge("serve_drain_seconds").set(elapsed)
        return elapsed

    async def close(self) -> None:
        """Cancel the drain tasks and tear the pool down without waiting."""
        for task in self._drainers:
            task.cancel()
        if self._drainers:
            await asyncio.gather(*self._drainers, return_exceptions=True)
        self._drainers = []
        if self._pool is not None:
            pool, self._pool = self._pool, None
            await asyncio.to_thread(_terminate_pool, pool)
        self._queue = None

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    async def submit(self, query: FeasibilityQuery) -> QueryResponse:
        """Answer one query: cache hit, coalesce, or queued execution."""
        if self._queue is None:
            raise RuntimeError("service not started; call start() first")
        key = query.content_hash()
        self.registry.counter("serve_queries_total").inc()

        cached = self.cache.load(key)
        if cached is not None:
            self.registry.counter("serve_cache_hits_total").inc()
            return QueryResponse(
                report=cached,
                provenance=QueryProvenance(source="cache", query_hash=key))

        inflight = self._inflight.get(key)
        if inflight is not None:
            self.registry.counter("serve_coalesced_total").inc()
            response: QueryResponse = await asyncio.shield(inflight)
            return dataclasses.replace(
                response,
                provenance=dataclasses.replace(
                    response.provenance, source="coalesced"))

        if self._draining:
            self._shed("draining")
        if self._queue.full():
            self._shed("queue-full")
        if not self.breaker.allow():
            self._shed("breaker-open")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        # No await between the full() check and the put: submit runs on
        # the event loop, so the free slot cannot vanish underneath us.
        self._queue.put_nowait((key, query, future, time.perf_counter()))
        self.registry.gauge("serve_queue_depth").set(self._queue.qsize())
        return await asyncio.shield(future)

    def _shed(self, reason: str) -> None:
        """Refuse one request: counted, typed, never a blocked client."""
        self.registry.counter("serve_shed_total").inc()
        raise ServiceOverloaded(reason, self.config.retry_after_seconds)

    async def _drain(self) -> None:
        assert self._queue is not None
        while True:
            key, query, future, enqueued = await self._queue.get()
            self.registry.gauge("serve_queue_depth").set(self._queue.qsize())
            queue_ms = (time.perf_counter() - enqueued) * 1000.0
            self.registry.histogram("serve_queue_wait_ms").observe(queue_ms)
            try:
                response = await self._run_job(key, query, queue_ms)
            except asyncio.CancelledError:
                self._inflight.pop(key, None)
                if not future.done():
                    future.cancel()
                raise
            except Exception as exc:  # never let a job kill the drainer
                self.registry.counter("serve_failures_total").inc()
                response = QueryResponse(
                    failure=make_failure(f"serve:{key[:12]}", exc, 1, 0.0),
                    provenance=QueryProvenance(
                        source="executed", query_hash=key,
                        queue_ms=queue_ms))
            if response.report is not None:
                self.cache.store(key, response.report)
                self.breaker.record_success()
            else:
                self.breaker.record_failure()
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(response)
            self._queue.task_done()

    async def _run_job(self, key: str, query: FeasibilityQuery,
                       queue_ms: float) -> QueryResponse:
        """Supervised execution: retries, deadline, pool recovery."""
        policy = self.config.policy
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        task = SupervisedTask(name=CHAOS_POINT, fn=execute_query_job,
                              args=(query,))
        last_exc: Optional[BaseException] = None
        attempt = 0
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self.registry.counter("serve_retries_total").inc()
                delay = policy.backoff_seconds(query.seed, key[:12], attempt)
                if delay > 0:
                    await asyncio.sleep(delay)
            pool = self._pool
            if pool is None:
                raise RuntimeError("service closed mid-job")
            try:
                call = loop.run_in_executor(pool, run_task, task, attempt)
                if policy.deadline_seconds is not None:
                    report = await asyncio.wait_for(
                        call, timeout=policy.deadline_seconds)
                else:
                    report = await call
                wall_ms = (time.perf_counter() - start) * 1000.0
                self.registry.histogram("serve_job_wall_ms").observe(wall_ms)
                self.registry.counter("serve_executed_total").inc()
                return QueryResponse(
                    report=report,
                    provenance=QueryProvenance(
                        source="executed", query_hash=key, attempts=attempt,
                        queue_ms=queue_ms, wall_ms=wall_ms))
            except asyncio.TimeoutError:
                self.registry.counter("serve_deadline_exceeded_total").inc()
                last_exc = DeadlineExceeded(
                    f"query {key[:12]} exceeded its "
                    f"{policy.deadline_seconds}s deadline")
                # The worker is still grinding on the job; rebuilding the
                # pool is the only way to reclaim its slot.
                await self._rebuild_pool(pool)
            except BrokenProcessPool as exc:
                last_exc = exc
                await self._rebuild_pool(pool)
            except Exception as exc:
                last_exc = exc
        self.registry.counter("serve_failures_total").inc()
        assert last_exc is not None
        return QueryResponse(
            failure=make_failure(f"serve:{key[:12]}", last_exc, attempt,
                                 time.perf_counter() - start),
            provenance=QueryProvenance(
                source="executed", query_hash=key, attempts=attempt,
                queue_ms=queue_ms,
                wall_ms=(time.perf_counter() - start) * 1000.0))

    async def _rebuild_pool(self, broken: ProcessPoolExecutor) -> None:
        """Replace the pool; identity-guarded so concurrent jobs that saw
        the same broken pool trigger exactly one rebuild."""
        if broken is not self._pool:
            return
        self.registry.counter("serve_pool_rebuilds_total").inc()
        self._pool = self._new_pool()
        await asyncio.to_thread(_terminate_pool, broken)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Counter/gauge snapshot plus live queue/in-flight depths."""
        out: Dict[str, float] = {}
        for sample in self.registry.samples():
            if sample.kind in ("counter", "gauge") and not sample.labels:
                out[sample.name] = sample.value or 0.0
        out["serve_queue_depth"] = float(
            self._queue.qsize() if self._queue is not None else 0)
        out["serve_inflight"] = float(len(self._inflight))
        return out
