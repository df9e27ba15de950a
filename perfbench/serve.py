"""Workload ``serve-mixed``: feasibility queries through the service.

A ``FeasibilityService`` with ``nproc`` spawn workers and a disk cache
in a fresh directory is driven in-process through ``submit()``:

* phase A -- a closed loop of distinct cold queries at concurrency =
  workers, in rounds of ``PER_ROUND_A``; its capacity is ``cold_qps``;
* phase B -- an open loop at ``RATE_B`` arrival slots per second; its
  cold arrivals come at about a third of phase A's capacity. Of its 360
  requests 252 are cold, 72 repeat a phase-A query (cache hits) and 36
  repeat a cold query in the same slot, while it is in flight
  (coalesced). Repeats are 30% of the
  requests, well away from one half, so the median falls inside the
  cold mode. Each request is timed from when it was due.

Every query sweeps D over 50-400 ms, straddling every device's Eq. 3
bound; every fourth one runs under ``pixel-loaded`` faults.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from . import oracle
from .common import Outcome, nproc, reap_children
from .layers import Trace, require_work
from .oracle import require

#: One phase-A round per this many seconds of run length (phase B is
#: fixed), so every run of a given length repeats the same rounds.
SECONDS_PER_ROUND_A = 5.0
MIN_ROUNDS_A = 4
PER_ROUND_A = 96
COLD_B = 252
HITS_B = 72
DUPLICATES_B = 36
RATE_B = 22.0
QUEUE_LIMIT = 512
QUERY = dict(d_min_ms=50.0, d_max_ms=400.0, d_step_ms=25.0, trials_per_d=2,
             trial_duration_ms=1000.0, probe_chars=6, probe_trials=1)
#: Cold queries re-run in-process after each untraced run.
SAMPLED_REPLAYS = 4


@dataclass
class Inputs:
    warmup: list
    rounds: List[list]
    #: Phase B arrival slots: ("cold" | "dup" | "hit", query).
    slots: List[Tuple[str, object]]


def make_inputs(seed: int, workers: int, rounds_a: int) -> Inputs:
    """Queries from independent per-query streams, so the round count
    changes no other query; hits repeat queries of the first round."""
    from repro.devices.registry import DEVICES
    from repro.serve.schema import FeasibilityQuery

    def query(stream: str, index: int):
        rng = random.Random(f"perfbench-serve:{seed}:{stream}:{index}")
        profile = rng.choice(DEVICES)
        return FeasibilityQuery(
            device=profile.model,
            android_version=profile.android_version.label,
            faults="pixel-loaded" if index % 4 == 3 else "none",
            seed=rng.getrandbits(63), **QUERY)

    warmup = [query("warmup", i) for i in range(workers)]
    rounds = [[query(f"a{r}", i) for i in range(PER_ROUND_A)]
              for r in range(rounds_a)]
    cold = [query("b", i) for i in range(COLD_B)]
    rng = random.Random(f"perfbench-serve:{seed}:mix")
    kinds = ["dup"] * DUPLICATES_B + ["cold"] * (COLD_B - DUPLICATES_B)
    rng.shuffle(kinds)
    slots = list(zip(kinds, cold))
    slots += [("hit", q) for q in rng.sample(rounds[0], HITS_B)]
    rng.shuffle(slots)
    return Inputs(warmup=warmup, rounds=rounds, slots=slots)


@dataclass
class Request:
    query: object
    expected: str
    response: Optional[object] = None
    latency_ms: float = math.inf


@dataclass
class Phases:
    round_walls: List[float] = field(default_factory=list)
    phase_b_wall: float = 0.0
    lags_ms: List[float] = field(default_factory=list)
    phase_a: List[Request] = field(default_factory=list)
    phase_b: List[Request] = field(default_factory=list)
    registry: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.round_walls) + self.phase_b_wall


async def _submit(service, request: Request, due: float) -> None:
    from repro.serve.breaker import ServiceOverloaded

    try:
        request.response = await service.submit(request.query)
    except ServiceOverloaded:
        request.response = None
    if request.response is not None and request.response.ok:
        request.latency_ms = (time.perf_counter() - due) * 1000.0
    else:
        # A refused or failed request misses any latency limit.
        request.latency_ms = math.inf


async def _closed_loop(service, queries, workers: int) -> Tuple[float, list]:
    pending = [Request(q, "executed") for q in queries]
    done = list(pending)

    async def client() -> None:
        while pending:
            request = pending.pop(0)
            await _submit(service, request, time.perf_counter())

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(workers)))
    return time.perf_counter() - start, done


async def _open_loop(service, slots, phases: Phases) -> None:
    tasks = []
    start = time.perf_counter() + 0.05
    for index, (kind, query) in enumerate(slots):
        due = start + index / RATE_B
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phases.lags_ms.append(max(0.0, time.perf_counter() - due) * 1000.0)
        batch = [Request(query, "cache" if kind == "hit" else "executed")]
        if kind == "dup":
            batch.append(Request(query, "coalesced"))
        for request in batch:
            phases.phase_b.append(request)
            tasks.append(asyncio.ensure_future(_submit(service, request, due)))
    await asyncio.gather(*tasks)
    phases.phase_b_wall = time.perf_counter() - start


def _service(cache_dir: Path, workers: int):
    from repro.serve import FeasibilityService, ServeConfig

    return FeasibilityService(ServeConfig(
        workers=workers, queue_limit=QUEUE_LIMIT, cache_dir=cache_dir))


async def _started(inputs: Inputs, cache_dir: Path, workers: int):
    """Set-up: pool spawn plus one concurrent warm-up query per worker."""
    service = _service(cache_dir, workers)
    await service.start()
    warm = [Request(q, "executed") for q in inputs.warmup]
    now = time.perf_counter()
    await asyncio.gather(*(_submit(service, r, now) for r in warm))
    require(all(r.response is not None and r.response.ok for r in warm),
            "a warm-up query failed")
    return service


async def _run(inputs: Inputs, cache_dir: Path, workers: int,
               tracer: Optional[Trace] = None) -> Phases:
    service = await _started(inputs, cache_dir, workers)
    phases = Phases()
    try:
        with tracer.active() if tracer is not None else nullcontext():
            for queries in inputs.rounds:
                wall, done = await _closed_loop(service, queries, workers)
                phases.round_walls.append(wall)
                phases.phase_a.extend(done)
            await _open_loop(service, inputs.slots, phases)
        for sample in service.registry.samples():
            if sample.kind == "counter" and not sample.labels:
                phases.registry[sample.name] = sample.value or 0.0
            elif sample.kind == "histogram" and sample.count:
                phases.histograms[sample.name] = sample.sum / sample.count
        await service.drain()
    finally:
        await service.close()
    return phases


def _run_sync(inputs: Inputs, cache_dir: Path, workers: int,
              tracer: Optional[Trace] = None) -> Phases:
    try:
        return asyncio.run(_run(inputs, cache_dir, workers, tracer))
    finally:
        reap_children()


def _rounds(seconds: float) -> int:
    return max(MIN_ROUNDS_A, round(seconds / SECONDS_PER_ROUND_A))


def probe(seed: int, seconds: float, work: Path, ready) -> None:
    workers = nproc()
    inputs = make_inputs(seed, workers, _rounds(seconds))

    async def main() -> None:
        service = await _started(inputs, work / "probe-cache", workers)
        ready()
        await service.close()

    try:
        asyncio.run(main())
    finally:
        reap_children()


def _trials(report) -> int:
    return (sum(point.trials for point in report.points)
            + (report.probe.trials if report.probe is not None else 0))


def check(phases: Phases) -> Dict[str, str]:
    """Provenance, byte identity of repeats, and the outcome rule.

    Returns the served bytes of every executed query, keyed by hash."""
    served: Dict[str, str] = {}
    for request in phases.phase_a + phases.phase_b:
        response = request.response
        if response is None or not response.ok:
            continue
        source = response.provenance.source
        require(source == request.expected,
                f"query {request.query.content_hash()[:12]} answered from "
                f"{source!r}, expected {request.expected!r}")
        key = request.query.content_hash()
        require(response.report.query_hash == key,
                f"report hash {response.report.query_hash[:12]} != {key[:12]}")
        data = response.report.aggregates_json()
        if source == "executed":
            served[key] = data
    for request in phases.phase_a + phases.phase_b:
        response = request.response
        if response is not None and response.ok:
            key = request.query.content_hash()
            require(served.get(key) == response.report.aggregates_json(),
                    f"{response.provenance.source} answer for {key[:12]} "
                    "differs from the executed one")
            if request.expected == "executed":
                _check_rule(request.query, response.report)
    return served


def _check_rule(query, report) -> None:
    if query.faults != "none":
        return
    profile = query.resolve_device()
    for point in report.points:
        oracle.check_outcome_rule(
            profile, point.attacking_window_ms,
            suppressed_all=point.suppressed_trials == point.trials,
            suppressed_none=point.suppressed_trials == 0)


def _failed(phases: Phases) -> int:
    return sum(1 for r in phases.phase_a + phases.phase_b
               if r.response is None or not r.response.ok)


def _executed(phases: Phases):
    return [r for r in phases.phase_a + phases.phase_b
            if r.expected == "executed"]


def measure(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    workers = nproc()
    out = Outcome()
    if trace:
        # One phase-A round keeps the in-process replay of every executed
        # query inside the run's time limit.
        return _traced(make_inputs(seed, workers, 1), work, workers, out)
    inputs = make_inputs(seed, workers, _rounds(seconds))

    phases = _run_sync(inputs, work / "cache", workers)
    out.attempted = len(phases.phase_a) + len(phases.phase_b)
    out.failed = _failed(phases)
    served = check(phases)

    from repro.api import query_feasibility

    executed = _executed(phases)
    rng = random.Random(f"perfbench-serve-replay:{seed}")
    for request in rng.sample(executed, SAMPLED_REPLAYS):
        key = request.query.content_hash()
        require(query_feasibility(request.query).aggregates_json()
                == served[key],
                f"served report {key[:12]} differs from query_feasibility")

    trials = sum(_trials(r.response.report) for r in phases.phase_a
                 if r.response is not None and r.response.ok)
    latencies = [r.latency_ms for r in phases.phase_b]
    out.metrics = {
        "pass_s": median(phases.round_walls),
        "trials_per_s": trials / sum(phases.round_walls),
        "p50_ms": median(latencies),
    }
    cold_qps = PER_ROUND_A / median(phases.round_walls)
    offered = len(phases.phase_b) / (len(inputs.slots) / RATE_B)
    out.notes.append(
        f"serve-mixed: cold_qps {cold_qps:.1f} (rounds "
        + ", ".join(f"{w:.3f}" for w in phases.round_walls)
        + f" s); phase B offered {offered:.1f} q/s, "
        f"p50 {out.metrics['p50_ms']:.1f} ms, "
        f"p95 {oracle.p95(latencies):.1f} ms over {len(latencies)} "
        f"requests, generator lag max {max(phases.lags_ms):.1f} ms")
    return out


def _traced(inputs: Inputs, work: Path, workers: int, out: Outcome) -> Outcome:
    """An untraced pass for the service's own histograms, then a traced
    pass whose executed queries are replayed in-process under the
    profiler; the program guarantees the replayed bytes equal the
    served ones."""
    from repro.experiments.engine import TrialExecutor
    from repro.serve.execution import execute_query

    plain = _run_sync(inputs, work / "cache-plain", workers)
    check(plain)
    tracer = Trace()
    traced = _run_sync(inputs, work / "cache-traced", workers, tracer)
    served = check(traced)
    executor = TrialExecutor()
    with tracer.active():
        replayed = {r.query.content_hash(): execute_query(r.query, executor)
                    for r in _executed(traced)}
    for key, report in replayed.items():
        require(report.aggregates_json() == served[key],
                f"in-process replay of {key[:12]} differs from the served "
                "report")
    for phases in (plain, traced):
        out.attempted += len(phases.phase_a) + len(phases.phase_b)
        out.failed += _failed(phases)

    counters = plain.registry
    queries = counters.get("serve_queries_total", 0.0)
    hits = counters.get("serve_cache_hits_total", 0.0)
    coalesced = counters.get("serve_coalesced_total", 0.0)
    executed = counters.get("serve_executed_total", 0.0)
    jobs = executed + counters.get("serve_failures_total", 0.0)
    layers = tracer.metrics()
    layers.update({
        "serve.queue_wait_ms": plain.histograms.get("serve_queue_wait_ms", 0.0),
        "serve.job_wall_ms": plain.histograms.get("serve_job_wall_ms", 0.0),
        "serve.executed": executed,
        "serve.cache_hits": hits,
        "serve.coalesced": coalesced,
        "serve.saved_ratio": (hits + coalesced) / queries if queries else 0.0,
        "serve.loadgen_lag_ms": max(plain.lags_ms),
        "supervision.tasks": jobs,
        "supervision.attempts": jobs + counters.get("serve_retries_total", 0.0),
        "trace.overhead_s": traced.wall - plain.wall,
    })
    require_work(layers, (
        "faults.self_s", "faults.perturbations", "users.self_s",
        "attacks.self_s", "actors.self_s", "serve.self_s",
        "serve.queue_wait_ms", "serve.job_wall_ms", "serve.executed",
        "serve.cache_hits", "serve.coalesced", "serve.saved_ratio",
        "storage.writes", "storage.write_s"))
    out.layers = layers
    out.notes.append(f"serve-mixed traced: phases untraced {plain.wall:.3f} s, "
                     f"traced {traced.wall:.3f} s")
    return out
