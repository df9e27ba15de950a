"""Fault-tolerant supervision: policies, failures, the journal, chaos.

Every unit of supervised work — a paper experiment, a campaign shard, a
served feasibility query — runs through this module. One worker
exception, or a worker dying and breaking the whole pool, costs only
that unit's attempts; this module supplies the pieces:

* :class:`RunPolicy` — per-unit deadlines, bounded retries and a
  *deterministic* exponential backoff whose jitter derives from
  ``(seed, unit, attempt)``, so a retry schedule is as reproducible as
  the experiments themselves;
* :class:`ExperimentFailure` — what the runner records instead of
  raising: exception repr, traceback text, attempts and elapsed time,
  so a 20/21 run still renders a usable (explicitly degraded) report;
* :class:`RunJournal` — the one journal: a ``run.json`` manifest plus
  one atomically-written envelope per completed unit, for experiment
  runs and (through ``CampaignManifest``) campaigns alike, enabling
  ``--resume RUN_DIR`` to re-run only what a crash left unfinished;
* a **chaos harness** (:func:`chaos_action`) — env-keyed fault points
  that crash, hang, kill or poison specific ``(unit, attempt)`` pairs,
  mirroring the deterministic style of :mod:`repro.sim.faults` one
  layer up: the fault *injection* is configuration, never chance;
* :func:`run_task` — the one worker trampoline: every supervised call
  passes the chaos gate and the poison check here, and nowhere else;
* the **generic supervised runner** (:func:`run_supervised`) — the
  retry/deadline/broken-pool state machine the experiment suite
  (:mod:`repro.experiments.parallel`) and the campaign layer
  (:mod:`repro.experiments.campaign`) are both thin clients of.

Nothing here touches experiment code or random streams: supervision
observes and schedules, so a run with the default policy and no faults
is byte-identical to an unsupervised one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import traceback as traceback_module
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..serialization import SerializableMixin
from ..storage.envelope import (
    CacheIntegrityError,
    decode_envelope,
    encode_envelope,
)
from ..storage.faults import chaos_spec_text
from ..storage.journal import MANIFEST_NAME, JournalError, read_manifest
from ..storage.store import DurableStore
from .config import ExperimentScale

# ---------------------------------------------------------------------------
# Metric names (registered on the runner's registry and, for the cache,
# on the ambient ``repro.obs`` registry when one is installed)
# ---------------------------------------------------------------------------

RETRIES_METRIC = "runner_retries_total"
FAILURES_METRIC = "runner_failures_total"
DEADLINE_METRIC = "runner_deadline_exceeded_total"
CACHE_REJECTS_METRIC = "cache_integrity_rejects_total"


class DeadlineExceeded(RuntimeError):
    """An experiment ran longer than its :class:`RunPolicy` deadline."""


class ResultIntegrityError(RuntimeError):
    """A worker returned a payload the supervisor refuses to accept."""


class ChaosError(ValueError):
    """``REPRO_CHAOS`` does not parse."""


class ChaosCrash(RuntimeError):
    """The deterministic crash injected by a ``crash`` fault point."""


# ---------------------------------------------------------------------------
# Run policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class RunPolicy:
    """Supervision knobs for one ``run_all`` pass.

    The defaults are deliberately inert: one attempt, no deadline, no
    backoff — a defaulted policy changes *nothing* about a fault-free
    run (the QUICK golden report stays byte-identical), it only changes
    what happens when an experiment fails: the failure is recorded and
    the run continues instead of aborting.
    """

    #: Times one experiment may run before it is recorded as failed.
    max_attempts: int = 1
    #: Per-experiment wall-clock budget in seconds (``None`` = unlimited).
    #: On the pool path a deadline preempts: the future is abandoned and
    #: the slot reclaimed. On the serial path it is enforced post-hoc
    #: (a single-process supervisor cannot interrupt its own experiment).
    deadline_seconds: Optional[float] = None
    #: First retry delay; 0 disables backoff entirely (no sleeping).
    backoff_base_seconds: float = 0.0
    #: Multiplier applied per additional attempt.
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff delay.
    backoff_max_seconds: float = 30.0
    #: Relative jitter amplitude in ``[0, 1]``; the draw is a pure
    #: function of ``(seed, experiment, attempt)``, never wall clock.
    backoff_jitter: float = 0.1
    #: Restore the historical abort-on-first-error behaviour: the first
    #: *permanent* failure (attempts exhausted) re-raises instead of
    #: being recorded.
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0, got "
                             f"{self.backoff_base_seconds}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_max_seconds < 0:
            raise ValueError("backoff_max_seconds must be >= 0, got "
                             f"{self.backoff_max_seconds}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}")

    def backoff_seconds(self, seed: int, name: str, attempt: int) -> float:
        """Delay before re-submitting ``name`` after failed ``attempt``.

        Exponential in the attempt number with seeded jitter: the jitter
        factor is derived from ``sha256(seed:name:attempt)``, so two runs
        of the same scale replay the exact same retry schedule — retry
        timing can never become a hidden source of nondeterminism.
        """
        if self.backoff_base_seconds <= 0:
            return 0.0
        delay = min(
            self.backoff_base_seconds * self.backoff_factor ** (attempt - 1),
            self.backoff_max_seconds,
        )
        if self.backoff_jitter == 0.0:
            return delay
        digest = hashlib.sha256(
            f"{seed}:{name}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2 ** 64  # [0, 1)
        return delay * (1.0 + self.backoff_jitter * (2.0 * unit - 1.0))


#: The inert policy ``run_all`` uses when none is given.
DEFAULT_POLICY = RunPolicy()


# ---------------------------------------------------------------------------
# Failure records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentFailure(SerializableMixin):
    """One experiment's permanent failure, recorded instead of raised."""

    #: Experiment (``AllResults`` field) name.
    name: str
    #: ``"exception"``, ``"deadline"``, ``"pool"`` (worker died and broke
    #: the process pool) or ``"poisoned"`` (worker returned a payload the
    #: supervisor rejected).
    kind: str
    #: ``repr()`` of the terminal exception.
    error: str
    #: Formatted traceback text (empty when none crossed the boundary).
    traceback: str
    #: Attempts consumed, including the failing one.
    attempts: int
    #: Wall-clock seconds spent on the final attempt.
    elapsed_seconds: float


def classify_failure(exc: BaseException) -> str:
    """Map an exception to an :class:`ExperimentFailure` ``kind``."""
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, ResultIntegrityError):
        return "poisoned"
    if isinstance(exc, BrokenProcessPool):
        return "pool"
    return "exception"


def make_failure(name: str, exc: BaseException, attempts: int,
                 elapsed_seconds: float) -> ExperimentFailure:
    """Build the failure record for ``name``'s terminal exception."""
    tb = "".join(traceback_module.format_exception(
        type(exc), exc, exc.__traceback__))
    return ExperimentFailure(
        name=name,
        kind=classify_failure(exc),
        error=repr(exc),
        traceback=tb,
        attempts=attempts,
        elapsed_seconds=elapsed_seconds,
    )


# ---------------------------------------------------------------------------
# Run journal (checkpoint / resume)
# ---------------------------------------------------------------------------

class RunJournal:
    """Crash-safe record of one supervised run under a run directory.

    The one journal for both kinds of run: an experiment suite pass
    (units are experiments) and, through the ``CampaignManifest``
    subclass, a campaign (units are shards), in the layout
    :mod:`repro.storage.journal` describes. ``run.json`` is the
    journal's first write and pins exactly which run the directory
    belongs to; markers are written atomically as each unit completes,
    so after a crash or SIGKILL the directory holds precisely the
    finished prefix of the run. :meth:`resume` refuses a directory of
    the other kind or journaling a *different* run — silently mixing
    them would corrupt the results.

    A subclass supplies its own constructor, :attr:`KIND`,
    :attr:`SURFACE`, :meth:`identity` and :meth:`plan`; ``create`` and
    ``resume`` pass their arguments after ``root`` to the constructor.
    """

    #: Manifest ``kind``; also the noun refusal messages use.
    KIND = "run"

    #: :class:`DurableStore` funnel name — the fault-injection target
    #: key (``fs:journal:...``); ``CampaignManifest`` overrides it.
    SURFACE = "journal"

    def __init__(self, root: Path, scale: ExperimentScale,
                 version: int) -> None:
        self.root = Path(root)
        self.scale = scale
        self.version = int(version)
        self.results_dir = self.root / "results"
        self.failures_dir = self.root / "failures"
        # Journals are a required-durability surface: a write that does
        # not land must surface as a typed error, never a silent gap.
        self._store = DurableStore(self.SURFACE, required=True)

    def identity(self) -> dict:
        """What pins the run besides its kind, version and plan."""
        return {"scale": dataclasses.asdict(self.scale)}

    def plan(self) -> Tuple[str, ...]:
        """Every unit name the run may complete, in run order."""
        from .parallel import experiment_names

        return experiment_names()

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, root: Path, *args: Any) -> "RunJournal":
        """Start journaling a fresh run into ``root``.

        Refuses a directory that already holds completed results — that
        is either a finished run (nothing to do) or an interrupted one
        the caller probably meant to ``--resume``.
        """
        journal = cls(root, *args)
        if journal.completed_names():
            raise JournalError(
                f"{journal.root} already contains completed results; "
                "resume it (--resume) or choose a fresh --run-dir")
        journal._write_manifest()
        return journal

    @classmethod
    def resume(cls, root: Path, *args: Any) -> "RunJournal":
        """Open ``root`` for (re-)running the same run.

        A missing manifest starts a fresh journal (``--resume`` is safe
        on the very first run); an existing one must be of this kind and
        match the requested version, plan and identity exactly.
        """
        journal = cls(root, *args)
        if not journal.manifest_path.exists():
            return cls.create(root, *args)
        existing = read_manifest(journal.root)
        if existing["kind"] != cls.KIND:
            raise JournalError(
                f"{journal.root} journals a {existing['kind']}, not a "
                f"{cls.KIND}; choose a fresh --run-dir")
        if existing != journal._manifest():
            raise JournalError(
                f"{journal.root} journals a different {cls.KIND} "
                "(version, plan or identity mismatch); choose a fresh "
                "--run-dir")
        journal.sweep_orphans()
        return journal

    # -- manifest -------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _manifest(self) -> dict:
        # Round-trip through JSON so the equality check against a parsed
        # manifest compares like with like (tuples become lists, etc.).
        return json.loads(json.dumps({
            "kind": self.KIND,
            "version": self.version,
            "plan": list(self.plan()),
            "identity": self.identity(),
        }))

    def _write_manifest(self) -> None:
        self._persist(
            self.manifest_path,
            json.dumps(self._manifest(), indent=2,
                       sort_keys=True).encode("utf-8") + b"\n")

    def _persist(self, path: Path, data: bytes) -> None:
        """Required-durability write: an ``OSError`` (real or injected)
        becomes a :class:`JournalError` refusal the caller can act on —
        the CLI exits 2 outside supervision; inside ``run_supervised``
        the ``on_success`` hook converts it into a recorded
        :class:`ExperimentFailure` for that unit of work."""
        try:
            self._store.write_bytes(path, data)
        except OSError as exc:
            raise JournalError(f"cannot persist {path}: {exc}") from exc

    # -- completion markers --------------------------------------------
    def result_path(self, name: str) -> Path:
        return self.results_dir / f"{name}.pkl"

    def load(self, name: str):
        """The journaled result for ``name``, or ``None`` to re-run it."""
        data = self._store.read_bytes(self.result_path(name))
        if data is None:
            return None
        try:
            return decode_envelope(self.version, data)
        except CacheIntegrityError:
            return None

    def store(self, name: str, result: object) -> None:
        self._persist(self.result_path(name),
                      encode_envelope(self.version, result))
        try:
            (self.failures_dir / f"{name}.json").unlink()
        except OSError:
            pass

    def store_failure(self, failure: ExperimentFailure) -> None:
        self._persist(
            self.failures_dir / f"{failure.name}.json",
            json.dumps(failure.to_dict(), indent=2,
                       sort_keys=True).encode("utf-8") + b"\n")

    def sweep_orphans(self) -> int:
        """Unlink ``*.tmp`` wreckage a crash-between-write-and-replace
        left behind; called on every resume before markers are trusted."""
        return self._store.sweep_orphans(
            self.root, self.results_dir, self.failures_dir)

    def completed_names(self) -> Tuple[str, ...]:
        if not self.results_dir.is_dir():
            return ()
        return tuple(sorted(p.stem for p in self.results_dir.glob("*.pkl")))


# ---------------------------------------------------------------------------
# Chaos harness (deterministic, env-keyed fault points)
# ---------------------------------------------------------------------------

#: Spec: comma-separated ``experiment:attempt:mode`` entries, where
#: ``experiment`` may be ``*`` (any), ``attempt`` an integer or ``*``,
#: and ``mode`` one of :data:`CHAOS_MODES`. The env channel is what lets
#: the injection reach pool worker processes untouched.
CHAOS_ENV = "REPRO_CHAOS"

#: Seconds a ``hang`` fault point sleeps (finite so abandoned workers
#: eventually exit; a deadline converts the hang into a failure long
#: before the sleep ends).
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG_SECONDS"

CHAOS_MODES = ("crash", "hang", "kill", "poison")

_DEFAULT_HANG_SECONDS = 5.0


@dataclass(frozen=True)
class PoisonedResult:
    """Sentinel a ``poison`` fault point returns in place of a result.

    Pickles fine and looks like any payload to the work's caller; the
    poison check in :func:`run_task` is the one place that rejects it,
    which is exactly what the chaos tests assert.
    """

    name: str
    attempt: int


def chaos_hang_seconds() -> float:
    env = os.environ.get(CHAOS_HANG_ENV)
    if not env:
        return _DEFAULT_HANG_SECONDS
    return float(env)


def chaos_action(name: str, attempt: int) -> Optional[str]:
    """The fault mode injected for ``(name, attempt)``, if any.

    Parses :data:`CHAOS_ENV` on every call (it is consulted once per
    experiment attempt, never on a hot path) so tests can flip the spec
    between runs without process churn. ``fs:`` entries belong to the
    storage-fault parser (:mod:`repro.storage.faults`) and are skipped
    here; a ``@/path`` spec is read from that file on every consult.
    """
    spec = chaos_spec_text()
    if not spec:
        return None
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry or entry.startswith("fs:"):
            continue
        parts = entry.split(":")
        if len(parts) != 3:
            raise ChaosError(
                f"bad {CHAOS_ENV} entry {entry!r}; expected "
                "experiment:attempt:mode")
        target, raw_attempt, mode = parts
        if mode not in CHAOS_MODES:
            raise ChaosError(
                f"unknown chaos mode {mode!r}; valid: "
                f"{', '.join(CHAOS_MODES)}")
        if target not in ("*", name):
            continue
        if raw_attempt != "*" and int(raw_attempt) != attempt:
            continue
        return mode
    return None


def chaos_fire(name: str, attempt: int) -> Optional[str]:
    """Act on the fault point armed for ``(name, attempt)``, if any.

    ``crash`` raises :class:`ChaosCrash`, ``kill`` hard-exits the
    process with status 86 (simulating OOM-kill / segfault — in a pool
    this breaks the executor, serially it kills the whole run, which is
    exactly what the journal/resume tests need), ``hang`` sleeps
    :func:`chaos_hang_seconds` then falls through. A returned
    ``"poison"`` is :func:`run_task`'s to act on.
    """
    action = chaos_action(name, attempt)
    if action == "crash":
        raise ChaosCrash(
            f"chaos: injected crash for {name!r} attempt {attempt}")
    if action == "kill":
        os._exit(86)
    if action == "hang":
        time.sleep(chaos_hang_seconds())
    return action


@contextmanager
def chaos(spec: str, hang_seconds: Optional[float] = None) -> Iterator[None]:
    """Scoped chaos injection: install ``spec`` in the environment.

    Environment variables propagate to pool workers spawned inside the
    block, so this one context manager drives both the serial and the
    fanned-out paths.
    """
    saved = {key: os.environ.get(key) for key in (CHAOS_ENV, CHAOS_HANG_ENV)}
    os.environ[CHAOS_ENV] = spec
    if hang_seconds is not None:
        os.environ[CHAOS_HANG_ENV] = repr(float(hang_seconds))
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# ---------------------------------------------------------------------------
# Generic supervised execution (shared by the experiment and campaign runners)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisedTask:
    """One unit of supervised work: a picklable function plus arguments.

    ``fn`` must be module-level (it crosses the process boundary on the
    pool path) and is called as ``fn(*args)`` through :func:`run_task`.
    The retry number never reaches it, so the work's own seed derivation
    cannot see which attempt it is.
    """

    #: Stable identity: retry scheduling, chaos targeting, failure records.
    name: str
    fn: Callable
    args: Tuple[Any, ...] = ()


def run_task(task: SupervisedTask, attempt: int) -> Any:
    """Run one attempt of ``task``: the chaos gate, the work, the check.

    The one trampoline every supervised call goes through — serially,
    in a pool worker, and from the feasibility service — so the fault
    point armed for ``(task.name, attempt)`` fires here and a poisoned
    payload is rejected here, before it can count as a result. The
    rejection is a :class:`ResultIntegrityError`, recorded as a
    ``"poisoned"`` failure.
    """
    if chaos_fire(task.name, attempt) == "poison":
        value = PoisonedResult(name=task.name, attempt=attempt)
    else:
        value = task.fn(*task.args)
    if isinstance(value, PoisonedResult):
        raise ResultIntegrityError(
            f"worker returned a poisoned result for {value.name!r} "
            f"(attempt {value.attempt})")
    return value


class Supervisor:
    """Retry/failure bookkeeping shared by the serial and pool paths.

    ``seed`` anchors the deterministic backoff jitter — callers pass
    their scale's base seed so two runs of the same configuration replay
    the exact same retry schedule.
    """

    def __init__(self, policy: RunPolicy, seed: int) -> None:
        self.policy = policy
        self.seed = int(seed)
        self.failures: Dict[str, ExperimentFailure] = {}
        self.retries = 0
        self.deadline_exceeded = 0

    def handle(self, name: str, attempt: int, exc: Exception,
               elapsed: float) -> bool:
        """Process one failed attempt; return True to retry.

        A permanent failure is recorded on :attr:`failures` — unless the
        policy is ``fail_fast``, in which case the original exception
        propagates (the historical abort-on-first-error behaviour).
        """
        if isinstance(exc, DeadlineExceeded):
            self.deadline_exceeded += 1
        if attempt < self.policy.max_attempts:
            self.retries += 1
            return True
        if self.policy.fail_fast:
            raise exc
        self.failures[name] = make_failure(name, exc, attempt, elapsed)
        return False

    def backoff(self, name: str, attempt: int) -> float:
        return self.policy.backoff_seconds(self.seed, name, attempt)


#: ``on_success(task, value, attempt, seconds)`` for one completed task.
SuccessCallback = Callable[[SupervisedTask, Any, int, float], None]
#: ``on_failure(failure)`` for one permanently failed task.
FailureCallback = Callable[[ExperimentFailure], None]


def run_supervised(
    tasks: List[SupervisedTask],
    supervisor: Supervisor,
    *,
    jobs: int = 1,
    on_success: SuccessCallback,
    on_failure: FailureCallback,
) -> None:
    """Run every task under ``supervisor``'s policy; report via callbacks.

    ``jobs=1`` (or a single task) runs in-process — the reference path;
    ``jobs=N`` fans out over N worker processes. Worker exceptions,
    deadline overruns and even the whole process pool breaking cost only
    the affected attempts: each terminal error is converted into an
    :class:`ExperimentFailure` handed to ``on_failure`` and the
    remaining tasks keep running. Completion *order* is
    scheduling-dependent; callers needing determinism must key their
    bookkeeping on ``task.name``, never on callback order.
    """
    if jobs == 1 or len(tasks) <= 1:
        _run_serial_tasks(tasks, supervisor, on_success, on_failure)
    else:
        _run_pool_tasks(tasks, supervisor, jobs, on_success, on_failure)


def _run_serial_tasks(
    tasks: List[SupervisedTask],
    supervisor: Supervisor,
    on_success: SuccessCallback,
    on_failure: FailureCallback,
) -> None:
    """In-process reference path, one supervised task at a time.

    Deadlines are enforced post-hoc here: a single process cannot
    preempt its own work, so an overrun is detected when the attempt
    returns and converted into a :class:`DeadlineExceeded` failure (the
    computed result is discarded — accepting it would make the result
    set depend on wall-clock luck).
    """
    deadline = supervisor.policy.deadline_seconds
    for task in tasks:
        attempt = 1
        while True:
            start = time.perf_counter()
            try:
                value = run_task(task, attempt)
                elapsed = time.perf_counter() - start
                if deadline is not None and elapsed > deadline:
                    raise DeadlineExceeded(
                        f"task {task.name!r} took {elapsed:.2f}s "
                        f"(deadline {deadline:.2f}s)")
                on_success(task, value, attempt, elapsed)
                break
            except Exception as exc:
                elapsed = time.perf_counter() - start
                if supervisor.handle(task.name, attempt, exc, elapsed):
                    _sleep(supervisor.backoff(task.name, attempt))
                    attempt += 1
                    continue
                on_failure(supervisor.failures[task.name])
                break


@dataclass
class _Flight:
    """One in-flight pool submission."""

    name: str
    attempt: int
    started: float


def _sleep(seconds: float) -> None:
    if seconds > 0:
        time.sleep(seconds)


#: Seconds to wait for a terminated worker, or for the pool's manager
#: thread, before escalating (a kill for a worker) or giving up.
_REAP_SECONDS = 5.0


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting on its work, then reap it.

    Used when workers are known-hung (deadline overruns), the pool is
    already broken, or the work is done — waiting for queued work would
    block on exactly the processes we are trying to get rid of. The
    workers and the manager thread are taken before ``shutdown`` drops
    the pool's references to them; each worker is terminated and joined
    (bounded wait, then kill), then the manager thread is joined, so no
    worker, and none of the pool's semaphores, outlives this call.
    ``_processes`` and ``_executor_manager_thread`` are unsupported
    API, hence the ``getattr`` defaults.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(_REAP_SECONDS)
        if process.is_alive():
            process.kill()
            process.join(_REAP_SECONDS)
    if manager is not None:
        manager.join(_REAP_SECONDS)


def _run_pool_tasks(
    tasks: List[SupervisedTask],
    supervisor: Supervisor,
    jobs: int,
    on_success: SuccessCallback,
    on_failure: FailureCallback,
) -> None:
    """Fan out over a process pool, surviving crashes and hangs.

    The loop keeps three populations: ``ready`` (queued (name, attempt)
    pairs, possibly delayed by backoff), ``inflight`` (submitted
    futures) and ``abandoned`` (futures whose deadline expired — their
    results are discarded whenever they do surface). A
    :class:`BrokenProcessPool` costs the in-flight attempts, not the
    run: the pool is rebuilt and surviving work re-submitted.
    """
    policy = supervisor.policy
    by_name = {task.name: task for task in tasks}
    max_workers = min(jobs, len(tasks))
    pool = ProcessPoolExecutor(max_workers=max_workers)
    inflight: Dict[Future, _Flight] = {}
    abandoned: Set[Future] = set()
    #: ``(not_before_monotonic, name, attempt)`` work queue.
    ready: List[Tuple[float, str, int]] = [
        (0.0, task.name, 1) for task in tasks
    ]

    def queue_retry(name: str, attempt: int) -> None:
        ready.append((time.monotonic() + supervisor.backoff(name, attempt),
                      name, attempt + 1))

    def settle_attempt(name: str, attempt: int, exc: Exception,
                       elapsed: float) -> None:
        if supervisor.handle(name, attempt, exc, elapsed):
            queue_retry(name, attempt)
        else:
            on_failure(supervisor.failures[name])

    def rebuild_pool() -> None:
        nonlocal pool
        _terminate_pool(pool)
        abandoned.clear()
        pool = ProcessPoolExecutor(max_workers=max_workers)

    def on_broken_pool(extra: Optional[_Flight], exc: Exception) -> None:
        """Every in-flight attempt died with the pool; retry or fail each."""
        casualties = ([extra] if extra is not None else [])
        casualties += list(inflight.values())
        inflight.clear()
        rebuild_pool()
        now = time.monotonic()
        for flight in casualties:
            settle_attempt(flight.name, flight.attempt, exc,
                           now - flight.started)

    try:
        while inflight or ready:
            now = time.monotonic()
            if not inflight and ready and len(abandoned) >= max_workers:
                # Every slot is hung on an abandoned attempt; nothing
                # will drain without fresh capacity.
                rebuild_pool()
            # Submit due work, never oversubscribing the workers: a
            # queued future's deadline clock would start ticking before
            # any worker picked it up, charging queue time as run time.
            delayed: List[Tuple[float, str, int]] = []
            for index, (not_before, name, attempt) in enumerate(ready):
                if len(inflight) + len(abandoned) >= max_workers:
                    delayed.extend(ready[index:])
                    break
                if not_before > now:
                    delayed.append((not_before, name, attempt))
                    continue
                task = by_name[name]
                try:
                    future = pool.submit(run_task, task, attempt)
                except BrokenProcessPool as exc:
                    on_broken_pool(None, exc)
                    delayed.append((now, name, attempt))
                    continue
                inflight[future] = _Flight(name, attempt, time.monotonic())
            ready = delayed

            if not inflight:
                if ready:
                    _sleep(min(0.05, max(0.0, min(t for t, _, _ in ready)
                                         - time.monotonic())))
                    continue
                break

            completed, _ = wait(set(inflight) | abandoned,
                                timeout=_next_wake(policy, inflight, ready),
                                return_when=FIRST_COMPLETED)
            pool_broke = False
            for future in completed:
                if future in abandoned:
                    # A deadline-expired worker finally surfaced; its
                    # task was already settled. Consume and drop.
                    abandoned.discard(future)
                    future.exception()
                    continue
                flight = inflight.pop(future, None)
                if flight is None:
                    continue
                try:
                    value = future.result()
                    on_success(by_name[flight.name], value, flight.attempt,
                               time.monotonic() - flight.started)
                except BrokenProcessPool as exc:
                    on_broken_pool(flight, exc)
                    pool_broke = True
                    break
                except Exception as exc:
                    settle_attempt(flight.name, flight.attempt, exc,
                                   time.monotonic() - flight.started)
            if pool_broke:
                continue

            # Preemptive deadline enforcement: abandon overrunning futures
            # so their slots come back when the worker finishes (or, if
            # every worker is stuck, rebuild the pool outright).
            if policy.deadline_seconds is not None:
                now = time.monotonic()
                for future, flight in list(inflight.items()):
                    elapsed = now - flight.started
                    if elapsed <= policy.deadline_seconds:
                        continue
                    del inflight[future]
                    if not future.cancel():
                        abandoned.add(future)
                    settle_attempt(
                        flight.name, flight.attempt,
                        DeadlineExceeded(
                            f"task {flight.name!r} exceeded its "
                            f"{policy.deadline_seconds:.2f}s deadline"),
                        elapsed)
    finally:
        _terminate_pool(pool)


def _next_wake(
    policy: RunPolicy,
    inflight: Dict[Future, _Flight],
    ready: List[Tuple[float, str, int]],
) -> Optional[float]:
    """Seconds until the supervisor must act (deadline or retry due)."""
    now = time.monotonic()
    wakes: List[float] = []
    if policy.deadline_seconds is not None:
        wakes += [flight.started + policy.deadline_seconds - now
                  for flight in inflight.values()]
    wakes += [not_before - now for not_before, _, _ in ready]
    if not wakes:
        return None
    return max(0.01, min(wakes))
