"""Supervision chaos tests: crashes, hangs, kills, poison, resume.

The deterministic chaos harness (``REPRO_CHAOS``) injects fault points
into specific ``(experiment, attempt)`` pairs; these tests drive the
supervised runner through every failure mode and assert the two
headline properties of ISSUE 5:

* **retry determinism** — a crash on attempt 1 plus success on attempt 2
  is *bit-identical* to a run that never crashed (the attempt number
  never feeds seed derivation);
* **graceful degradation** — a permanent failure costs exactly that
  experiment: the other 20 results match the clean run, the report
  renders a FAILED section, and the failure record carries the forensic
  detail (kind, attempts, traceback).

Plus the checkpoint/resume journal: after a mid-run hard kill, a
``--resume`` run re-executes only the missing experiments.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments import (
    DEFAULT_POLICY,
    EXPERIMENTS,
    ExperimentFailure,
    JournalError,
    RunJournal,
    RunPolicy,
    SMOKE,
    chaos,
    format_report,
    run_all,
)
from repro.experiments.parallel import CACHE_VERSION
from repro.experiments.resilience import (
    ChaosCrash,
    ChaosError,
    DEADLINE_METRIC,
    FAILURES_METRIC,
    RETRIES_METRIC,
    SupervisedTask,
    Supervisor,
    chaos_action,
    run_supervised,
)

# Deadline-test margins. The slowest real SMOKE experiment (table2)
# takes ~0.6 s, so a DEADLINE_SECONDS deadline only ever fires on the
# injected hangs, even on a loaded CI worker — and each hang sleeps
# exactly HANG_MARGIN_SECONDS past the deadline, which bounds how long
# the deadline tests can take instead of burying the margin in
# hand-picked per-test sleeps.
DEADLINE_SECONDS = 1.5
HANG_MARGIN_SECONDS = 1.0
HANG_SECONDS = DEADLINE_SECONDS + HANG_MARGIN_SECONDS


class TestRunPolicy:
    def test_defaults_are_inert(self):
        assert DEFAULT_POLICY.max_attempts == 1
        assert DEFAULT_POLICY.deadline_seconds is None
        assert DEFAULT_POLICY.backoff_base_seconds == 0.0
        assert not DEFAULT_POLICY.fail_fast

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"deadline_seconds": 0.0},
        {"deadline_seconds": -1.0},
        {"backoff_base_seconds": -0.1},
        {"backoff_factor": 0.5},
        {"backoff_max_seconds": -1.0},
        {"backoff_jitter": 1.5},
        {"backoff_jitter": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunPolicy(**kwargs)

    def test_backoff_is_deterministic(self):
        policy = RunPolicy(max_attempts=4, backoff_base_seconds=0.1)
        a = [policy.backoff_seconds(1, "fig7", n) for n in (1, 2, 3)]
        b = [policy.backoff_seconds(1, "fig7", n) for n in (1, 2, 3)]
        assert a == b

    def test_backoff_grows_and_caps(self):
        policy = RunPolicy(max_attempts=10, backoff_base_seconds=1.0,
                           backoff_factor=2.0, backoff_max_seconds=4.0,
                           backoff_jitter=0.0)
        delays = [policy.backoff_seconds(1, "fig7", n) for n in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_backoff_jitter_varies_by_key(self):
        policy = RunPolicy(max_attempts=3, backoff_base_seconds=1.0,
                           backoff_jitter=0.5)
        by_name = {policy.backoff_seconds(1, name, 1)
                   for name in ("fig7", "fig8", "table3")}
        assert len(by_name) == 3
        for delay in by_name:
            assert 0.5 <= delay <= 1.5

    def test_zero_base_never_sleeps(self):
        policy = RunPolicy(max_attempts=5)
        assert policy.backoff_seconds(1, "fig7", 3) == 0.0


class TestChaosSpec:
    def test_no_env_no_action(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos_action("fig7", 1) is None

    def test_exact_match(self):
        with chaos("fig7:1:crash"):
            assert chaos_action("fig7", 1) == "crash"
            assert chaos_action("fig7", 2) is None
            assert chaos_action("fig8", 1) is None

    def test_wildcards(self):
        with chaos("*:2:hang,fig8:*:poison"):
            assert chaos_action("anything", 2) == "hang"
            assert chaos_action("fig8", 7) == "poison"
            assert chaos_action("fig7", 1) is None

    def test_bad_entry_raises(self):
        with chaos("fig7:crash"):
            with pytest.raises(ChaosError, match="expected"):
                chaos_action("fig7", 1)
        with chaos("fig7:1:explode"):
            with pytest.raises(ChaosError, match="unknown chaos mode"):
                chaos_action("fig7", 1)

    def test_context_restores_env(self):
        os.environ.pop("REPRO_CHAOS", None)
        with chaos("fig7:1:crash"):
            assert os.environ["REPRO_CHAOS"] == "fig7:1:crash"
        assert "REPRO_CHAOS" not in os.environ


class TestRetryDeterminism:
    """Crash on attempt 1, success on attempt 2 == never crashed."""

    def test_serial_retry_bit_identical(self, smoke_clean_results):
        with chaos("fig7:1:crash"):
            retried = run_all(SMOKE, policy=RunPolicy(max_attempts=2))
        assert retried.failures == ()
        assert retried == smoke_clean_results
        by_name = {t.name: t for t in retried.timings}
        assert by_name["fig7"].attempts == 2
        assert by_name["fig8"].attempts == 1

    def test_pool_retry_bit_identical(self, smoke_clean_results):
        with chaos("table3:1:crash"):
            retried = run_all(SMOKE, jobs=2,
                              policy=RunPolicy(max_attempts=2))
        assert retried.failures == ()
        assert retried == smoke_clean_results

    def test_pool_worker_kill_recovers(self, smoke_clean_results):
        # kill breaks the whole pool (BrokenProcessPool); the supervisor
        # rebuilds it and re-submits every casualty — including innocent
        # in-flight experiments, whose re-run is deterministic.
        with chaos("table3:1:kill"):
            retried = run_all(SMOKE, jobs=2,
                              policy=RunPolicy(max_attempts=2))
        assert retried.failures == ()
        assert retried == smoke_clean_results

    def test_retry_with_backoff_still_identical(self, smoke_clean_results):
        with chaos("fig2:1:crash,fig4:1:crash"):
            retried = run_all(
                SMOKE, jobs=2,
                policy=RunPolicy(max_attempts=3,
                                 backoff_base_seconds=0.01))
        assert retried.failures == ()
        assert retried == smoke_clean_results


class TestGracefulDegradation:
    """A permanent failure costs one experiment, never the run."""

    def test_serial_crash_records_failure(self, smoke_clean_results):
        with chaos("fig7:*:crash"):
            degraded = run_all(SMOKE)
        assert degraded.fig7 is None
        assert not degraded.ok
        assert [f.name for f in degraded.failures] == ["fig7"]
        failure = degraded.failures[0]
        assert failure.kind == "exception"
        assert failure.attempts == 1
        assert "ChaosCrash" in failure.error
        assert "ChaosCrash" in failure.traceback
        for spec in EXPERIMENTS:
            if spec.name != "fig7":
                assert getattr(degraded, spec.name) == \
                    getattr(smoke_clean_results, spec.name), spec.name

    def test_pool_crash_records_failure(self, smoke_clean_results):
        with chaos("fig7:*:crash"):
            degraded = run_all(SMOKE, jobs=2,
                               policy=RunPolicy(max_attempts=2))
        assert degraded.fig7 is None
        assert [(f.name, f.attempts) for f in degraded.failures] == \
            [("fig7", 2)]
        assert degraded.table3 == smoke_clean_results.table3

    def test_failed_section_renders_as_failed(self, smoke_clean_results):
        with chaos("fig7:*:crash"):
            degraded = run_all(SMOKE)
        report = format_report(degraded, include_timings=True)
        assert "**FAILED**" in report
        assert "Degraded run:" in report
        assert "## Fig. 7 — capture rate vs D" in report
        # Surviving sections still render their real content.
        clean_report = format_report(smoke_clean_results)
        assert "## Table III — password stealing" in report
        assert "| FAILED" in report  # timing appendix row
        assert report != clean_report

    def test_clean_report_identical_with_default_policy(
            self, smoke_clean_results):
        # Supervision is zero-cost on the happy path: rendering a clean
        # run is byte-identical whether or not a policy was supplied.
        supervised = run_all(SMOKE, policy=RunPolicy())
        assert format_report(supervised) == \
            format_report(smoke_clean_results)

    def test_poisoned_result_is_rejected(self, smoke_clean_results):
        with chaos("fig8:*:poison"):
            degraded = run_all(SMOKE)
        assert degraded.fig8 is None
        assert [f.kind for f in degraded.failures] == ["poisoned"]
        assert degraded.fig7 == smoke_clean_results.fig7

    def test_multiple_failures_in_registry_order(self):
        with chaos("table3:*:crash,fig4:*:crash"):
            degraded = run_all(SMOKE)
        assert [f.name for f in degraded.failures] == ["fig4", "table3"]

    def test_fail_fast_restores_abort(self):
        with chaos("fig7:*:crash"):
            with pytest.raises(ChaosCrash):
                run_all(SMOKE, policy=RunPolicy(fail_fast=True))

    def test_failure_round_trips_serialization(self):
        with chaos("fig7:*:crash"):
            degraded = run_all(SMOKE)
        failure = degraded.failures[0]
        assert ExperimentFailure.from_dict(failure.to_dict()) == failure


class TestDeadlines:
    # Margins: see DEADLINE_SECONDS / HANG_SECONDS at module top.
    def test_pool_deadline_converts_hang(self, smoke_clean_results):
        with chaos("fig7:*:hang", hang_seconds=HANG_SECONDS):
            degraded = run_all(
                SMOKE, jobs=2,
                policy=RunPolicy(deadline_seconds=DEADLINE_SECONDS))
        assert [(f.name, f.kind) for f in degraded.failures] == \
            [("fig7", "deadline")]
        # Innocent experiments never inherit the hung worker's deadline.
        assert degraded.table3 == smoke_clean_results.table3
        assert degraded.fig8 == smoke_clean_results.fig8

    def test_serial_deadline_posthoc(self):
        with chaos("fig7:*:hang", hang_seconds=HANG_SECONDS):
            degraded = run_all(
                SMOKE,
                policy=RunPolicy(deadline_seconds=DEADLINE_SECONDS))
        assert [(f.name, f.kind) for f in degraded.failures] == \
            [("fig7", "deadline")]

    def test_every_slot_hung_still_completes(self, smoke_clean_results):
        # Both workers hang at once: the pool must reclaim capacity and
        # finish the remaining experiments anyway.
        with chaos("fig7:*:hang,fig8:*:hang", hang_seconds=HANG_SECONDS):
            degraded = run_all(
                SMOKE, jobs=2,
                policy=RunPolicy(deadline_seconds=DEADLINE_SECONDS))
        assert sorted(f.name for f in degraded.failures) == ["fig7", "fig8"]
        assert degraded.table3 == smoke_clean_results.table3


class TestJournalResume:
    def test_resume_skips_completed(self, tmp_path, smoke_clean_results):
        run_dir = tmp_path / "run"
        with chaos("corpus:*:crash"):
            first = run_all(SMOKE, run_dir=run_dir)
        assert [f.name for f in first.failures] == ["corpus"]
        journal = RunJournal.resume(run_dir, SMOKE, CACHE_VERSION)
        assert "corpus" not in journal.completed_names()
        assert len(journal.completed_names()) == len(EXPERIMENTS) - 1

        resumed = run_all(SMOKE, run_dir=run_dir, resume=True)
        assert resumed == smoke_clean_results
        by_name = {t.name: t for t in resumed.timings}
        assert not by_name["corpus"].cached      # the one re-run
        assert all(t.cached for t in resumed.timings
                   if t.name != "corpus")

    def test_resume_requires_run_dir(self):
        with pytest.raises(ValueError, match="run_dir"):
            run_all(SMOKE, resume=True)

    def test_create_refuses_completed_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        run_all(SMOKE, run_dir=run_dir)
        with pytest.raises(JournalError, match="resume"):
            run_all(SMOKE, run_dir=run_dir)

    def test_resume_refuses_different_scale(self, tmp_path):
        run_dir = tmp_path / "run"
        run_all(SMOKE, run_dir=run_dir)
        other = SMOKE.with_seed(SMOKE.seed + 1)
        with pytest.raises(JournalError, match="different run"):
            run_all(other, run_dir=run_dir, resume=True)

    def test_resume_on_fresh_dir_is_fine(self, tmp_path,
                                         smoke_clean_results):
        results = run_all(SMOKE, run_dir=tmp_path / "new", resume=True)
        assert results == smoke_clean_results

    def test_journal_warms_cache(self, tmp_path, smoke_clean_results):
        run_dir, cache_dir = tmp_path / "run", tmp_path / "cache"
        run_all(SMOKE, run_dir=run_dir)
        warmed = run_all(SMOKE, run_dir=run_dir, resume=True,
                         cache_dir=cache_dir)
        assert warmed == smoke_clean_results
        cached_only = run_all(SMOKE, cache_dir=cache_dir)
        assert cached_only == smoke_clean_results
        assert all(t.cached for t in cached_only.timings)

    def test_corrupt_marker_reruns_that_experiment(
            self, tmp_path, smoke_clean_results):
        run_dir = tmp_path / "run"
        run_all(SMOKE, run_dir=run_dir)
        marker = run_dir / "results" / "fig7.pkl"
        marker.write_bytes(b"corrupted beyond recognition")
        resumed = run_all(SMOKE, run_dir=run_dir, resume=True)
        assert resumed == smoke_clean_results
        by_name = {t.name: t for t in resumed.timings}
        assert not by_name["fig7"].cached

    def test_resume_after_hard_kill(self, tmp_path, smoke_clean_results):
        """SIGKILL-equivalent death mid-run; --resume finishes the rest.

        The ``kill`` chaos mode calls ``os._exit`` inside the (serial)
        runner process, so the subprocess dies exactly as an OOM-killed
        run would — no cleanup, no journal flush beyond completed
        markers.
        """
        run_dir = tmp_path / "run"
        script = textwrap.dedent("""
            from repro.experiments import SMOKE, run_all
            run_all(SMOKE, run_dir={run_dir!r})
        """).format(run_dir=str(run_dir))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve()
                                  .parents[2] / "src"),
                   REPRO_CHAOS="table3:*:kill")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 86, proc.stderr

        journal = RunJournal.resume(run_dir, SMOKE, CACHE_VERSION)
        completed = journal.completed_names()
        # Everything before table3 in registry order completed; nothing
        # at or after the kill point did.
        names = [spec.name for spec in EXPERIMENTS]
        assert set(completed) == set(names[:names.index("table3")])

        resumed = run_all(SMOKE, run_dir=run_dir, resume=True)
        assert resumed == smoke_clean_results
        by_name = {t.name: t for t in resumed.timings}
        for name in completed:
            assert by_name[name].cached, name
        for name in names[names.index("table3"):]:
            assert not by_name[name].cached, name


class TestSupervisionMetrics:
    def test_counters_present_and_zero_on_clean_run(self):
        results = run_all(SMOKE, collect_metrics=True)
        runner = next(m for m in results.metrics if m.name == "runner")
        values = {s.name: s.value for s in runner.samples}
        assert values[RETRIES_METRIC] == 0
        assert values[FAILURES_METRIC] == 0
        assert values[DEADLINE_METRIC] == 0

    def test_retry_and_failure_counters(self):
        with chaos("fig7:*:crash,fig8:1:crash"):
            results = run_all(SMOKE, collect_metrics=True,
                              policy=RunPolicy(max_attempts=2))
        runner = next(m for m in results.metrics if m.name == "runner")
        values = {s.name: s.value for s in runner.samples}
        # fig8 retried once then succeeded; fig7 retried once then failed.
        assert values[RETRIES_METRIC] == 2
        assert values[FAILURES_METRIC] == 1

    def test_deadline_counter(self):
        with chaos("fig7:*:hang", hang_seconds=HANG_SECONDS):
            results = run_all(
                SMOKE, collect_metrics=True,
                policy=RunPolicy(deadline_seconds=DEADLINE_SECONDS))
        runner = next(m for m in results.metrics if m.name == "runner")
        values = {s.name: s.value for s in runner.samples}
        assert values[DEADLINE_METRIC] == 1
        assert values[FAILURES_METRIC] == 1


class TestCliFailureSemantics:
    def _run_cli(self, tmp_path, *argv, chaos_spec=None):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve()
                                  .parents[2] / "src"))
        if chaos_spec is not None:
            env["REPRO_CHAOS"] = chaos_spec
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=600)

    def test_report_exits_nonzero_on_failure(self, tmp_path):
        out = tmp_path / "failures.json"
        proc = self._run_cli(
            tmp_path, "report", "--scale", "smoke", "--no-cache",
            "--failures-out", str(out), chaos_spec="fig7:*:crash")
        assert proc.returncode == 1
        assert "**FAILED**" in proc.stdout
        assert "fig7" in proc.stderr

        summary = json.loads(out.read_text())
        assert summary["failed"] == 1
        assert summary["failures"][0]["name"] == "fig7"
        assert summary["completed"] == len(EXPERIMENTS) - 1

    def test_report_clean_run_exits_zero(self, tmp_path):
        out = tmp_path / "failures.json"
        proc = self._run_cli(
            tmp_path, "report", "--scale", "smoke", "--no-cache",
            "--failures-out", str(out))
        assert proc.returncode == 0, proc.stderr

        summary = json.loads(out.read_text())
        assert summary["failed"] == 0 and summary["failures"] == []

    def test_report_retries_flag_recovers(self, tmp_path):
        proc = self._run_cli(
            tmp_path, "report", "--scale", "smoke", "--no-cache",
            "--retries", "1", chaos_spec="fig7:1:crash")
        assert proc.returncode == 0, proc.stderr
        assert "**FAILED**" not in proc.stdout

    def test_report_fail_fast_aborts(self, tmp_path):
        proc = self._run_cli(
            tmp_path, "report", "--scale", "smoke", "--no-cache",
            "--fail-fast", chaos_spec="fig7:*:crash")
        assert proc.returncode != 0
        assert "ChaosCrash" in proc.stderr

    def test_experiments_run_exit_codes(self, tmp_path):
        ok = self._run_cli(tmp_path, "experiments", "--run", "fig2")
        assert ok.returncode == 0, ok.stderr
        bad = self._run_cli(tmp_path, "experiments", "--run", "fig2",
                            chaos_spec="fig2:*:crash")
        assert bad.returncode == 1
        assert "FAILED" in bad.stderr
        unknown = self._run_cli(tmp_path, "experiments", "--run", "nope")
        assert unknown.returncode == 2

    def test_report_resume_conflict(self, tmp_path):
        proc = self._run_cli(
            tmp_path, "report", "--scale", "smoke", "--no-cache",
            "--run-dir", str(tmp_path / "a"),
            "--resume", str(tmp_path / "b"))
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# Generic supervised runner (the layer run_all and run_campaign share)
# ---------------------------------------------------------------------------

def _square_task(value):
    """Module-level so it pickles into pool workers.

    Mirrors the shape of every real worker: plain work, no attempt
    number — the chaos gate keyed on the task name and attempt, and the
    poison check, belong to the runner's ``run_task`` trampoline.
    """
    return value * value


class TestSupervisedRunner:
    """Unit tests against ``run_supervised`` itself — the shard-level
    recovery guarantees the campaign engine inherits, pinned without a
    full matrix in the loop."""

    def _run(self, policy, *, jobs, tasks=4):
        supervisor = Supervisor(policy, seed=1)
        results = {}
        run_supervised(
            [SupervisedTask(name=f"task-{i}", fn=_square_task, args=(i,))
             for i in range(tasks)],
            supervisor,
            jobs=jobs,
            on_success=lambda task, value, attempt, seconds:
                results.__setitem__(task.name, value),
            on_failure=lambda failure: None,
        )
        return supervisor, results

    def test_pool_kill_rebuilds_and_retries(self):
        # os._exit in a worker breaks the whole pool; the runner must
        # rebuild it and convert every casualty into a retry, so a
        # killed shard is never a lost shard.
        with chaos("task-2:1:kill"):
            supervisor, results = self._run(
                RunPolicy(max_attempts=2), jobs=2)
        assert results == {f"task-{i}": i * i for i in range(4)}
        assert supervisor.failures == {}
        assert supervisor.retries >= 1

    def test_pool_hang_converts_to_deadline(self):
        with chaos("task-1:*:hang", hang_seconds=HANG_SECONDS):
            supervisor, results = self._run(
                RunPolicy(deadline_seconds=DEADLINE_SECONDS), jobs=2)
        assert set(supervisor.failures) == {"task-1"}
        assert supervisor.failures["task-1"].kind == "deadline"
        assert supervisor.deadline_exceeded == 1
        assert results == {f"task-{i}": i * i for i in (0, 2, 3)}

    def test_check_rejects_poisoned_payload(self):
        with chaos("task-3:*:poison"):
            supervisor, results = self._run(DEFAULT_POLICY, jobs=1)
        assert set(supervisor.failures) == {"task-3"}
        assert supervisor.failures["task-3"].kind == "poisoned"
        assert results == {f"task-{i}": i * i for i in (0, 1, 2)}

    def test_serial_and_pool_agree(self):
        _, serial = self._run(DEFAULT_POLICY, jobs=1)
        _, pooled = self._run(DEFAULT_POLICY, jobs=2)
        assert serial == pooled == {f"task-{i}": i * i for i in range(4)}
