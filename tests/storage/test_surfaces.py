"""Per-surface degradation policy, end to end through the real owners.

The matrix ISSUE 10 prescribes: optional caches degrade to counted
misses and keep the run correct (recompute instead of serve-corrupt);
required journals refuse with typed errors; an interrupted campaign
resumes to byte-identical aggregates.
"""

import pytest

from repro.experiments import QUICK
from repro.experiments.campaign import (
    matrix_from_spec,
    run_campaign,
)
from repro.experiments.parallel import CACHE_VERSION, ResultCache
from repro.experiments.resilience import (
    CACHE_REJECTS_METRIC,
    JournalError,
    RunJournal,
)
from repro.obs import MetricsRegistry, use_metrics
from repro.serve.cache import SERVE_CACHE_REJECTS_METRIC, QueryCache
from repro.storage import CHAOS_ENV, fs_chaos, reset_fs_fault_counters

MATRIX_SPEC = {
    "name": "fleet",
    "scenario": "notification",
    "scale": "quick",
    "seed": 7,
    "versions": ["9"],
    "configs": [{"attacking_window_ms": 100.0}],
    "trials": 5,
    "base_params": {"duration_ms": 400.0},
}


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    reset_fs_fault_counters()
    yield
    reset_fs_fault_counters()


class TestResultCacheDegradation:
    def test_write_fault_degrades_to_uncached_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        with fs_chaos("fs:cache:write:enospc"):
            assert cache.store("table2", QUICK, {"rows": ()}) is False
        assert cache.load("table2", QUICK) is None  # recompute, not serve

    def test_torn_write_is_caught_at_read_time(self, tmp_path):
        cache = ResultCache(tmp_path)
        registry = MetricsRegistry()
        with fs_chaos("fs:cache:write:torn"):
            assert cache.store("table2", QUICK, {"rows": ()}) is True
        with use_metrics(registry):
            assert cache.load("table2", QUICK) is None
        assert cache.integrity_rejects == 1
        assert registry.counter(CACHE_REJECTS_METRIC).value == 1.0

    def test_read_fault_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.store("table2", QUICK, {"rows": (1,)}) is True
        with fs_chaos("fs:cache:read:eio:1"):
            assert cache.load("table2", QUICK) is None
        assert cache.load("table2", QUICK) == {"rows": (1,)}


class TestJournalRefusal:
    def test_manifest_write_failure_is_a_typed_refusal(self, tmp_path):
        with fs_chaos("fs:journal:write:enospc"):
            with pytest.raises(JournalError, match="cannot persist"):
                RunJournal.create(tmp_path / "run", QUICK, CACHE_VERSION)

    def test_marker_write_failure_is_a_typed_refusal(self, tmp_path):
        journal = RunJournal.create(tmp_path, QUICK, CACHE_VERSION)
        with fs_chaos("fs:journal:write:eio"):
            with pytest.raises(JournalError, match="cannot persist"):
                journal.store("table2", {"rows": ()})

    def test_resume_sweeps_crash_orphans(self, tmp_path):
        journal = RunJournal.create(tmp_path, QUICK, CACHE_VERSION)
        journal.store("table2", {"rows": ()})
        with fs_chaos("fs:journal:write:crash"):
            with pytest.raises(JournalError):
                journal.store("fig7", {"rows": ()})
        assert list((tmp_path / "results").glob("*.tmp"))
        resumed = RunJournal.resume(tmp_path, QUICK, CACHE_VERSION)
        assert list((tmp_path / "results").glob("*.tmp")) == []
        assert resumed.completed_names() == ("table2",)


class TestCampaignInterruptResume:
    def test_enospc_interrupt_resumes_byte_identical(self, tmp_path):
        """The ISSUE 10 acceptance property, in-process: a campaign that
        loses a shard marker to ENOSPC finishes degraded, and a disarmed
        ``--resume`` re-runs exactly the missing shard to the same bytes
        an uninterrupted run produces."""
        matrix = matrix_from_spec(MATRIX_SPEC)
        clean = run_campaign(matrix, shards=5,
                             run_dir=tmp_path / "clean")
        run_dir = tmp_path / "run"
        # Campaign write #1 is run.json; #3 is the second shard's
        # completion marker — the shard computes, the marker is lost.
        with fs_chaos("fs:campaign:write:enospc:3"):
            interrupted = run_campaign(matrix, shards=5, run_dir=run_dir)
        assert len(interrupted.failures) == 1
        assert interrupted.trials < clean.trials
        completed = {p.stem for p in (run_dir / "results").glob("*.pkl")}
        assert len(completed) == 4

        resumed = run_campaign(matrix, shards=5, run_dir=run_dir,
                               resume=True)
        assert resumed.failures == ()
        assert resumed.aggregates_json() == clean.aggregates_json()


class TestQueryCacheDegradation:
    def test_write_fault_keeps_entry_dirty_until_flush(self, tmp_path):
        registry = MetricsRegistry()
        cache = QueryCache(tmp_path, registry=registry)
        with fs_chaos("fs:query-cache:write:enospc"):
            assert cache.store("abc123", {"answer": 41}) is False
        assert cache.dirty_entries == 1
        assert cache.load("abc123") == {"answer": 41}  # memory still serves
        assert cache.flush() == 1
        assert cache.dirty_entries == 0
        # A fresh cache (new process) now reads the flushed entry.
        assert QueryCache(tmp_path).load("abc123") == {"answer": 41}

    def test_corrupt_entry_counts_the_serve_reject_metric(self, tmp_path):
        registry = MetricsRegistry()
        cache = QueryCache(tmp_path, registry=registry)
        assert cache.store("abc123", {"answer": 41}) is True
        path = cache.path_for("abc123")
        path.write_bytes(path.read_bytes()[:-5])
        fresh = QueryCache(tmp_path, registry=registry)
        assert fresh.load("abc123") is None
        assert fresh.integrity_rejects == 1
        assert registry.counter(SERVE_CACHE_REJECTS_METRIC).value == 1.0
        assert registry.counter(CACHE_REJECTS_METRIC).value == 1.0

    def test_memory_only_cache_never_touches_disk(self):
        cache = QueryCache(None)
        assert cache.store("k", {"v": 1}) is True
        assert cache.load("k") == {"v": 1}
        assert cache.flush() == 0
        with pytest.raises(ValueError, match="memory-only"):
            cache.path_for("k")
