"""Campaign-engine tests: sharding, determinism, supervision, resume.

The fleet-campaign contract (ISSUE 6) has three headline properties,
each pinned here against a real 65-cell notification sweep:

* **shard/job independence** — the same matrix at ``shards=1``,
  ``shards=8`` and ``shards=5, jobs=4`` produces byte-identical
  aggregates (the canonical ``aggregates_json`` string);
* **supervised shards** — a crashed or killed shard retries without
  moving a bit, a permanently failing shard costs exactly its own
  cells, and a poisoned payload is rejected, all through the same
  chaos harness the experiment runner uses (shard name as fault key);
* **kill/resume byte-identity** — an ``os._exit`` death mid-campaign
  leaves only completed shard markers; ``resume`` re-runs the rest and
  the merged aggregates equal the uninterrupted run's bytes.

Plus the O(shards) memory contract (a shard's payload does not grow
with its trial count) and the shard-seed derivation pins.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments import QUICK, SMOKE, ScenarioMatrix, run_all
from repro.experiments.campaign import (
    CampaignManifest,
    SHARDS_COMPLETED_METRIC,
    SHARDS_RETRIED_METRIC,
    SHARDS_TOTAL_METRIC,
    _run_shard,
    group_by_version,
    matrix_fingerprint,
    matrix_from_spec,
    run_campaign,
    shard_matrix,
    shard_seed,
)
from repro.experiments.parallel import CACHE_VERSION
from repro.experiments.resilience import (
    JournalError,
    RunJournal,
    RunPolicy,
    chaos,
)
from repro.obs import MetricsRegistry, use_metrics
from repro.storage import fsck_run_dir

#: The reference fleet: every Android 9 evaluation device x 5 trials of
#: the notification scenario = 65 cells, ~1 ms each under stack reuse.
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


def fleet_matrix() -> ScenarioMatrix:
    return matrix_from_spec(MATRIX_SPEC)


@pytest.fixture(scope="session")
def fleet_reference():
    """The unsharded, serial, uninterrupted reference campaign."""
    return run_campaign(fleet_matrix(), shards=1)


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------

class TestShardMatrix:
    def test_shards_partition_the_cell_range(self):
        matrix = fleet_matrix()
        specs = shard_matrix(matrix, 8)
        assert len(specs) == 8
        assert specs[0].start == 0
        assert specs[-1].stop == len(matrix)
        for prev, cur in zip(specs, specs[1:]):
            assert cur.start == prev.stop
        sizes = {spec.cells for spec in specs}
        assert max(sizes) - min(sizes) <= 1

    def test_shard_count_clamps_to_cells(self):
        matrix = fleet_matrix()
        specs = shard_matrix(matrix, 10_000)
        assert len(specs) == len(matrix)
        assert all(spec.cells == 1 for spec in specs)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            shard_matrix(fleet_matrix(), 0)

    def test_shard_seeds_are_pinned(self):
        """Regression pin: a refactor must not silently re-derive seeds."""
        matrix = fleet_matrix()
        assert [spec.seed for spec in shard_matrix(matrix, 4)] == [
            14103656383471169932,
            14557259166484259597,
            10777189780170851280,
            4417137478063274247,
        ]

    def test_shard_seeds_distinct_per_index_and_plan(self):
        matrix = fleet_matrix()
        seeds = {shard_seed(matrix, i, 8) for i in range(8)}
        assert len(seeds) == 8
        # Re-sharding the same matrix is a different seed universe.
        assert shard_seed(matrix, 0, 8) != shard_seed(matrix, 0, 5)


# ---------------------------------------------------------------------------
# Determinism: shard count, job count, grouping
# ---------------------------------------------------------------------------

class TestShardIndependence:
    def test_sharded_equals_serial(self, fleet_reference):
        sharded = run_campaign(fleet_matrix(), shards=8)
        assert sharded.trials == fleet_reference.trials == 65
        assert sharded.rows == fleet_reference.rows
        assert sharded.aggregates_json() == fleet_reference.aggregates_json()

    def test_parallel_equals_serial(self, fleet_reference):
        pooled = run_campaign(fleet_matrix(), shards=5, jobs=4)
        assert pooled.failures == ()
        assert pooled.aggregates_json() == fleet_reference.aggregates_json()

    def test_grouped_rows_are_shard_independent(self):
        serial = run_campaign(fleet_matrix(), shards=1,
                              group_by=group_by_version)
        sharded = run_campaign(fleet_matrix(), shards=5,
                               group_by=group_by_version)
        assert {row.group for row in serial.rows} == {"9"}
        assert sharded.aggregates_json() == serial.aggregates_json()

    def test_rows_cover_notification_metrics(self, fleet_reference):
        by_name = {row.name: row for row in fleet_reference.rows}
        # NotificationOutcome contributes its rank and suppressed flag.
        assert set(by_name) == {"value", "suppressed"}
        assert by_name["value"].count == 65
        assert 0.0 <= by_name["suppressed"].mean <= 1.0


# ---------------------------------------------------------------------------
# Shard supervision: retries, permanent failures, poison
# ---------------------------------------------------------------------------

class TestShardSupervision:
    def test_crash_retry_bit_identical(self, fleet_reference):
        with chaos("shard-0002:1:crash"):
            retried = run_campaign(fleet_matrix(), shards=5,
                                   policy=RunPolicy(max_attempts=2))
        assert retried.failures == ()
        assert retried.retries == 1
        assert retried.aggregates_json() == fleet_reference.aggregates_json()

    def test_pool_worker_kill_retries_not_loses(self, fleet_reference):
        # The kill breaks the whole pool (BrokenProcessPool); the
        # supervisor rebuilds it and the shard re-runs — converted into
        # a retry, never into lost trials.
        with chaos("shard-0001:1:kill"):
            retried = run_campaign(fleet_matrix(), shards=5, jobs=2,
                                   policy=RunPolicy(max_attempts=2))
        assert retried.failures == ()
        assert retried.trials == 65
        assert retried.retries >= 1
        assert retried.aggregates_json() == fleet_reference.aggregates_json()

    def test_permanent_failure_costs_one_shard(self, fleet_reference):
        with chaos("shard-0001:*:crash"):
            degraded = run_campaign(fleet_matrix(), shards=5,
                                    policy=RunPolicy(max_attempts=2))
        lost = shard_matrix(fleet_matrix(), 5)[1].cells
        assert [f.name for f in degraded.failures] == ["shard-0001"]
        assert degraded.failures[0].kind == "exception"
        assert degraded.failures[0].attempts == 2
        assert "ChaosCrash" in degraded.failures[0].error
        assert degraded.trials == 65 - lost
        assert degraded.rows  # survivors still aggregate

    def test_poisoned_shard_is_rejected(self):
        with chaos("shard-0000:*:poison"):
            degraded = run_campaign(fleet_matrix(), shards=5)
        assert [f.kind for f in degraded.failures] == ["poisoned"]

    def test_campaign_metrics_counters(self, fleet_reference):
        registry = MetricsRegistry()
        with chaos("shard-0003:1:crash"), use_metrics(registry):
            result = run_campaign(fleet_matrix(), shards=5,
                                  policy=RunPolicy(max_attempts=2))
        assert result.failures == ()
        assert registry.counter(SHARDS_TOTAL_METRIC).value == 5
        assert registry.counter(SHARDS_COMPLETED_METRIC).value == 5
        assert registry.counter(SHARDS_RETRIED_METRIC).value == 1

    def test_trial_series_are_the_same_at_any_jobs(self):
        """Shard workers' trial-level metrics reach the driver's registry
        whether the shards ran in-process or in a pool."""
        matrix = ScenarioMatrix(
            name="parity", scenario="notification", scale=QUICK,
            configs=({"attacking_window_ms": 80.0},
                     {"attacking_window_ms": 160.0}),
            fault_profiles=("none", "mild"), trials=2,
            base_params={"duration_ms": 400.0})
        assert len(matrix) == 8

        def run(jobs):
            registry = MetricsRegistry()
            with use_metrics(registry):
                result = run_campaign(matrix, shards=4, jobs=jobs)
            # Counter/gauge values and histogram counts; histogram sums
            # are left out because the trial wall-time series is
            # wall-clock.
            series = {(s.name, s.labels): (s.kind, s.value, s.count)
                      for s in registry.samples()}
            return result.aggregates_json(), series

        serial_json, serial = run(1)
        pooled_json, pooled = run(2)
        assert ("sim_scheduler_events_dispatched_total", ()) in serial
        assert ("engine_trials_total", ()) in serial
        assert pooled == serial
        assert pooled_json == serial_json


# ---------------------------------------------------------------------------
# O(shards) memory contract
# ---------------------------------------------------------------------------

class TestMemoryContract:
    def test_shard_payload_does_not_grow_with_trials(self):
        def outcome(trials):
            spec = dict(MATRIX_SPEC, trials=trials)
            matrix = matrix_from_spec(spec)
            (shard,) = shard_matrix(matrix, 1)
            return _run_shard(matrix, shard, None, None)

        small, large = outcome(1), outcome(20)
        assert large.trials == 20 * small.trials
        small_bytes = len(pickle.dumps(small))
        large_bytes = len(pickle.dumps(large))
        # 20x the trials, same digest-sized payload (partials lists may
        # differ by an entry or two; nothing anywhere near linear).
        assert abs(large_bytes - small_bytes) < 512


# ---------------------------------------------------------------------------
# Manifest: create/resume refusals, journal hits, corruption
# ---------------------------------------------------------------------------

class TestCampaignManifest:
    def test_create_refuses_completed_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(fleet_matrix(), shards=3, run_dir=run_dir)
        with pytest.raises(JournalError, match="resume"):
            run_campaign(fleet_matrix(), shards=3, run_dir=run_dir)

    def test_resume_on_fresh_dir_is_fine(self, tmp_path, fleet_reference):
        result = run_campaign(fleet_matrix(), shards=3,
                              run_dir=tmp_path / "new", resume=True)
        assert result.aggregates_json() == fleet_reference.aggregates_json()

    def test_resume_refuses_different_matrix(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(fleet_matrix(), shards=3, run_dir=run_dir)
        other = matrix_from_spec(dict(MATRIX_SPEC, seed=8))
        with pytest.raises(JournalError, match="different campaign"):
            run_campaign(other, shards=3, run_dir=run_dir, resume=True)

    def test_resume_refuses_different_shard_plan(self, tmp_path):
        run_dir = tmp_path / "run"
        run_campaign(fleet_matrix(), shards=3, run_dir=run_dir)
        with pytest.raises(JournalError, match="different campaign"):
            run_campaign(fleet_matrix(), shards=5, run_dir=run_dir,
                         resume=True)

    def test_resume_skips_journaled_shards(self, tmp_path, fleet_reference):
        run_dir = tmp_path / "run"
        run_campaign(fleet_matrix(), shards=4, run_dir=run_dir)
        registry = MetricsRegistry()
        with use_metrics(registry):
            resumed = run_campaign(fleet_matrix(), shards=4,
                                   run_dir=run_dir, resume=True)
        # Every shard was a journal hit: nothing re-ran.
        assert registry.counter(SHARDS_COMPLETED_METRIC).value == 0
        assert resumed.aggregates_json() == fleet_reference.aggregates_json()

    def test_corrupt_marker_reruns_that_shard(self, tmp_path,
                                              fleet_reference):
        run_dir = tmp_path / "run"
        run_campaign(fleet_matrix(), shards=4, run_dir=run_dir)
        marker = run_dir / "results" / "shard-0002.pkl"
        marker.write_bytes(b"corrupted beyond recognition")
        registry = MetricsRegistry()
        with use_metrics(registry):
            resumed = run_campaign(fleet_matrix(), shards=4,
                                   run_dir=run_dir, resume=True)
        assert registry.counter(SHARDS_COMPLETED_METRIC).value == 1
        assert resumed.aggregates_json() == fleet_reference.aggregates_json()

    def test_experiment_resume_refuses_a_campaign_dir(self, tmp_path,
                                                      fleet_reference):
        run_dir = tmp_path / "run"
        run_campaign(fleet_matrix(), shards=3, run_dir=run_dir)
        before = sorted(p.relative_to(run_dir) for p in run_dir.rglob("*"))
        with pytest.raises(JournalError, match="a campaign, not a run"):
            RunJournal.resume(run_dir, SMOKE, CACHE_VERSION)
        with pytest.raises(JournalError, match="a campaign, not a run"):
            run_all(SMOKE, run_dir=run_dir, resume=True)
        # The refusals wrote nothing: the campaign still checks clean
        # and resumes to the same bytes.
        assert sorted(p.relative_to(run_dir)
                      for p in run_dir.rglob("*")) == before
        assert fsck_run_dir(run_dir).ok
        resumed = run_campaign(fleet_matrix(), shards=3, run_dir=run_dir,
                               resume=True)
        assert resumed.aggregates_json() == fleet_reference.aggregates_json()

    def test_campaign_resume_refuses_an_experiment_run_dir(self, tmp_path):
        journal = RunJournal.create(tmp_path, SMOKE, CACHE_VERSION)
        journal.store("fig2", {"rows": ()})
        with pytest.raises(JournalError, match="a run, not a campaign"):
            CampaignManifest.resume(tmp_path, fleet_matrix(), 3)
        with pytest.raises(JournalError, match="a run, not a campaign"):
            run_campaign(fleet_matrix(), shards=3, run_dir=tmp_path,
                         resume=True)
        assert fsck_run_dir(tmp_path).ok
        assert RunJournal.resume(tmp_path, SMOKE,
                                 CACHE_VERSION).completed_names() == ("fig2",)

    def test_fingerprint_pins_cell_universe(self):
        assert matrix_fingerprint(fleet_matrix()) == \
            matrix_fingerprint(fleet_matrix())
        reseeded = matrix_from_spec(dict(MATRIX_SPEC, seed=8))
        retried = matrix_from_spec(dict(MATRIX_SPEC, trials=6))
        assert matrix_fingerprint(reseeded) != \
            matrix_fingerprint(fleet_matrix())
        assert matrix_fingerprint(retried) != \
            matrix_fingerprint(fleet_matrix())


class TestKillResume:
    def test_resume_after_hard_kill_is_bit_identical(self, tmp_path,
                                                     fleet_reference):
        """SIGKILL-equivalent death mid-campaign; resume matches bytes.

        The ``kill`` chaos mode calls ``os._exit`` inside the (serial)
        campaign process, so the subprocess dies exactly as an
        OOM-killed fleet run would — no cleanup, no flush beyond the
        completed shard markers.
        """
        run_dir = tmp_path / "run"
        script = textwrap.dedent("""
            from repro.experiments.campaign import (
                matrix_from_spec, run_campaign)
            matrix = matrix_from_spec({spec!r})
            run_campaign(matrix, shards=5, run_dir={run_dir!r})
        """).format(spec=MATRIX_SPEC, run_dir=str(run_dir))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve()
                                  .parents[2] / "src"),
                   REPRO_CHAOS="shard-0002:*:kill")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 86, proc.stderr

        manifest = CampaignManifest.resume(run_dir, fleet_matrix(), 5)
        # Serial shard order: everything before the kill point is
        # journaled, nothing at or after it.
        assert set(manifest.completed_names()) == \
            {"shard-0000", "shard-0001"}

        registry = MetricsRegistry()
        with use_metrics(registry):
            resumed = run_campaign(fleet_matrix(), shards=5,
                                   run_dir=run_dir, resume=True)
        assert registry.counter(SHARDS_COMPLETED_METRIC).value == 3
        assert resumed.trials == 65
        assert resumed.aggregates_json() == fleet_reference.aggregates_json()


# ---------------------------------------------------------------------------
# Matrix specs (the CLI's JSON input)
# ---------------------------------------------------------------------------

class TestMatrixFromSpec:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix spec keys"):
            matrix_from_spec(dict(MATRIX_SPEC, shards=8))

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            matrix_from_spec({"name": "fleet"})

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            matrix_from_spec(dict(MATRIX_SPEC, scale="galactic"))

    def test_device_entries_and_overrides(self):
        matrix = matrix_from_spec({
            "name": "mini", "scenario": "notification",
            "scale": "smoke", "seed": 99, "faults": "mild",
            "devices": ["pixel 2", ["mi8", "10"]],
            "trials": 2,
        })
        assert matrix.scale.seed == 99
        assert matrix.scale.faults == "mild"
        assert [d.key for d in matrix.resolved_devices()] == [
            "Google pixel 2 (Android 11)", "Xiaomi mi8 (Android 10)"]
        assert len(matrix) == 4

    def test_spec_matches_hand_built_matrix(self):
        by_hand = ScenarioMatrix(
            name="fleet", scenario="notification",
            scale=QUICK.with_seed(7), versions=("9",),
            configs=({"attacking_window_ms": 100.0},),
            trials=5, base_params={"duration_ms": 400.0})
        assert matrix_fingerprint(by_hand) == \
            matrix_fingerprint(fleet_matrix())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCliCampaign:
    def _run_cli(self, *argv, chaos_spec=None):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve()
                                  .parents[2] / "src"))
        env.pop("REPRO_CHAOS", None)
        if chaos_spec is not None:
            env["REPRO_CHAOS"] = chaos_spec
        return subprocess.run(
            [sys.executable, "-m", "repro", "campaign", *argv],
            env=env, capture_output=True, text=True, timeout=600)

    def _spec_path(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(MATRIX_SPEC))
        return path

    def test_cli_shard_independence(self, tmp_path):
        spec = self._spec_path(tmp_path)
        serial, sharded = tmp_path / "serial.json", tmp_path / "sharded.json"
        one = self._run_cli("--matrix", str(spec), "--shards", "1",
                            "--out", str(serial))
        many = self._run_cli("--matrix", str(spec), "--shards", "5",
                             "--jobs", "2", "--out", str(sharded))
        assert one.returncode == 0, one.stderr
        assert many.returncode == 0, many.stderr
        assert serial.read_bytes() == sharded.read_bytes()
        assert "campaign fleet: 65/65 trials" in many.stdout

    def test_cli_failed_shard_exits_nonzero(self, tmp_path):
        spec = self._spec_path(tmp_path)
        proc = self._run_cli("--matrix", str(spec), "--shards", "5",
                             chaos_spec="shard-0001:*:crash")
        assert proc.returncode == 1
        assert "shard-0001" in proc.stderr

    def test_cli_resume_run_dir_conflict(self, tmp_path):
        spec = self._spec_path(tmp_path)
        proc = self._run_cli("--matrix", str(spec),
                             "--run-dir", str(tmp_path / "a"),
                             "--resume", str(tmp_path / "b"))
        assert proc.returncode == 2

    def test_cli_bad_spec_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        proc = self._run_cli("--matrix", str(path))
        assert proc.returncode == 2
        assert "bad matrix spec" in proc.stderr
