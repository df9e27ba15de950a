"""Offline run-directory verification: ``fsck_run_dir`` and the CLI."""

import pytest

from repro.cli import main
from repro.experiments import QUICK, experiment_names
from repro.experiments.campaign import (
    CampaignManifest,
    matrix_from_spec,
    shard_name,
)
from repro.experiments.parallel import CACHE_VERSION
from repro.experiments.resilience import (
    JournalError,
    RunJournal,
    make_failure,
)
from repro.storage import format_fsck, fsck_run_dir


def _journaled_run(tmp_path, names=("good",)):
    journal = RunJournal.create(tmp_path, QUICK, CACHE_VERSION)
    for name in names:
        journal.store(name, {"rows": [1, 2, 3]})
    return journal


def _campaign_dir(tmp_path, shards=2, completed=(0,)):
    matrix = matrix_from_spec({"name": "fleet", "scenario": "notification"})
    manifest = CampaignManifest.create(tmp_path, matrix, shards)
    for index in completed:
        manifest.store(shard_name(index), {"shard": index})
    return tmp_path


class TestFsckRunDir:
    def test_clean_run_directory(self, tmp_path):
        name = experiment_names()[0]
        _journaled_run(tmp_path, names=(name,))
        report = fsck_run_dir(tmp_path)
        assert report.ok
        assert report.kind == "run"
        assert report.results_checked == 1
        assert report.issues == () and report.orphans == ()
        assert format_fsck(report).endswith("clean\n")

    def test_corrupt_marker_is_flagged(self, tmp_path):
        name = experiment_names()[0]
        journal = _journaled_run(tmp_path, names=(name,))
        path = journal.result_path(name)
        path.write_bytes(path.read_bytes()[:-7])  # truncate: checksum dies
        report = fsck_run_dir(tmp_path)
        assert not report.ok
        (issue,) = report.issues
        assert issue.path == f"results/{name}.pkl"
        assert "problem" in format_fsck(report)

    def test_marker_outside_the_plan_is_flagged(self, tmp_path):
        _journaled_run(tmp_path, names=("no-such-experiment",))
        report = fsck_run_dir(tmp_path)
        assert not report.ok
        assert "outside the journaled plan" in report.issues[0].problem

    def test_campaign_marker_outside_shard_plan(self, tmp_path):
        _campaign_dir(tmp_path, shards=2, completed=(0, 5))
        report = fsck_run_dir(tmp_path)
        assert not report.ok
        (issue,) = report.issues
        assert issue.path == "results/shard-0005.pkl"

    def test_clean_campaign_directory(self, tmp_path):
        _campaign_dir(tmp_path, shards=2, completed=(0, 1))
        report = fsck_run_dir(tmp_path)
        assert report.ok and report.kind == "campaign"
        assert report.results_checked == 2

    def test_bad_failure_record_is_flagged(self, tmp_path):
        journal = _journaled_run(tmp_path, names=())
        journal.store_failure(
            make_failure("broken", RuntimeError("boom"), 2, 0.5))
        (tmp_path / "failures" / "scrambled.json").write_text("{nope")
        report = fsck_run_dir(tmp_path)
        assert report.failures_checked == 2
        (issue,) = report.issues
        assert issue.path == "failures/scrambled.json"

    def test_orphans_listed_but_do_not_fail(self, tmp_path):
        _journaled_run(tmp_path, names=())
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "half.pkl.abc123.tmp").write_bytes(b"x")
        report = fsck_run_dir(tmp_path)
        assert report.ok
        assert report.orphans == ("results/half.pkl.abc123.tmp",)
        assert report.swept == 0

    def test_sweep_removes_orphans(self, tmp_path):
        _journaled_run(tmp_path, names=())
        (tmp_path / "results").mkdir()
        orphan = tmp_path / "results" / "half.pkl.abc123.tmp"
        orphan.write_bytes(b"x")
        report = fsck_run_dir(tmp_path, sweep=True)
        assert report.swept == 1 and not orphan.exists()

    def test_not_a_run_directory(self, tmp_path):
        with pytest.raises(JournalError, match="neither"):
            fsck_run_dir(tmp_path)
        with pytest.raises(JournalError, match="not a run directory"):
            fsck_run_dir(tmp_path / "absent")

    def test_unreadable_manifest(self, tmp_path):
        (tmp_path / "run.json").write_text("{broken")
        with pytest.raises(JournalError, match="unreadable"):
            fsck_run_dir(tmp_path)

    def test_manifest_without_version(self, tmp_path):
        (tmp_path / "run.json").write_text(
            '{"kind": "run", "plan": [], "identity": {"scale": {}}}')
        with pytest.raises(JournalError, match="usable version"):
            fsck_run_dir(tmp_path)


class TestFsckCli:
    def test_clean_exits_zero(self, tmp_path, capsys):
        name = experiment_names()[0]
        _journaled_run(tmp_path, names=(name,))
        assert main(["fsck", "--run-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "1 checked, 0 bad" in out

    def test_problems_exit_one(self, tmp_path, capsys):
        name = experiment_names()[0]
        journal = _journaled_run(tmp_path, names=(name,))
        journal.result_path(name).write_bytes(b"garbage")
        assert main(["fsck", "--run-dir", str(tmp_path)]) == 1
        assert "PROBLEM" in capsys.readouterr().out

    def test_unusable_directory_exits_two(self, tmp_path, capsys):
        assert main(["fsck", "--run-dir", str(tmp_path)]) == 2

    def test_sweep_flag(self, tmp_path, capsys):
        _journaled_run(tmp_path, names=())
        orphan = tmp_path / "stale.json.xyz.tmp"
        orphan.write_bytes(b"x")
        assert main(["fsck", "--run-dir", str(tmp_path), "--sweep"]) == 0
        assert not orphan.exists()
        assert "1 swept" in capsys.readouterr().out
