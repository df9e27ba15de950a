"""DurableStore policy under every fault mode, on every surface.

The load-bearing invariant — proved property-style across the whole
fault matrix — is that **torn data never parses**: whatever fault fires
during a write, a later read either yields the intact payload, a miss,
or a typed integrity error. There is no path to silently serving
corrupt bytes.
"""

import errno

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.storage import (
    CHAOS_ENV,
    CacheIntegrityError,
    FS_FAULTS_METRIC,
    FS_MODES,
    FS_WRITE_ERRORS_METRIC,
    DurableStore,
    InjectedFsError,
    SimulatedCrash,
    atomic_write_bytes,
    decode_envelope,
    encode_envelope,
    fs_chaos,
    fsync_default,
    reset_fs_fault_counters,
)

SURFACES = ("cache", "journal", "campaign", "query-cache", "ledger")


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    reset_fs_fault_counters()
    yield
    reset_fs_fault_counters()


class TestAtomicWriteBytes:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "deep" / "a.bin"
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"

    def test_overwrite_is_atomic_rename(self, tmp_path):
        target = tmp_path / "a.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failure_unlinks_the_temp_file(self, tmp_path):
        target = tmp_path / "a.bin"
        with pytest.raises(InjectedFsError):
            atomic_write_bytes(target, b"data", _inject="rename")
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_leaves_the_orphan(self, tmp_path):
        target = tmp_path / "a.bin"
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"data", _inject="crash")
        assert not target.exists()
        assert len(list(tmp_path.glob("*.tmp"))) == 1

    def test_fsync_mode_still_round_trips(self, tmp_path):
        target = tmp_path / "a.bin"
        atomic_write_bytes(target, b"durable", fsync=True)
        assert target.read_bytes() == b"durable"

    def test_fsync_default_follows_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FSYNC", raising=False)
        assert fsync_default() is False
        monkeypatch.setenv("REPRO_FSYNC", "1")
        assert fsync_default() is True
        monkeypatch.setenv("REPRO_FSYNC", "0")
        assert fsync_default() is False


class TestNoTornDataEverParses:
    """The fault-matrix property behind resumability: whatever fault
    fires on whatever surface, the bytes a reader sees are the intact
    envelope or a detectable non-answer — never a plausible lie."""

    @settings(max_examples=120, deadline=None)
    @given(
        surface=st.sampled_from(SURFACES),
        mode=st.sampled_from(FS_MODES),
        required=st.booleans(),
        payload=st.binary(min_size=0, max_size=2048),
    )
    def test_fault_matrix(self, tmp_path_factory, surface, mode, required,
                          payload):
        directory = tmp_path_factory.mktemp("matrix")
        target = directory / "entry.pkl"
        data = encode_envelope(1, payload)
        store = DurableStore(surface, required=required)
        with fs_chaos(f"fs:{surface}:write:{mode}:1"):
            landed = None
            error = None
            try:
                landed = store.write_bytes(target, data)
            except OSError as exc:
                error = exc
        assert store.faults_injected == 1

        if mode == "torn":
            assert landed is True  # the insidious "success"
        elif required:
            assert isinstance(error, InjectedFsError)
        else:
            assert landed is False and error is None

        # Disarmed read-back: intact, miss, or typed integrity error.
        raw = DurableStore(surface, required=required).read_bytes(target)
        if raw is not None:
            try:
                decoded = decode_envelope(1, raw)
            except CacheIntegrityError:
                assert mode == "torn"
            else:
                assert decoded == payload
        # Crash wreckage is confined to identifiable .tmp orphans.
        orphans = list(directory.glob("*.tmp"))
        if mode == "crash":
            assert len(orphans) == 1
        else:
            assert orphans == []


class TestWritePolicy:
    def test_required_enospc_raises_with_faithful_errno(self, tmp_path):
        store = DurableStore("journal", required=True)
        with fs_chaos("fs:journal:write:enospc"):
            with pytest.raises(OSError) as exc_info:
                store.write_bytes(tmp_path / "m.json", b"{}")
        assert exc_info.value.errno == errno.ENOSPC
        assert store.write_errors == 1

    def test_optional_surface_degrades_to_false(self, tmp_path):
        registry = MetricsRegistry()
        store = DurableStore("cache", required=False, registry=registry)
        with fs_chaos("fs:cache:write:eio"):
            assert store.write_bytes(tmp_path / "c.pkl", b"x") is False
        assert store.write_errors == 1
        assert registry.counter(FS_FAULTS_METRIC).value == 1.0
        assert registry.counter(FS_WRITE_ERRORS_METRIC).value == 1.0

    def test_torn_write_counts_a_fault_but_no_error(self, tmp_path):
        registry = MetricsRegistry()
        store = DurableStore("cache", required=False, registry=registry)
        target = tmp_path / "c.pkl"
        with fs_chaos("fs:cache:write:torn"):
            assert store.write_bytes(target, b"0123456789") is True
        assert target.read_bytes() == b"01234"
        assert registry.counter(FS_FAULTS_METRIC).value == 1.0
        assert registry.counter(FS_WRITE_ERRORS_METRIC).value == 0.0

    def test_rename_fault_leaves_no_trace(self, tmp_path):
        store = DurableStore("cache", required=False)
        with fs_chaos("fs:cache:write:rename"):
            assert store.write_bytes(tmp_path / "c.pkl", b"x") is False
        assert list(tmp_path.iterdir()) == []

    def test_real_oserror_follows_the_same_policy(self, tmp_path):
        # A genuine failure (target directory is a file) — not injected.
        blocker = tmp_path / "dir"
        blocker.write_text("not a directory")
        optional = DurableStore("cache", required=False)
        assert optional.write_bytes(blocker / "c.pkl", b"x") is False
        required = DurableStore("journal", required=True)
        with pytest.raises(OSError):
            required.write_bytes(blocker / "m.json", b"{}")


class TestReadPolicy:
    def test_missing_file_is_a_miss(self, tmp_path):
        assert DurableStore("cache").read_bytes(tmp_path / "no.pkl") is None

    def test_injected_read_eio_is_a_miss_even_when_required(self, tmp_path):
        target = tmp_path / "m.json"
        target.write_bytes(b"{}")
        store = DurableStore("journal", required=True)
        with fs_chaos("fs:journal:read:eio:1"):
            assert store.read_bytes(target) is None
            assert store.read_bytes(target) == b"{}"  # only the 1st
        assert store.read_errors == 1

    def test_intact_round_trip(self, tmp_path):
        store = DurableStore("cache")
        target = tmp_path / "c.pkl"
        assert store.write_bytes(target, b"bytes") is True
        assert store.read_bytes(target) == b"bytes"


class TestSweepOrphans:
    def test_sweeps_only_tmp_files(self, tmp_path):
        store = DurableStore("journal")
        with fs_chaos("fs:journal:write:crash"):
            with pytest.raises(SimulatedCrash):
                store.write_bytes(tmp_path / "m.json", b"{}")
        (tmp_path / "keep.pkl").write_bytes(b"marker")
        assert store.sweep_orphans(tmp_path) == 1
        assert store.orphans_swept == 1
        assert [p.name for p in tmp_path.iterdir()] == ["keep.pkl"]

    def test_missing_directories_are_tolerated(self, tmp_path):
        store = DurableStore("journal")
        assert store.sweep_orphans(tmp_path / "absent", tmp_path) == 0
