"""Hardened result-cache tests: every corruption degrades to a miss.

The cache persists pickle payloads inside a checksummed envelope
(magic + ``CACHE_VERSION`` header + sha256). These tests feed it every
flavor of bad bytes — corruption, truncation, checksum mismatch, stale
version, foreign files — and assert the reader *never* raises and never
returns garbage: a bad entry is a miss, counted on
``integrity_rejects`` and the ambient ``cache_integrity_rejects_total``
metric. Writer tests pin the collision-free temp-file discipline that
lets concurrent ``run_all`` invocations share one cache directory.
"""

import hashlib
import pickle
import threading

import pytest

from repro.experiments import CacheIntegrityError, ResultCache, SMOKE
from repro.experiments.parallel import CACHE_VERSION
from repro.experiments.resilience import CACHE_REJECTS_METRIC
from repro.storage import (
    ENVELOPE_MAGIC,
    atomic_write_bytes,
    decode_envelope,
    encode_envelope,
)
from repro.obs import MetricsRegistry, use_metrics


PAYLOAD = {"rows": [1, 2, 3], "label": "fig7"}


class TestEnvelope:
    def test_roundtrip(self):
        data = encode_envelope(CACHE_VERSION, PAYLOAD)
        assert data.startswith(ENVELOPE_MAGIC)
        assert decode_envelope(CACHE_VERSION, data) == PAYLOAD

    def test_missing_magic(self):
        with pytest.raises(CacheIntegrityError, match="magic"):
            decode_envelope(CACHE_VERSION, pickle.dumps(PAYLOAD))

    def test_truncated_header(self):
        with pytest.raises(CacheIntegrityError, match="truncated"):
            decode_envelope(CACHE_VERSION, ENVELOPE_MAGIC + b"v4 sha256:ab")

    def test_malformed_header(self):
        bad = ENVELOPE_MAGIC + b"not a header\n" + b"payload"
        with pytest.raises(CacheIntegrityError, match="malformed"):
            decode_envelope(CACHE_VERSION, bad)

    def test_stale_version(self):
        data = encode_envelope(CACHE_VERSION - 1, PAYLOAD)
        with pytest.raises(CacheIntegrityError, match="stale"):
            decode_envelope(CACHE_VERSION, data)

    def test_checksum_mismatch(self):
        data = encode_envelope(CACHE_VERSION, PAYLOAD)
        flipped = data[:-1] + bytes([data[-1] ^ 0xFF])
        with pytest.raises(CacheIntegrityError, match="checksum"):
            decode_envelope(CACHE_VERSION, flipped)

    def test_truncated_payload(self):
        data = encode_envelope(CACHE_VERSION, PAYLOAD)
        with pytest.raises(CacheIntegrityError, match="checksum"):
            decode_envelope(CACHE_VERSION, data[:-5])

    def test_checksummed_but_unpicklable_payload(self):
        # A correctly checksummed envelope whose payload is not a pickle:
        # the checksum passes, the unpickle must still be contained.
        payload = b"these bytes are not a pickle stream"
        digest = hashlib.sha256(payload).hexdigest()
        data = (ENVELOPE_MAGIC
                + f"v{CACHE_VERSION} sha256:{digest}\n".encode("ascii")
                + payload)
        with pytest.raises(CacheIntegrityError, match="unpickle"):
            decode_envelope(CACHE_VERSION, data)


class TestCacheDegradesToMiss:
    """Every corruption mode: ``load`` returns None, never raises."""

    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(tmp_path)

    def _corrupt(self, cache, mutate):
        cache.store("fig7", SMOKE, PAYLOAD)
        path = cache.path_for("fig7", SMOKE)
        mutate(path)
        return cache.load("fig7", SMOKE)

    def test_clean_roundtrip(self, cache):
        cache.store("fig7", SMOKE, PAYLOAD)
        assert cache.load("fig7", SMOKE) == PAYLOAD
        assert cache.integrity_rejects == 0

    def test_corrupted_payload(self, cache):
        def flip_tail(path):
            data = path.read_bytes()
            path.write_bytes(data[:-3] + b"\x00\x00\x00")

        assert self._corrupt(cache, flip_tail) is None
        assert cache.integrity_rejects == 1

    def test_truncated_file(self, cache):
        assert self._corrupt(
            cache, lambda p: p.write_bytes(p.read_bytes()[:20])) is None
        assert cache.integrity_rejects == 1

    def test_foreign_bytes(self, cache):
        assert self._corrupt(
            cache, lambda p: p.write_bytes(b"not a pickle")) is None
        assert cache.integrity_rejects == 1

    def test_empty_file(self, cache):
        assert self._corrupt(cache, lambda p: p.write_bytes(b"")) is None
        assert cache.integrity_rejects == 1

    def test_pre_envelope_entry(self, cache):
        # A v3-era cache file was a bare pickle; it must read as a miss,
        # not resurface as a stale result.
        def bare_pickle(path):
            path.write_bytes(pickle.dumps(PAYLOAD))

        assert self._corrupt(cache, bare_pickle) is None
        assert cache.integrity_rejects == 1

    def test_stale_cache_version(self, cache):
        def old_version(path):
            path.write_bytes(encode_envelope(CACHE_VERSION - 1, PAYLOAD))

        assert self._corrupt(cache, old_version) is None
        assert cache.integrity_rejects == 1

    def test_missing_file_is_plain_miss(self, cache):
        assert cache.load("fig7", SMOKE) is None
        assert cache.integrity_rejects == 0

    def test_reject_feeds_ambient_metric(self, cache):
        registry = MetricsRegistry()
        cache.store("fig7", SMOKE, PAYLOAD)
        cache.path_for("fig7", SMOKE).write_bytes(b"garbage")
        with use_metrics(registry):
            assert cache.load("fig7", SMOKE) is None
        samples = {s.name: s.value for s in registry.samples()}
        assert samples[CACHE_REJECTS_METRIC] == 1

    def test_store_overwrites_corrupt_entry(self, cache):
        cache.store("fig7", SMOKE, PAYLOAD)
        cache.path_for("fig7", SMOKE).write_bytes(b"garbage")
        assert cache.load("fig7", SMOKE) is None
        cache.store("fig7", SMOKE, PAYLOAD)
        assert cache.load("fig7", SMOKE) == PAYLOAD


class TestAtomicWrites:
    def test_no_shared_tmp_name(self, tmp_path):
        """Regression for the ``path.with_suffix('.tmp')`` collision.

        Two writers publishing the same key must each use a private temp
        file: after an interleaved write, the destination holds one
        writer's complete bytes and no temp litter survives.
        """
        target = tmp_path / "entry.pkl"
        blob_a = encode_envelope(CACHE_VERSION, {"writer": "a"})
        blob_b = encode_envelope(CACHE_VERSION, {"writer": "b"})
        atomic_write_bytes(target, blob_a)
        atomic_write_bytes(target, blob_b)
        assert target.read_bytes() in (blob_a, blob_b)
        assert [p.name for p in tmp_path.iterdir()] == ["entry.pkl"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "entry.pkl"
        # A str is not a buffer, so the binary write raises mid-flight;
        # the temp file must be cleaned up, not leaked.
        with pytest.raises(TypeError):
            atomic_write_bytes(target, "not-bytes")  # type: ignore[arg-type]
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_writers_same_key(self, tmp_path):
        """N threads hammering one key: loads never raise, final state
        is one writer's complete envelope."""
        cache = ResultCache(tmp_path)
        errors = []

        def writer(tag):
            try:
                for i in range(25):
                    cache.store("fig7", SMOKE, {"writer": tag, "i": i})
                    cache.load("fig7", SMOKE)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        final = cache.load("fig7", SMOKE)
        assert final is not None and set(final) == {"writer", "i"}
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []

    def test_store_creates_parent_dirs(self, tmp_path):
        cache = ResultCache(tmp_path / "deep" / "nested")
        cache.store("fig7", SMOKE, PAYLOAD)
        assert cache.load("fig7", SMOKE) == PAYLOAD
