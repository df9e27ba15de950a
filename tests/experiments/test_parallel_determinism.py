"""Determinism harness: parallel ``run_all`` is bit-identical to serial.

The headline guarantee of the parallel runner (ISSUE 1): fanning the
suite out over worker processes, in any order, with any job count, yields
an :class:`AllResults` that is experiment-for-experiment equal to the serial
reference run — and cache hits reproduce the same objects again.
"""

import dataclasses

import pytest

from repro.experiments import (
    EXPERIMENTS,
    QUICK,
    SMOKE,
    AllResults,
    experiment_names,
    run_all,
)


def assert_field_for_field_equal(actual: AllResults, expected: AllResults):
    """Compare per experiment so a failure names the experiment."""
    for name in experiment_names():
        assert getattr(actual, name) == getattr(expected, name), (
            f"experiment {name!r} differs between parallel and serial runs"
        )
    assert actual == expected


@pytest.fixture(scope="module")
def quick_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("repro-cache")


@pytest.fixture(scope="module")
def quick_parallel2(quick_cache_dir):
    """jobs=2 QUICK run; also populates the cache for the hit tests."""
    return run_all(QUICK, jobs=2, cache_dir=quick_cache_dir)


class TestParallelEqualsSerial:
    def test_jobs2_equals_serial(self, quick_parallel2, quick_serial_results):
        assert_field_for_field_equal(quick_parallel2, quick_serial_results)

    def test_jobs4_equals_serial(self, quick_serial_results):
        assert_field_for_field_equal(
            run_all(QUICK, jobs=4), quick_serial_results
        )

    def test_serial_is_repeatable_in_process(self, quick_serial_results):
        # Guards the global-id-allocator reset: a second in-process run
        # must not see state leaked by the first.
        assert run_all(QUICK) == quick_serial_results

    def test_timings_cover_every_experiment(self, quick_parallel2):
        assert [t.name for t in quick_parallel2.timings] == [
            spec.name for spec in EXPERIMENTS
        ]

    def test_timings_do_not_affect_equality(self, quick_serial_results):
        stripped = dataclasses.replace(quick_serial_results, timings=None)
        assert stripped == quick_serial_results


class TestResultCache:
    def test_cache_hits_reproduce_identical_results(
        self, quick_cache_dir, quick_parallel2, quick_serial_results
    ):
        rerun = run_all(QUICK, jobs=2, cache_dir=quick_cache_dir)
        assert all(t.cached for t in rerun.timings)
        assert_field_for_field_equal(rerun, quick_parallel2)
        assert_field_for_field_equal(rerun, quick_serial_results)

    def test_cache_is_scale_keyed(self, quick_cache_dir):
        # A different scale must miss the QUICK-populated cache.
        smoke = run_all(SMOKE, jobs=1, cache_dir=quick_cache_dir)
        assert not any(t.cached for t in smoke.timings)
        assert all(t.cached for t in
                   run_all(SMOKE, jobs=1, cache_dir=quick_cache_dir).timings)

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        from repro.experiments import ResultCache

        cache = ResultCache(tmp_path)
        first = run_all(SMOKE, cache_dir=tmp_path)
        victim = cache.path_for("fig7", SMOKE)
        assert victim.exists()
        victim.write_bytes(b"not a pickle")
        rerun = run_all(SMOKE, cache_dir=tmp_path)
        by_name = {t.name: t for t in rerun.timings}
        assert not by_name["fig7"].cached
        assert by_name["table2"].cached
        assert rerun == first


class TestFaultedScales:
    """The whole suite survives ``--faults adversarial`` deterministically."""

    @pytest.fixture(scope="class")
    def adversarial_smoke(self):
        return SMOKE.with_faults("adversarial")

    @pytest.fixture(scope="class")
    def adversarial_results(self, adversarial_smoke):
        return run_all(adversarial_smoke)

    def test_adversarial_run_is_deterministic(
        self, adversarial_smoke, adversarial_results
    ):
        assert run_all(adversarial_smoke) == adversarial_results

    def test_adversarial_jobs2_equals_serial(
        self, adversarial_smoke, adversarial_results
    ):
        assert_field_for_field_equal(
            run_all(adversarial_smoke, jobs=2), adversarial_results
        )

    def test_faults_are_part_of_the_cache_key(self, adversarial_smoke, tmp_path):
        from repro.experiments import ResultCache

        cache = ResultCache(tmp_path)
        assert (cache.path_for("fig7", SMOKE)
                != cache.path_for("fig7", adversarial_smoke))

    def test_faults_do_not_shift_seed_partitioning(self, adversarial_smoke):
        # The fault regime is an execution condition, not an input stream:
        # derived per-experiment seeds must match the fault-free scale so a
        # faulted run replays the same typing/latency draws, differing only
        # by the injected faults.
        for spec in EXPERIMENTS:
            assert (adversarial_smoke.for_experiment(spec.name).seed
                    == SMOKE.for_experiment(spec.name).seed)


class TestSeedPartitioning:
    def test_each_experiment_gets_a_distinct_seed(self):
        seeds = {
            spec.name: QUICK.for_experiment(spec.name).seed
            for spec in EXPERIMENTS
        }
        assert len(set(seeds.values())) == len(seeds)
        assert all(seed != QUICK.seed for seed in seeds.values())

    def test_derivation_is_stable_across_calls(self):
        for spec in EXPERIMENTS:
            assert (QUICK.for_experiment(spec.name)
                    == QUICK.for_experiment(spec.name))

    def test_derivation_depends_on_base_seed_and_scale_name(self):
        reseeded = QUICK.with_seed(1)
        assert (QUICK.for_experiment("fig7").seed
                != reseeded.for_experiment("fig7").seed)
        assert (QUICK.for_experiment("fig7").seed
                != SMOKE.for_experiment("fig7").seed)

    def test_only_the_seed_changes(self):
        derived = QUICK.for_experiment("table3")
        assert dataclasses.replace(derived, seed=QUICK.seed) == QUICK
