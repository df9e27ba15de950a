"""Tests for the typed ExperimentRequest path through the api facade."""

import warnings

import pytest

from repro.api import run_experiment
from repro.devices import DEVICES
from repro.experiments import SMOKE, ExperimentRequest


class TestValidation:
    def test_unknown_experiment_rejected_eagerly(self):
        with pytest.raises(KeyError, match="unknown experiment 'fig99'"):
            ExperimentRequest(name="fig99")

    def test_unknown_fault_profile_rejected(self):
        with pytest.raises(ValueError, match="fault"):
            ExperimentRequest(name="fig2", faults="meteor-strike")

    def test_round_trips_through_dict(self):
        request = ExperimentRequest(name="fig6", scale=SMOKE,
                                    derive_seed=False,
                                    params={"trial_ms": 2500.0})
        assert ExperimentRequest.from_dict(request.to_dict()) == request


class TestFacade:
    def test_typed_form_matches_legacy_string_form(self):
        typed = run_experiment(ExperimentRequest(
            name="fig2", scale=SMOKE, derive_seed=False))
        legacy = run_experiment("fig2", scale=SMOKE, derive_seed=False)
        assert typed == legacy

    def test_request_plus_loose_arguments_is_a_type_error(self):
        request = ExperimentRequest(name="fig2")
        with pytest.raises(TypeError, match="not alongside it"):
            run_experiment(request, scale=SMOKE)
        with pytest.raises(TypeError, match="not alongside it"):
            run_experiment(request, derive_seed=False)

    def test_loose_params_are_a_type_error(self):
        # Experiment params travel only on an ExperimentRequest.
        with pytest.raises(TypeError):
            run_experiment("fig6", scale=SMOKE, derive_seed=False,
                           trial_ms=2500.0)

    def test_scale_only_legacy_form_stays_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_experiment("fig2", scale=SMOKE, derive_seed=False)


#: One params path per experiment: (name, params, probe, expected probe).
_PARAMS_CASES = [
    ("fig6", {"durations": (50.0, 400.0), "trial_ms": 1500.0},
     lambda r: tuple(d for d, _ in r.outcomes), (50.0, 400.0)),
    ("table2", {"profiles": DEVICES[:2]},
     lambda r: len(r.rows), 2),
    ("fig7", {"durations": (50.0, 100.0, 200.0)},
     lambda r: tuple(s.attacking_window_ms for s in r.stats),
     (50.0, 100.0, 200.0)),
    ("fig8", {"durations": (75.0, 150.0)},
     lambda r: r.durations, (75.0, 150.0)),
    ("table3", {"lengths": (4, 8)},
     lambda r: tuple(row.length for row in r.rows), (4, 8)),
    ("defense_ipc", {"durations": (100.0, 250.0),
                     "benign_observation_ms": 10_000.0},
     lambda r: tuple(t.attacking_window_ms for t in r.trials),
     (100.0, 250.0)),
]


@pytest.mark.parametrize("name, params, probe, expected", _PARAMS_CASES,
                         ids=[case[0] for case in _PARAMS_CASES])
def test_request_params_reach_the_runner(name, params, probe, expected):
    result = run_experiment(ExperimentRequest(
        name=name, scale=SMOKE, derive_seed=False, params=params))
    assert probe(result) == expected
