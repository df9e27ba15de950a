"""Tests for the typed ExperimentRequest path through the api facade."""

import warnings

import pytest

from repro.api import run_experiment
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
