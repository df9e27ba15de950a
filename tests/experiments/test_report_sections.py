"""The report and the result bundle are driven by the experiment registry.

``format_report`` renders one section per ``EXPERIMENTS`` row and
``AllResults`` holds one ``results`` entry per completed experiment, so
dropping an entry from the session's clean SMOKE bundle (no re-run) is
enough to exercise every experiment's degraded rendering and the codec
of a degraded bundle.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.experiments import (
    EXPERIMENTS,
    AllResults,
    ExperimentFailure,
    experiment_names,
    format_report,
)


def _without(results: AllResults, name: str, failure=None) -> AllResults:
    kept = {key: value for key, value in results.results.items()
            if key != name}
    failures = (failure,) if failure is not None else ()
    return dataclasses.replace(results, results=kept, failures=failures)


@pytest.mark.parametrize("name", experiment_names())
def test_missing_result_renders_failed_block(smoke_clean_results, name):
    degraded = _without(smoke_clean_results, name)
    report = format_report(degraded)
    assert (f"**FAILED** — experiment `{name}` produced no result.\n\n"
            in report)
    for spec in EXPERIMENTS:
        result = degraded.results.get(spec.name)
        assert f"## {spec.section_heading(result)}\n\n" in report, spec.name
        if spec.name != name:
            assert spec.render(result) in report, spec.name


def test_degraded_bundle_round_trips_with_identical_report(
        smoke_clean_results):
    failure = ExperimentFailure(
        name="defense_notification", kind="exception",
        error="RuntimeError('boom')", traceback="Traceback ...",
        attempts=2, elapsed_seconds=0.25)
    degraded = _without(smoke_clean_results, "defense_notification",
                        failure)
    rebuilt = AllResults.from_dict(degraded.to_dict())
    assert rebuilt == degraded
    assert rebuilt.failures == degraded.failures
    assert list(rebuilt.results) == list(degraded.results)
    report = format_report(rebuilt)
    assert report == format_report(degraded)
    assert "1 of 21 experiments FAILED (`defense_notification`)" in report
    assert "after 2 attempt(s): RuntimeError('boom')" in report
    # Its block is a paragraph of its own, not a continuation of the IPC
    # detector's list item in the shared defenses section.
    assert "\n\n**FAILED** — experiment `defense_notification`" in report


def test_registered_names_read_as_attributes(smoke_clean_results):
    degraded = _without(smoke_clean_results, "fig7")
    assert degraded.table2 is smoke_clean_results.results["table2"]
    assert degraded.fig7 is None
    with pytest.raises(AttributeError):
        degraded.not_an_experiment  # noqa: B018


def test_bundle_pickles_and_copies(smoke_clean_results):
    assert pickle.loads(pickle.dumps(smoke_clean_results)) \
        == smoke_clean_results
    assert copy.deepcopy(smoke_clean_results) == smoke_clean_results
