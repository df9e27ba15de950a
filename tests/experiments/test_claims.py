"""Every paper claim, checked against the session's SMOKE and QUICK runs.

A claim whose ``min_scale`` is at or below the bundle's scale must read
``pass``; one above it must read ``partial``, so no claim is silently
skipped. ``python -m repro claims --scale full`` checks the FULL-only ones.
"""

from collections import Counter

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.claims import (
    CLAIMS,
    MISSING,
    PARTIAL,
    PASS,
    Claim,
    evaluate,
)
from repro.experiments.config import SCALES

BUNDLES = ("smoke_clean_results", "quick_serial_results")
IMPOSSIBLE = Claim("fig2", "Fig 2", "impossible", lambda r: 1, lambda v: False)
_ORDER = list(SCALES)


def _claim_ids():
    seen = Counter()
    ids = []
    for claim in CLAIMS:
        ids.append(f"{claim.experiment}-{seen[claim.experiment]}")
        seen[claim.experiment] += 1
    return ids


@pytest.mark.parametrize("bundle", BUNDLES)
@pytest.mark.parametrize("index", range(len(CLAIMS)), ids=_claim_ids())
def test_claim(index, bundle, request):
    results = request.getfixturevalue(bundle)
    verdict = evaluate(results)[index]
    claim = verdict.claim
    valid = _ORDER.index(claim.min_scale) <= _ORDER.index(results.scale_name)
    assert verdict.status == (PASS if valid else PARTIAL), (
        f"{claim.name}: measured {verdict.value!r} at {results.scale_name}")


def test_every_experiment_has_a_claim():
    registered = {spec.name for spec in EXPERIMENTS}
    claimed = {claim.experiment for claim in CLAIMS}
    assert claimed - registered == set()
    assert registered - claimed == set()
    assert all(claim.min_scale in SCALES for claim in CLAIMS)


@pytest.mark.parametrize("bundle", BUNDLES)
def test_table3_attempts_follow_the_protocol(bundle, request):
    results = request.getfixturevalue(bundle)
    scale = SCALES[results.scale_name]
    for row in results.table3.rows:
        assert row.attempts == scale.participants * scale.passwords_per_length


def test_missing_experiment_and_custom_scale_never_pass(smoke_clean_results):
    results = smoke_clean_results
    dropped = type(results)(
        scale_name="custom",
        results={k: v for k, v in results.results.items() if k != "fig7"})
    statuses = {(v.claim.experiment, v.status) for v in evaluate(dropped)}
    assert ("fig7", MISSING) in statuses
    assert {status for _, status in statuses} == {MISSING, PARTIAL}


def test_cli_prints_the_summary_and_exits_1_on_a_failure(
        quick_serial_results, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setattr("repro.experiments.run_all",
                        lambda scale, jobs: quick_serial_results)
    assert main(["claims", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "partial (needs full)" in out
    assert out.rstrip().endswith(" 0 fail, 0 missing.")
    monkeypatch.setattr("repro.experiments.claims.CLAIMS",
                        CLAIMS + (IMPOSSIBLE,))
    assert main(["claims", "--scale", "quick"]) == 1
    out = capsys.readouterr().out
    assert "| Fig 2 | impossible | 1 | fail |" in out
    tally = out.rstrip().splitlines()[-1]
    assert tally.startswith(f"{len(CLAIMS) + 1} claims: ")
    assert tally.endswith(" 1 fail, 0 missing.")
