"""Golden-report regression test.

``format_report(run_all(QUICK))`` is rendered and diffed byte-for-byte
against the checked-in snapshot. The suite is deterministic, so any drift
means an experiment, a seed derivation, or the report formatter changed
behaviour — which must be a deliberate decision.

To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_golden_report.py

then review the diff of ``tests/experiments/golden/report_quick.md`` and
commit it alongside the change that caused it. Regeneration refuses to
write while any paper claim valid at QUICK fails (or its experiment is
missing) on the run being snapshotted: a snapshot records agreement with
the paper, not whatever the code currently prints.
"""

import difflib
import os
from pathlib import Path

import pytest

from repro.experiments import claims, format_report

GOLDEN_REPORT = Path(__file__).parent / "golden" / "report_quick.md"


def test_quick_report_matches_golden(quick_serial_results):
    report = format_report(quick_serial_results)
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        broken = [v.claim.name for v in claims.evaluate(quick_serial_results)
                  if v.status in (claims.FAIL, claims.MISSING)]
        if broken:
            pytest.fail("refusing to regenerate the golden report while "
                        "these claims fail: " + "; ".join(broken))
        GOLDEN_REPORT.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_REPORT.write_text(report)
        pytest.skip(f"regenerated {GOLDEN_REPORT}")
    assert GOLDEN_REPORT.exists(), (
        f"missing golden snapshot {GOLDEN_REPORT}; generate it with "
        "REPRO_REGEN_GOLDEN=1"
    )
    golden = GOLDEN_REPORT.read_text()
    if report != golden:
        diff = "\n".join(difflib.unified_diff(
            golden.splitlines(), report.splitlines(),
            fromfile="golden/report_quick.md", tofile="current",
            lineterm="", n=2,
        ))
        pytest.fail(
            "QUICK report drifted from the golden snapshot. If this is an "
            "intentional behaviour change, regenerate with "
            "REPRO_REGEN_GOLDEN=1 and commit the new snapshot.\n" + diff
        )


def test_noise_sensitivity_is_snapshot_covered(quick_serial_results):
    # The fault-injection sweep is part of the QUICK report, so the golden
    # diff catches any drift in its numbers too.
    report = format_report(quick_serial_results)
    assert "## Noise sensitivity (fault injection)" in report
    noise = quick_serial_results.noise_sensitivity
    assert noise.degradation_is_monotonic
    # The factor-0 point runs with the fault layer absent and must equal
    # the no-fault baseline bit for bit, not approximately.
    assert noise.point_at(0.0).capture_rate == noise.baseline_capture_rate


def test_golden_report_has_no_timing_appendix(quick_serial_results):
    # Wall times vary run to run; the golden rendering must exclude them,
    # and the opt-in rendering must include them.
    assert "Runner timings" not in format_report(quick_serial_results)
    timed = format_report(quick_serial_results, include_timings=True)
    assert "Runner timings" in timed


def test_regeneration_refuses_while_a_claim_fails(quick_serial_results,
                                                  monkeypatch, tmp_path):
    impossible = claims.Claim("fig7", "Fig 7", "impossible", lambda r: 0,
                              lambda v: False)
    monkeypatch.setattr(claims, "CLAIMS", claims.CLAIMS + (impossible,))
    target = tmp_path / "golden" / "report_quick.md"
    monkeypatch.setitem(globals(), "GOLDEN_REPORT", target)
    monkeypatch.setenv("REPRO_REGEN_GOLDEN", "1")
    with pytest.raises(pytest.fail.Exception, match="Fig 7: impossible"):
        test_quick_report_matches_golden(quick_serial_results)
    assert not target.parent.exists()
    monkeypatch.setattr(claims, "CLAIMS", claims.CLAIMS[:-1])
    with pytest.raises(pytest.skip.Exception):
        test_quick_report_matches_golden(quick_serial_results)
    assert target.read_text() == format_report(quick_serial_results)
