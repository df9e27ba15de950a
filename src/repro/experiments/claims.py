"""The paper's claims as executable checks over one suite run.

Each :class:`Claim` row names an experiment of
:data:`~repro.experiments.parallel.EXPERIMENTS`, the paper artifact it
reproduces, the published value or shape (as text), an extractor over
that experiment's result, a predicate over the extracted value and the
smallest scale (a :data:`~repro.experiments.config.SCALES` key) at which
the predicate is expected to hold. :func:`evaluate` turns an
:class:`~repro.experiments.runner.AllResults` bundle into one
:class:`Verdict` per claim and :func:`render_summary` renders them as the
"Summary of agreement" table of EXPERIMENTS.md
(``python -m repro claims --scale full``).

A claim checked below its minimum scale reads ``partial``: its value is
shown but it never reads ``pass``. Small-sample runs (SMOKE, QUICK) are
too noisy for some shapes; Fig 7's monotone rise, for one, only holds at
the paper's 30 participants.

Nothing on ``run_all``'s import path imports this module; only the CLI's
``claims`` command and the tests do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, Tuple

from ..systemui import NotificationOutcome
from .config import SCALES

PASS = "pass"
FAIL = "fail"
#: The bundle's scale is below the claim's ``min_scale``.
PARTIAL = "partial"
#: The experiment failed and produced no result.
MISSING = "missing"

_RANK = {name: rank for rank, name in enumerate(SCALES)}


@dataclass(frozen=True)
class Claim:
    """One published value or shape, checked against one experiment."""

    #: An :data:`EXPERIMENTS` name.
    experiment: str
    #: The paper artifact, e.g. ``"Fig 7"``.
    artifact: str
    #: The published value or shape, as text.
    paper: str
    #: Extracts the checked value from the experiment's result.
    measure: Callable[[Any], Any]
    #: Whether the extracted value agrees with the paper.
    holds: Callable[[Any], bool]
    #: Smallest :data:`SCALES` key at which ``holds`` is expected.
    min_scale: str = "smoke"

    @property
    def name(self) -> str:
        return f"{self.artifact}: {self.paper}"


@dataclass(frozen=True)
class Verdict:
    """One claim checked against one suite run."""

    claim: Claim
    #: :data:`PASS`, :data:`FAIL`, :data:`PARTIAL` or :data:`MISSING`.
    status: str
    #: The measured value (``None`` when the experiment is missing).
    value: Any = None


def _labels(outcomes) -> Tuple[str, ...]:
    return tuple(sorted({outcome.label for outcome in outcomes}))


def _other_markers(result) -> Tuple[str, ...]:
    """Table IV markers of every app but Alipay."""
    return tuple(sorted({row.marker for row in result.rows
                         if row.app_name != "Alipay"}))


def _best_rule(result) -> Any:
    best = result.best_point()
    if best is None:
        return None
    return best.detection_rate, best.false_positive_rate


CLAIMS: Tuple[Claim, ...] = (
    Claim("fig2", "Fig 2", "<50% shown at 100 ms",
          lambda r: r.completeness_at_100ms, lambda v: v < 50.0),
    Claim("fig2", "Fig 2", "~0.17% shown at 10 ms (±0.05)",
          lambda r: r.completeness_at_10ms, lambda v: abs(v - 0.17) < 0.05),
    Claim("fig2", "Fig 2", "0 px of a 72 px view at 10 ms",
          lambda r: r.pixels_at_10ms_of_72px_view, lambda v: v == 0),
    Claim("fig2", "Fig 2", "slide-in runs 0% → 100%",
          lambda r: (r.curve.points[0][1], r.curve.points[-1][1]),
          lambda v: v[0] == 0.0 and abs(v[1] - 100.0) <= 1e-4),
    Claim("fig2", "Fig 2", "slide-in never recedes",
          lambda r: all(a[1] <= b[1] + 1e-9
                        for a, b in zip(r.curve.points, r.curve.points[1:])),
          bool),
    Claim("fig4", "Fig 4", "fade-out y=x² <10% at 100 ms",
          lambda r: r.accelerate.completeness_at(100.0), lambda v: v < 10.0),
    Claim("fig4", "Fig 4", "fade-in y=1−(1−x)² >30% at 100 ms",
          lambda r: r.decelerate.completeness_at(100.0), lambda v: v > 30.0),
    Claim("fig6", "Fig 6", "Λ ladder monotone in D",
          lambda r: r.is_monotone, bool),
    Claim("fig6", "Fig 6", "smallest D → Λ1",
          lambda r: r.outcomes[0][1].label, lambda v: v == "Λ1"),
    Claim("fig6", "Fig 6", "largest D → Λ5",
          lambda r: r.outcomes[-1][1].label, lambda v: v == "Λ5"),
    Claim("fig6", "Fig 6", "only Λ1 below 0.97 × Table II bound",
          lambda r: _labels(o for d, o in r.outcomes
                            if d < r.published_upper_bound_d * 0.97),
          lambda v: v == ("Λ1",)),
    Claim("table2", "Table II", "mean abs. error ≤ 10 ms (one frame)",
          lambda r: r.mean_abs_error_ms, lambda v: v <= 10.0),
    Claim("table2", "Table II", "max abs. error ≤ 20 ms (two frames)",
          lambda r: r.max_abs_error_ms, lambda v: v <= 20.0),
    Claim("table2", "Table II", "Android 10 bounds above 9 (ANA delay)",
          lambda r: (r.version_means()["10"], r.version_means()["9"]),
          lambda v: v[0] > v[1]),
    Claim("table2", "Table II", "Android 11 bounds above 8 (ANA delay)",
          lambda r: (r.version_means()["11"], r.version_means()["8"]),
          lambda v: v[0] > v[1]),
    Claim("load_impact", "§VI-B load", "0/3/5 apps shift the bound ≤ 10 ms",
          lambda r: r.max_shift_ms, lambda v: v <= 10.0),
    Claim("fig7", "Fig 7", "61.0% at D=50 ms (<85)",
          lambda r: r.means()[0], lambda v: v < 85.0),
    Claim("fig7", "Fig 7", "92.8% at D=200 ms (>85)",
          lambda r: r.means()[-1], lambda v: v > 85.0),
    Claim("fig7", "Fig 7", "D=50 ms captures less than D=200 ms",
          lambda r: (r.means()[0], r.means()[-1]), lambda v: v[0] < v[1]),
    Claim("fig7", "Fig 7", "capture rises with D (61.0→92.8%)",
          lambda r: r.is_increasing, bool, min_scale="full"),
    Claim("fig8", "Fig 8", "Android 10 captures less than 9",
          lambda r: (r.version_mean("10"), r.version_mean("9")),
          lambda v: v[0] < v[1]),
    Claim("fig8", "Fig 8", "Android 10 ≈90% at D=200 ms (80–97)",
          lambda r: r.by_version["10"][-1], lambda v: 80.0 < v < 97.0),
    Claim("table3", "Table III", "every length >55% success",
          lambda r: min(r.success_rates), lambda v: v > 55.0),
    Claim("table3", "Table III", "mean success >70%",
          lambda r: sum(r.success_rates) / len(r.success_rates),
          lambda v: v > 70.0),
    Claim("table3", "Table III",
          "92.3→84.3%; sits 2–15 pts below (ledger 2)",
          lambda r: tuple(
              r.paper_reference[row.length]["success_rate"] - row.success_rate
              for row in r.rows),
          lambda v: all(2.0 <= gap <= 15.0 for gap in v), min_scale="full"),
    Claim("table4", "Table IV", "all 8 apps compromised",
          lambda r: r.all_compromised, bool),
    Claim("table4", "Table IV", "Alipay needs the workaround (*)",
          lambda r: r.row("Alipay").marker, lambda v: v == "*"),
    Claim("table4", "Table IV", "the other 7 apps fall directly (✓)",
          _other_markers, lambda v: v == ("✓",)),
    Claim("table4", "Table IV", "Skype triggers on password focus",
          lambda r: r.row("Skype").trigger_path,
          lambda v: v == "password_focus"),
    Claim("stealthiness", "§VI-C3 stealthiness", "0/30 noticed the attack",
          lambda r: r.noticed_attack, lambda v: v == 0),
    Claim("stealthiness", "§VI-C3 stealthiness",
          "1/30 reported lag (≤ max(2, n/10))",
          lambda r: (r.reported_lag, r.participants),
          lambda v: v[0] <= max(2, v[1] // 10)),
    Claim("toast_continuity", "§IV toast continuity",
          "toast switches imperceptible",
          lambda r: r.imperceptible, bool),
    Claim("toast_continuity", "§IV toast continuity",
          ">90% of the run at ≥95% coverage",
          lambda r: r.coverage_fraction_above_95, lambda v: v > 0.9),
    Claim("toast_continuity", "§IV toast continuity",
          "token queue under the 50-per-app cap",
          lambda r: r.max_queue_depth_observed, lambda v: v < 50),
    Claim("corpus", "§VI-C2 corpus", "4,405 / 18,887 / 15,179 (rel. err <0.25)",
          lambda r: r.max_relative_error, lambda v: v < 0.25),
    Claim("defense_ipc", "§VII-A IPC defense", "detects every attack",
          lambda r: r.detection_rate, lambda v: v == 1.0),
    Claim("defense_ipc", "§VII-A IPC defense", "no benign app flagged",
          lambda r: r.false_positives, lambda v: v == 0),
    Claim("defense_ipc", "§VII-A IPC defense",
          "negligible overhead (<0.01 ms/txn)",
          lambda r: r.monitor_overhead_ms_per_txn, lambda v: v < 0.01),
    Claim("defense_notification", "§VII-B notification defense",
          "t = 690 ms defeats the attack at any D",
          lambda r: r.all_effective, bool),
    Claim("defense_notification", "§VII-B notification defense",
          "undefended: Λ1 on every trial",
          lambda r: _labels(t.outcome_without_defense for t in r.trials),
          lambda v: v == ("Λ1",)),
    Claim("defense_notification", "§VII-B notification defense",
          "defended: alert shown on every trial",
          lambda r: all(t.outcome_with_defense > NotificationOutcome.LAMBDA1
                        for t in r.trials),
          bool),
    Claim("defense_toast", "§VII-B toast spacing",
          "spacing makes switches flicker",
          lambda r: r.defense_effective, bool),
    Claim("equation_validation", "Eq. 2", "trace matches the closed form (<5%)",
          lambda r: r.max_relative_error, lambda v: v < 0.05),
    Claim("equation_validation", "Eq. 2", "mistouch time falls as D grows",
          lambda r: r.measured_decreases_with_d, bool),
    Claim("defense_tuning", "§VII-A rule tuning",
          "a rule detects all with 0 FP (detection, FP)",
          _best_rule, lambda v: v == (1.0, 0.0)),
    Claim("defense_tuning", "§VII-A rule tuning",
          "gaps ≥ 1200 ms flag benign apps",
          lambda r: any(p.false_positive_rate > 0.0 for p in r.points
                        if p.max_pair_gap_ms >= 1200.0),
          bool),
    Claim("trigger_comparison", "§VI-C2 trigger channels",
          "accessibility fires before the side channel",
          lambda r: r.accessibility_is_faster, bool),
    Claim("trigger_comparison", "§VI-C2 trigger channels",
          "side channel still fires on Alipay",
          lambda r: next(t.launched for t in r.trials
                         if t.channel == "side_channel"
                         and t.victim == "Alipay"),
          bool),
    Claim("table3_by_version", "Table III by version (supp.)",
          "Android 10 no easier than 9",
          lambda r: r.newer_versions_harder, bool),
    Claim("fig7_cis", "Fig 7 CIs (supp.)", "each 95% CI holds its mean",
          lambda r: all(row.ci.lower <= row.mean <= row.ci.upper
                        for row in r.rows),
          bool),
    Claim("noise_sensitivity", "Noise sensitivity (supp.)",
          "capture never rises with noise (10-pt slack)",
          lambda r: r.degradation_is_monotonic, bool),
)


def evaluate(results) -> Tuple[Verdict, ...]:
    """One :class:`Verdict` per :data:`CLAIMS` row, in row order.

    A bundle whose scale is not a :data:`SCALES` key (a custom preset)
    ranks below every claim, so nothing in it reads ``pass``.
    """
    rank = _RANK.get(results.scale_name, -1)
    verdicts = []
    for claim in CLAIMS:
        result = results.results.get(claim.experiment)
        if result is None:
            verdicts.append(Verdict(claim, MISSING))
            continue
        value = claim.measure(result)
        if rank < _RANK[claim.min_scale]:
            status = PARTIAL
        else:
            status = PASS if claim.holds(value) else FAIL
        verdicts.append(Verdict(claim, status, value))
    return tuple(verdicts)


def _show(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.1f}" if abs(value) >= 10.0 else f"{value:.3g}"
    if isinstance(value, tuple):
        return " / ".join(_show(item) for item in value)
    return str(value)


def render_summary(verdicts: Sequence[Verdict]) -> str:
    """The verdicts as a markdown table plus a one-line tally."""
    lines = ["| Artifact | Paper | Measured | Verdict |",
             "|---|---|---|---|"]
    for verdict in verdicts:
        claim = verdict.claim
        status = verdict.status
        if status == PARTIAL:
            status = f"partial (needs {claim.min_scale})"
        lines.append(f"| {claim.artifact} | {claim.paper} | "
                     f"{_show(verdict.value)} | {status} |")
    tally = ", ".join(
        f"{sum(v.status == status for v in verdicts)} {status}"
        for status in (PASS, PARTIAL, FAIL, MISSING))
    lines.append("")
    lines.append(f"{len(verdicts)} claims: {tally}.")
    return "\n".join(lines) + "\n"
