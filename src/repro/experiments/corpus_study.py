"""Section VI-C2: prevalence of the attack's permissions and methods.

Runs the aapt-style and FlowDroid-style analyzers over a synthetic
AndroZoo-like corpus and reports the three headline counts, scaled to the
paper's 890,855-app corpus for comparison (4,405 / 18,887 / 15,179).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..serialization import SerializableMixin
from ..staticanalysis.corpus import PAPER_CORPUS_SIZE, SyntheticCorpus
from ..staticanalysis.report import PrevalenceCounts, run_prevalence_study
from .config import ExperimentScale, QUICK


@dataclass(frozen=True)
class CorpusStudyResult(SerializableMixin):
    """Measured counts, scaled counts and paper reference."""

    measured: PrevalenceCounts
    scaled_to_paper: PrevalenceCounts
    paper: PrevalenceCounts

    def relative_error(self, attr: str) -> float:
        """Relative error of one scaled count against the paper."""
        measured = getattr(self.scaled_to_paper, attr)
        reference = getattr(self.paper, attr)
        return abs(measured - reference) / reference

    @property
    def max_relative_error(self) -> float:
        return max(
            self.relative_error(attr)
            for attr in ("saw_and_accessibility", "addremove_and_saw", "custom_toast")
        )


def _run_corpus_study(scale: ExperimentScale = QUICK) -> CorpusStudyResult:
    corpus = SyntheticCorpus(size=scale.corpus_size, seed=scale.seed)
    measured = run_prevalence_study(corpus)
    return CorpusStudyResult(
        measured=measured,
        scaled_to_paper=measured.scaled_to(PAPER_CORPUS_SIZE),
        paper=PrevalenceCounts.paper_reference(),
    )


def _render_corpus_study(result: CorpusStudyResult) -> str:
    scaled, paper = result.scaled_to_paper, result.paper
    return ("| metric | measured (scaled) | paper |\n|---|---|---|\n"
            f"| SAW + accessibility | {scaled.saw_and_accessibility} | "
            f"{paper.saw_and_accessibility} |\n"
            f"| addView+removeView+SAW | {scaled.addremove_and_saw} | "
            f"{paper.addremove_and_saw} |\n"
            f"| customized toast | {scaled.custom_toast} | "
            f"{paper.custom_toast} |\n\n")
