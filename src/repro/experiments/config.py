"""Experiment scaling presets.

Every experiment accepts an :class:`ExperimentScale`. ``FULL`` matches the
paper's protocol sizes (30 participants, 10 strings per D, 10 passwords
per length, the 890,855-app corpus); ``QUICK`` is a minutes-not-hours
preset for CI and the benchmark gates. Counts are scaled, protocols are
identical.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True, kw_only=True)
class ExperimentScale:
    """Knobs controlling experiment cost."""

    name: str
    #: Participants drawn from the study pool (paper: 30).
    participants: int = 30
    #: Random 10-char strings typed per participant per D (paper: 10).
    strings_per_d: int = 10
    #: Characters per string (paper: 10).
    chars_per_string: int = 10
    #: Passwords typed per participant per length (paper: 10).
    passwords_per_length: int = 10
    #: Simulation trials per probed D in the boundary search.
    boundary_trials_per_d: int = 3
    #: Duration of one boundary-search attack trial (ms).
    boundary_trial_ms: float = 3000.0
    #: Synthetic corpus size (paper: 890,855).
    corpus_size: int = 890_855
    #: Toast-attack observation length (ms) for continuity analysis.
    toast_observation_ms: float = 30_000.0
    #: Base seed; every trial derives its own stream from it.
    seed: int = 20220701
    #: Named fault profile applied ambiently to every stack the experiments
    #: build (``"none"``, ``"mild"``, ``"pixel-loaded"``, ``"adversarial"``).
    #: Part of the cache key but *not* of the seed derivation, so the same
    #: seed under different regimes draws the same base streams.
    faults: str = "none"

    def with_seed(self, seed: int) -> "ExperimentScale":
        return replace(self, seed=seed)

    def with_faults(self, faults: str) -> "ExperimentScale":
        return replace(self, faults=faults)

    def for_experiment(self, experiment_name: str) -> "ExperimentScale":
        """Derive the scale used to run one named experiment.

        The derived seed is a pure function of ``(name, seed,
        experiment_name)``, so every experiment owns an independent RNG
        universe: experiments can run in any order, on any worker process,
        and still draw exactly the same streams. The same derivation is the
        on-disk cache key, which is why the tuple must stay stable across
        releases.
        """
        return self.with_seed(self.derived_seed(experiment_name))

    def derived_seed(self, experiment_name: str) -> int:
        """The seed :meth:`for_experiment` gives ``experiment_name``."""
        digest = hashlib.sha256(
            f"{self.name}:{self.seed}:{experiment_name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean "all cores"."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


FULL = ExperimentScale(name="full")

QUICK = ExperimentScale(
    name="quick",
    participants=8,
    strings_per_d=2,
    chars_per_string=10,
    passwords_per_length=2,
    boundary_trials_per_d=2,
    boundary_trial_ms=2000.0,
    corpus_size=60_000,
    toast_observation_ms=12_000.0,
)

SMOKE = ExperimentScale(
    name="smoke",
    participants=3,
    strings_per_d=1,
    chars_per_string=8,
    passwords_per_length=1,
    boundary_trials_per_d=1,
    boundary_trial_ms=1500.0,
    corpus_size=8_000,
    toast_observation_ms=8_000.0,
)

#: The named presets, by the name the CLI and matrix specs accept.
SCALES = {"smoke": SMOKE, "quick": QUICK, "full": FULL}

#: Attacking windows evaluated in Fig. 7 / Fig. 8 (ms).
FIG7_DURATIONS = (50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0)

#: Paper Fig. 7 mean capture rates (%), same order as FIG7_DURATIONS.
FIG7_PAPER_MEANS = (61.0, 79.8, 86.7, 89.0, 91.0, 92.8, 92.8)

#: Paper Table III reference rows.
TABLE_III_PAPER = {
    4: {"length_errors": 10, "wrong_touched_keys": 7, "capitalization_errors": 6,
        "success_rate": 92.3},
    6: {"length_errors": 15, "wrong_touched_keys": 8, "capitalization_errors": 7,
        "success_rate": 90.0},
    8: {"length_errors": 19, "wrong_touched_keys": 8, "capitalization_errors": 9,
        "success_rate": 88.0},
    10: {"length_errors": 23, "wrong_touched_keys": 9, "capitalization_errors": 9,
         "success_rate": 86.3},
    12: {"length_errors": 26, "wrong_touched_keys": 9, "capitalization_errors": 12,
         "success_rate": 84.3},
}
