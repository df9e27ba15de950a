"""The benchmark's fixed description; ``BENCHMARK.json`` is written from it.

``python3 perfbench/run.py --write-spec`` regenerates ``BENCHMARK.json``
at the repository root, so the file and the code that measures it
cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

from .layers import CALL_COUNTS, LAYERS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = (
    ("suite-quick",
     "the QUICK suite of all 21 paper experiments in-process: the "
     "reproduction's main job and the only one where toast, "
     "staticanalysis and obs do real work"),
    ("campaign-fleet",
     "a 4,320-cell notification campaign over all 30 devices on both "
     "sides of each Eq. 3 bound: short trials, so per-trial fixed costs "
     "and pool IPC dominate"),
    ("serve-mixed",
     "feasibility queries through the service queue, single-flight, "
     "cache and spawn pool: a closed loop of cold queries, then an open "
     "loop of cold, cached and coalesced ones"),
)

#: (name, unit, better, bound). A bound is three times the widest
#: quartile spread measured over ten seeds on any workload, capped at
#: 0.25; host speed alone moves every time by more than a twelfth, so
#: every time gets the cap (see README.md, "Steadiness"). The 95th
#: percentile is printed as a note only: it moves two to three times as
#: much as the median with the host's steal time, past the cap.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: The 21 paper experiments, in the runner's registry order.
EXPERIMENT_NAMES = (
    "fig2", "fig4", "fig6", "table2", "load_impact", "fig7", "fig8",
    "table3", "table4", "stealthiness", "toast_continuity", "corpus",
    "defense_ipc", "defense_notification", "defense_toast",
    "equation_validation", "defense_tuning", "trigger_comparison",
    "table3_by_version", "fig7_cis", "noise_sensitivity",
)

_HIGHER = {"engine.reuse_ratio", "serve.cache_hits", "serve.coalesced",
           "serve.saved_ratio"}


def _per_layer():
    rows = [(f"experiments.{name}_s", "s") for name in EXPERIMENT_NAMES]
    rows += [(f"{layer}.self_s", "s") for layer in LAYERS]
    rows += [(name, "count") for name in CALL_COUNTS]
    rows += [
        ("engine.reuse_ratio", "ratio"),
        ("supervision.tasks", "count"),
        ("supervision.attempts", "count"),
        ("storage.writes", "count"),
        ("storage.bytes_written", "bytes"),
        ("storage.write_s", "s"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.job_wall_ms", "ms"),
        ("serve.executed", "count"),
        ("serve.cache_hits", "count"),
        ("serve.coalesced", "count"),
        ("serve.saved_ratio", "ratio"),
        ("serve.loadgen_lag_ms", "ms"),
        ("trace.overhead_s", "s"),
    ]
    return tuple((name, unit, "higher" if name in _HIGHER else "lower")
                 for name, unit in rows)


PER_LAYER = _per_layer()

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def document() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER],
    }


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(document(), indent=2) + "\n")
    return path
