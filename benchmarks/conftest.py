"""Benchmark harness configuration.

The benchmarks here measure performance (throughput, overhead, fan-out)
and the design ablations; the paper's tables and figures are checked by
the claims table instead (``python -m repro claims --scale full``). Run
with::

    pytest benchmarks/ --benchmark-only

``REPRO_BENCH_SCALE=full`` runs the parallel-runner benchmark at paper
scale (default QUICK), and ``REPRO_BENCH_JOBS=N`` sizes its worker pool
(default 4; results are identical at any job count).

Gated benchmarks (the ones that assert a performance claim) also append
one entry to the perf ledger at ``benchmarks/ledger/BENCH_<name>.json``
— git sha, timestamp, measured throughput/walls and the gate verdict —
so the claim's trajectory across commits is versioned next to the gates
themselves (``.benchmarks/`` is gitignored; the ledger is not). Point
``REPRO_BENCH_LEDGER`` somewhere else to keep CI runs out of the tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import pytest

from repro.experiments import FULL, QUICK, ExperimentScale
from repro.storage import DurableStore

_LEDGER_DIR = Path(__file__).resolve().parent / "ledger"


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    return FULL if name == "full" else QUICK


@pytest.fixture(scope="session")
def jobs() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", "4"))


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


@pytest.fixture(scope="session")
def ledger(scale: ExperimentScale) -> Callable[..., Dict[str, Any]]:
    """Append one trajectory entry to ``BENCH_<name>.json``.

    ``record(name, gate=..., passed=..., throughput=..., **measurements)``
    — call it with the measured numbers *before* asserting the gate, so
    a failing gate still leaves its forensic entry behind. The write is
    atomic (tmp + replace): a crashed benchmark run never truncates the
    ledger it was appending to.
    """

    def record(name: str, *, gate: str, passed: bool,
               throughput: Optional[float] = None,
               **measurements: float) -> Dict[str, Any]:
        root = Path(os.environ.get("REPRO_BENCH_LEDGER", str(_LEDGER_DIR)))
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"BENCH_{name}.json"
        try:
            entries = json.loads(path.read_text())
        except (OSError, ValueError):
            entries = []
        entry: Dict[str, Any] = {
            "git_sha": _git_sha(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "scale": scale.name,
            "gate": gate,
            "passed": bool(passed),
        }
        if throughput is not None:
            entry["throughput"] = float(throughput)
        for key, value in measurements.items():
            entry[key] = float(value)
        entries.append(entry)
        # The ledger is the fifth DurableStore surface: atomic publish,
        # fault-injectable as fs:ledger:... in storage-chaos tests.
        DurableStore("ledger").write_bytes(
            path, (json.dumps(entries, indent=2) + "\n").encode("utf-8"))
        return entry

    return record
