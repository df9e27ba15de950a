"""Benchmark harness: six performance gates and the perf ledger.

The benchmarks here gate the engine's performance claims (stack reuse,
campaign fan-out, idle supervision, disabled metrics, the durable-write
funnel, the serve cache); the paper's tables and figures are checked by
the claims table instead (``python -m repro claims --scale full``). Run
with::

    pytest benchmarks/

The four gates that time two whole workloads against each other share
one measurement, the ``interleaved`` fixture: interleaved rounds,
compared by medians. The serve gate compares medians of its samples, and
the durability gate medians of raw writes against the funnel's dispatch.

Each gate also appends one entry to the perf ledger at
``benchmarks/ledger/BENCH_<name>.json`` — git sha, timestamp, the
measured walls and the gate verdict — so the claim's trajectory across
commits is versioned next to the gates themselves. Point
``REPRO_BENCH_LEDGER`` somewhere else to keep CI runs out of the tree.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.storage import DurableStore

_LEDGER_DIR = Path(__file__).resolve().parent / "ledger"


class Arm(NamedTuple):
    """One arm of a paired measurement."""

    seconds: float  # median wall over the timed rounds
    value: Any  # what the arm's last call returned, for equality checks


@pytest.fixture(scope="session")
def interleaved() -> Callable[..., Tuple[Arm, Arm]]:
    """Time two zero-argument arms by interleaved medians.

    ``interleaved(first, second, rounds=10)`` calls each arm once
    untimed (warm-up), then runs ``rounds`` rounds that each time both
    arms once. The arms alternate which goes first, so drift (thermal,
    page cache, a neighbour's load) lands on both instead of on one, and
    ``gc.collect()`` runs before every timed region so one arm's garbage
    is not collected on the other's clock.
    """

    def measure(first: Callable[[], Any], second: Callable[[], Any],
                rounds: int = 10) -> Tuple[Arm, Arm]:
        arms = (first, second)
        values = [arm() for arm in arms]  # untimed warm-up
        walls: Tuple[List[float], List[float]] = ([], [])
        for index in range(rounds):
            for which in ((0, 1), (1, 0))[index % 2]:
                gc.collect()
                start = time.perf_counter()
                values[which] = arms[which]()
                walls[which].append(time.perf_counter() - start)
        return (Arm(statistics.median(walls[0]), values[0]),
                Arm(statistics.median(walls[1]), values[1]))

    return measure


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
def ledger() -> Callable[..., Dict[str, Any]]:
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
