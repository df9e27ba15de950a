"""Per-layer attribution: profiler self time folded by module, exact
call counts at named entry points, and storage spans.

Everything is taken from outside the program: the stdlib profiler sees
every Python call, and the only hook the benchmark installs is a
wrapper around the public ``DurableStore.write_bytes`` that records the
bytes and the time of each write.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import time
from typing import Dict, Iterable, Iterator, Tuple

from .oracle import require

#: Module path (below ``src/repro/``) prefix -> layer. First match wins,
#: so ``sim/faults.py`` is claimed before the rest of ``sim/``.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("sim/faults.py", "faults"),
    ("sim/", "sim"),
    ("binder/", "binder"),
    ("windows/", "windows"),
    ("systemui/", "systemui"),
    ("animation/", "animation"),
    ("toast/", "toast"),
    ("staticanalysis/", "staticanalysis"),
    ("users/", "users"),
    ("attacks/", "attacks"),
    ("actors/", "actors"),
    ("experiments/engine.py", "engine"),
    ("stack.py", "engine"),
    ("experiments/aggregate.py", "aggregate"),
    ("experiments/resilience.py", "supervision"),
    ("experiments/parallel.py", "supervision"),
    ("experiments/campaign.py", "supervision"),
    ("storage/", "storage"),
    ("serve/", "serve"),
    ("obs/", "obs"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, layer in LAYER_OF_MODULE))

#: Metric name -> (module path below ``src/repro/``, function name).
CALL_COUNTS: Dict[str, Tuple[str, str]] = {
    "sim.events": ("sim/scheduler.py", "step"),
    "sim.clock_reads": ("sim/clock.py", "now"),
    "faults.perturbations": ("sim/faults.py", "perturb_event_time"),
    "binder.transactions": ("binder/router.py", "transact"),
    "toast.alpha_samples": ("toast/toast.py", "alpha_at"),
    "staticanalysis.apps": ("staticanalysis/flowdroid.py", "analyze"),
    "engine.stack_builds": ("stack.py", "build_stack"),
    "engine.stack_resets": ("stack.py", "reset"),
    "aggregate.observes": ("experiments/aggregate.py", "observe"),
}

_MARKER = "/src/repro/"


def _module_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    index = path.rfind(_MARKER)
    return path[index + len(_MARKER):] if index >= 0 else ""


def _layer_of(module: str) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if module.startswith(prefix):
            return layer
    return ""


#: Layers every workload exercises: the event kernel, the trial engine
#: and the binder under every trial.
COMMON_WORK: Tuple[str, ...] = (
    "sim.self_s", "sim.events", "sim.clock_reads", "binder.self_s",
    "binder.transactions", "windows.self_s", "systemui.self_s",
    "engine.self_s", "engine.stack_builds", "engine.stack_resets",
)


def require_work(layers: Dict[str, float], names: Iterable[str]) -> None:
    """Each named layer metric must be positive: a zero means an entry
    point was renamed or moved and its layer is no longer measured."""
    idle = [name for name in (*COMMON_WORK, *names) if not layers[name] > 0]
    require(not idle, f"layers that should have done work read 0: {idle}")


class StorageSpans:
    """Counts, bytes and wall time of ``DurableStore.write_bytes`` calls."""

    def __init__(self) -> None:
        self.writes = 0
        self.bytes_written = 0
        self.seconds = 0.0

    @contextlib.contextmanager
    def installed(self) -> Iterator["StorageSpans"]:
        from repro.storage.store import DurableStore

        original = DurableStore.write_bytes
        spans = self

        def write_bytes(store, path, data):
            start = time.perf_counter()
            try:
                return original(store, path, data)
            finally:
                spans.seconds += time.perf_counter() - start
                spans.writes += 1
                spans.bytes_written += len(data)

        DurableStore.write_bytes = write_bytes
        try:
            yield self
        finally:
            DurableStore.write_bytes = original


class Trace:
    """One traced pass: the profiler plus the storage spans."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        self.storage = StorageSpans()

    @contextlib.contextmanager
    def active(self) -> Iterator["Trace"]:
        with self.storage.installed():
            self.profiler.enable()
            try:
                yield self
            finally:
                self.profiler.disable()

    def metrics(self) -> Dict[str, float]:
        """Self seconds per layer, exact call counts, storage spans."""
        stats = pstats.Stats(self.profiler).stats
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {name: 0 for name in CALL_COUNTS}
        wanted = {target: name for name, target in CALL_COUNTS.items()}
        for (filename, _line, func), row in stats.items():
            module = _module_of(filename)
            if not module:
                continue
            layer = _layer_of(module)
            if layer:
                self_s[layer] += row[2]
            name = wanted.get((module, func))
            if name is not None:
                calls[name] += row[1]
        out: Dict[str, float] = {
            f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
        out.update({name: float(count) for name, count in calls.items()})
        builds = calls["engine.stack_builds"]
        resets = calls["engine.stack_resets"]
        out["engine.reuse_ratio"] = (resets / (builds + resets)
                                     if builds + resets else 0.0)
        out["storage.writes"] = float(self.storage.writes)
        out["storage.bytes_written"] = float(self.storage.bytes_written)
        out["storage.write_s"] = self.storage.seconds
        return out
