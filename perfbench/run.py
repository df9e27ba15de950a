"""End-to-end benchmark command.

From the repository root::

    python3 perfbench/run.py --workload suite-quick --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric instead. Human-readable notes come first. Workloads,
metrics and the layer map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run, each in a fresh interpreter; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    # Internal: one set-up in a fresh interpreter, for setup_s.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_paths() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'repro'} is missing; run from "
                         "the root of a full checkout")
    sys.path.insert(0, str(src))


def _setup_seconds(workload: str, seed: int, seconds: float,
                   work: Path) -> float:
    """Median wall time from interpreter start to the end of set-up."""
    samples = []
    for index in range(SETUP_PROBES):
        probe_work = work / f"probe-{index}"
        probe_work.mkdir(parents=True)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--setup-probe",
                   "--work", str(probe_work)]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as child:
            ready = None
            for line in child.stdout:
                if line.strip() == "READY":
                    ready = time.perf_counter() - start
                    break
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        if ready is None or code != 0:
            raise RuntimeError(f"set-up probe exited {code} before READY")
        samples.append(ready)
    samples.sort()
    return samples[len(samples) // 2]


def _result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import spec

    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    if args.workload not in spec.WORKLOAD_NAMES:
        raise SystemExit(f"perfbench: --workload must be one of "
                         f"{', '.join(spec.WORKLOAD_NAMES)}")
    _import_paths()
    from perfbench.common import stop_resource_tracker

    try:
        return _run(args, spec)
    finally:
        stop_resource_tracker()


def _run(args, spec) -> int:
    from perfbench import campaign, serve, suite
    from perfbench.common import own_peak_rss_mb
    from perfbench.oracle import CheckFailed

    module = {"suite-quick": suite, "campaign-fleet": campaign,
              "serve-mixed": serve}[args.workload]
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    if args.setup_probe:
        module.probe(args.seed, seconds, Path(args.work),
                     ready=lambda: print("READY", flush=True))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        try:
            outcome = module.measure(args.seed, seconds, bool(args.trace),
                                     work)
        except CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            print(_result_line(False, 1, 0, {}, spec.UNITS))
            return 1
        if args.trace:
            names = [name for name, *_ in spec.PER_LAYER]
            metrics = {name: float(outcome.layers.get(name, 0.0))
                       for name in names}
        else:
            names = [name for name, *_ in spec.END_TO_END]
            metrics = dict(outcome.metrics)
            # Every worker has been joined by now, so the children's
            # peak covers them; the set-up probes below are not counted.
            metrics["peak_rss_mb"] = own_peak_rss_mb()
            metrics["setup_s"] = _setup_seconds(args.workload, args.seed,
                                                seconds, work)
            metrics = {name: float(metrics[name]) for name in names}
        bad = [name for name, value in metrics.items()
               if not math.isfinite(value)]
        if bad:
            raise RuntimeError(f"non-finite metrics: {bad}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    for note in outcome.notes:
        print(note)
    print(_result_line(True, outcome.attempted, outcome.failed, metrics,
                       spec.UNITS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
