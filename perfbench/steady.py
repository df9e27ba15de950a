"""Steadiness command: two sets of runs of the same code, compared.

From the repository root::

    python3 perfbench/steady.py [--workload W ...] [--out FILE]

Each of two sets runs every workload ten times with seeds 1..10 (the
second set repeats the seeds of the first), one run at a time. For each
end-to-end metric, ``setup_s`` included, it prints each set's median and
quartiles and the spread (q3 - q1) / median, then whether the spreads
stay within the metric's bound and whether the two medians differ by no
more than the bound in either direction: identical code must not read
as a regression, nor as a gain, larger than the bound. The share of
failed operations must be identical in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402

SETS = 2
RUNS = 10


def _cpu_jiffies():
    """The machine's CPU time counters, or None where there are none."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except OSError:
        return None


def run_once(workload: str, seed: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec.RUN_SECONDS), "--trace", "0"]
    before = _cpu_jiffies()
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    # Share of the machine's CPU time the hypervisor gave to other
    # guests during the run (the eighth /proc/stat field).
    after = _cpu_jiffies()
    if before is not None and after is not None and len(after) > 7:
        deltas = [b - a for a, b in zip(before, after)]
        result["steal"] = deltas[7] / max(1, sum(deltas))
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(metric: str, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    better = {name: b for name, _, b, _ in spec.END_TO_END}[metric]
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--out", type=Path,
                        help="also write every run's result as JSON here")
    args = parser.parse_args(argv)
    workloads = args.workload or list(spec.WORKLOAD_NAMES)

    runs = {}
    for set_index in range(SETS):
        for workload in workloads:
            for seed in range(1, RUNS + 1):
                result = run_once(workload, seed)
                runs.setdefault(workload, [[] for _ in range(SETS)])
                runs[workload][set_index].append(result)
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"{result['wall_s']:.1f} s "
                      f"steal {result.get('steal', float('nan')):.2f} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items()),
                      flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")

    ok = True
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    for workload in workloads:
        sets = runs[workload]
        print(f"\n{workload}")
        shares = {sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets}
        print(f"  failed share per set: {sorted(shares)}"
              + ("" if len(shares) == 1 else "  DIFFERS"))
        ok &= len(shares) == 1
        for metric, _, _, _ in spec.END_TO_END:
            stats = [summarize([r["metrics"][metric]["value"] for r in s])
                     for s in sets]
            bound = bounds[metric]
            cells = "  ".join(
                f"set{i + 1} {st['median']:.4g} [{st['q1']:.4g}, "
                f"{st['q3']:.4g}] spread {st['spread']:.3f}"
                for i, st in enumerate(stats))
            within = all(st["spread"] <= bound for st in stats)
            drift = worse_by(metric, stats[0]["median"], stats[1]["median"])
            agree = abs(drift) <= bound
            verdict = ["spread ok" if within else "SPREAD > BOUND",
                       f"set2 worse by {drift:+.3f} "
                       + ("ok" if agree else "> BOUND")]
            ok &= within and agree
            print(f"  {metric:13s} bound {bound:.2f}  {cells}  "
                  + "; ".join(verdict))
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
