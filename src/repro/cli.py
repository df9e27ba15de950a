"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``devices`` — list the 30 calibrated evaluation devices (Table I/II);
* ``attack`` — run the draw-and-destroy overlay attack on one device and
  report the notification outcome and capture statistics;
* ``diagram`` — render the paper's Fig. 3 / Fig. 5 sequence charts from a
  live simulation trace;
* ``report`` — run the complete reproduction suite and print the
  paper-vs-measured report (EXPERIMENTS.md content); ``--metrics-out`` /
  ``--profile-dir`` attach observability artifacts to the run;
* ``metrics`` — run the suite with metrics collection and export the
  aggregated series as JSONL + Prometheus text;
* ``claims`` — run the suite and check every paper claim
  (:mod:`repro.experiments.claims`); exit 1 if any fails;
* ``campaign`` — run a fleet-scale :class:`ScenarioMatrix` sweep from a
  JSON spec: sharded, supervised, resumable, with streaming aggregates;
* ``serve`` — boot the attack-feasibility query service: an HTTP front
  over a bounded job queue, single-flight coalescing, a warm worker
  pool and a content-addressed result cache (``/query``, ``/metrics``,
  ``/healthz``, ``/stats``);
* ``query`` — answer one feasibility query, either in-process or
  against a running ``repro serve`` endpoint (``--url``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .actors import get_attacker
from .analysis.sequence_diagram import (
    render_overlay_attack_figure,
    render_toast_attack_figure,
)
from .devices import DEVICES, device
from .experiments.config import SCALES
from .stack import build_stack
from .systemui import AlertMode
from .windows.geometry import Point, Rect


def _cmd_devices(args: argparse.Namespace) -> int:
    print(f"{'device':44s} {'Android':>8s} {'bound D (ms)':>13s} "
          f"{'Tmis (ms)':>10s}")
    for profile in DEVICES:
        print(f"{profile.manufacturer + ' ' + profile.model:44s} "
              f"{profile.android_version.label:>8s} "
              f"{profile.published_upper_bound_d:13.0f} "
              f"{profile.mean_tmis_ms:10.1f}")
    return 0


def _resolve_device(model: Optional[str], version: Optional[str]):
    if model is None:
        from .devices import reference_device

        return reference_device()
    return device(model, version)


def _cmd_attack(args: argparse.Namespace) -> int:
    profile = _resolve_device(args.device, args.android)
    d = args.window if args.window is not None else (
        profile.published_upper_bound_d - 10.0
    )
    stack = build_stack(seed=args.seed, profile=profile,
                        alert_mode=AlertMode.ANALYTIC, faults=args.faults)
    attacker = get_attacker("draw-and-destroy")
    attack = attacker.launch(stack, attacking_window_ms=d)
    taps = 0
    while stack.now < args.duration:
        stack.run_for(300.0)
        stack.touch.tap(Point(540.0, 1200.0))
        taps += 1
    worst = stack.system_ui.worst_outcome()
    attacker.withdraw(attack)
    stack.run_for(500.0)
    worst = max(worst, stack.system_ui.worst_outcome())
    print(f"device            : {profile.key}")
    print(f"attacking window D: {d:.0f} ms "
          f"(published bound {profile.published_upper_bound_d:.0f} ms)")
    print(f"cycles run        : {attack.stats.cycles}")
    print(f"alert outcome     : {worst.label} "
          f"({'suppressed' if worst.suppressed else 'VISIBLE'})")
    print(f"touches captured  : {attack.stats.captured_count}/{taps}")
    if args.faults != "none":
        # The published bound is calibrated fault-free; under injected
        # faults a "wrong" outcome is a finding, not a failure.
        print(f"fault profile     : {args.faults}")
        return 0
    return 0 if worst.suppressed == (d < profile.published_upper_bound_d) else 1


def _cmd_diagram(args: argparse.Namespace) -> int:
    profile = _resolve_device(args.device, args.android)
    stack = build_stack(seed=args.seed, profile=profile,
                        alert_mode=AlertMode.ANALYTIC)
    if args.figure == "overlay":
        attacker = get_attacker("draw-and-destroy")
        attack = attacker.launch(
            stack,
            attacking_window_ms=profile.published_upper_bound_d - 10.0)
        stack.run_for(args.duration)
        attacker.withdraw(attack)
        stack.run_for(200.0)
        print("Fig. 3 — draw-and-destroy overlay attack "
              f"(one cycle window, {profile.key}):")
        print(render_overlay_attack_figure(
            stack.simulation.trace, 100.0, args.duration))
    else:
        attacker = get_attacker("draw-and-destroy-toast")
        attack = attacker.launch(stack, toast_rect=Rect(0, 1400, 1080, 2160),
                                 toast_duration_ms=3500.0)
        stack.run_for(args.duration)
        attacker.withdraw(attack)
        stack.run_for(4500.0)
        print(f"Fig. 5 — draw-and-destroy toast attack ({profile.key}):")
        print(render_toast_attack_figure(
            stack.simulation.trace, 0.0, args.duration))
    return 0


def _write_metrics_exports(results, out_dir: Path) -> None:
    """Write ``metrics.jsonl`` + ``metrics.prom`` for an AllResults run."""
    from .obs import merge_samples, render_prometheus, to_jsonl

    merged = merge_samples(em.samples for em in results.metrics or ())
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.jsonl").write_text(to_jsonl(merged))
    (out_dir / "metrics.prom").write_text(render_prometheus(merged))


def _build_policy(args: argparse.Namespace):
    """Translate CLI supervision flags into a RunPolicy (None = defaults)."""
    from .experiments import RunPolicy

    if not (args.retries or args.deadline is not None or args.fail_fast):
        return None
    return RunPolicy(
        max_attempts=args.retries + 1,
        deadline_seconds=args.deadline,
        backoff_base_seconds=0.05 if args.retries else 0.0,
        fail_fast=args.fail_fast,
    )


def _write_failures_summary(results, out: Path) -> None:
    """Emit the machine-readable failure summary for --failures-out."""
    timings = results.timings or ()
    summary = {
        "scale": results.scale_name,
        "completed": sum(1 for t in timings if not t.failed),
        "failed": len(results.failures),
        "retries": sum(t.attempts - 1 for t in timings),
        "failures": [f.to_dict() for f in results.failures],
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")


def _report_failures(results, command: str, noun: str = "experiment") -> int:
    """Print the failure roll-up and return the process exit code."""
    if not results.failures:
        return 0
    for failure in results.failures:
        print(f"repro {command}: {noun} {failure.name} FAILED "
              f"({failure.kind}, {failure.attempts} attempt(s)): "
              f"{failure.error}", file=sys.stderr)
    print(f"repro {command}: {len(results.failures)} {noun}(s) failed",
          file=sys.stderr)
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import default_cache_dir, format_report, run_all
    from .experiments.resilience import JournalError

    scale = SCALES[args.scale]
    if args.faults != "none":
        scale = scale.with_faults(args.faults)
    collect_metrics = args.metrics_out is not None
    if args.no_cache or collect_metrics or args.profile_dir is not None:
        # Cached results carry no metric snapshots or profiles; a fresh
        # run is the only way to honor --metrics-out / --profile-dir.
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = default_cache_dir()
    if cache_dir is not None and cache_dir.exists() and not cache_dir.is_dir():
        print(f"repro report: --cache-dir {cache_dir} exists and is not a "
              "directory", file=sys.stderr)
        return 2
    try:
        results = run_all(scale, verbose=args.verbose, jobs=args.jobs,
                          cache_dir=cache_dir,
                          collect_metrics=collect_metrics,
                          profile_dir=args.profile_dir,
                          policy=_build_policy(args),
                          run_dir=args.resume or args.run_dir,
                          resume=args.resume is not None)
    except JournalError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    print(format_report(results, include_timings=args.verbose))
    if collect_metrics:
        _write_metrics_exports(results, args.metrics_out)
        print(f"\nmetrics written to {args.metrics_out}/metrics.jsonl "
              f"and {args.metrics_out}/metrics.prom", file=sys.stderr)
    if args.failures_out is not None:
        _write_failures_summary(results, args.failures_out)
    return _report_failures(results, "report")


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .experiments import run_all
    from .obs import merge_samples, render_prometheus

    scale = SCALES[args.scale]
    if args.faults != "none":
        scale = scale.with_faults(args.faults)
    results = run_all(scale, jobs=args.jobs, collect_metrics=True)
    if args.out is not None:
        _write_metrics_exports(results, args.out)
        print(f"metrics written to {args.out}/metrics.jsonl and "
              f"{args.out}/metrics.prom", file=sys.stderr)
        return _report_failures(results, "metrics")
    merged = merge_samples(em.samples for em in results.metrics or ())
    print(render_prometheus(merged), end="")
    return _report_failures(results, "metrics")


def _cmd_claims(args: argparse.Namespace) -> int:
    from .experiments import run_all
    from .experiments.claims import FAIL, MISSING, evaluate, render_summary

    # Results are byte-identical at any job count: use every core.
    verdicts = evaluate(run_all(SCALES[args.scale], jobs=0))
    print(render_summary(verdicts), end="")
    return int(any(v.status in (FAIL, MISSING) for v in verdicts))


def _cmd_actors(args: argparse.Namespace) -> int:
    from .actors import attacker_names, channel_names, user_names

    print(f"attacker models ({len(attacker_names())}): "
          + ", ".join(attacker_names()))
    print(f"user models ({len(user_names())}): " + ", ".join(user_names()))
    print(f"alert channels ({len(channel_names())}): "
          + ", ".join(channel_names()))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS, family_names, get_family, scenario_names

    if args.run is not None:
        from .api import run_experiment

        scale = SCALES[args.scale]
        try:
            result = run_experiment(args.run, scale=scale)
        except KeyError as exc:
            print(f"repro experiments: {exc.args[0]}", file=sys.stderr)
            return 2
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"repro experiments: experiment {args.run} FAILED: "
                  f"{exc!r}", file=sys.stderr)
            return 1
        print(result)
        return 0
    if args.list:
        print(f"{'experiment':22s} title")
        for spec in EXPERIMENTS:
            print(f"{spec.name:22s} {spec.title}")
        print()
        print(f"{'scenario family':22s} title")
        for name in family_names():
            print(f"{name:22s} {get_family(name).title}")
        print()
        print(f"registered scenarios ({len(scenario_names())}): "
              + ", ".join(scenario_names()))
        return 0
    print("repro experiments: nothing to do (try --list or --run NAME)",
          file=sys.stderr)
    return 2


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .experiments.campaign import (
        GROUPERS,
        format_campaign,
        matrix_from_spec,
        run_campaign,
    )
    from .experiments.resilience import JournalError

    try:
        spec = json.loads(args.matrix.read_text())
    except (OSError, ValueError) as exc:
        print(f"repro campaign: cannot read matrix spec {args.matrix}: {exc}",
              file=sys.stderr)
        return 2
    try:
        matrix = matrix_from_spec(spec)
    except (KeyError, ValueError) as exc:
        print(f"repro campaign: bad matrix spec: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_campaign(
            matrix,
            shards=args.shards,
            jobs=args.jobs,
            policy=_build_policy(args),
            run_dir=args.resume or args.run_dir,
            resume=args.resume is not None,
            group_by=GROUPERS[args.group_by],
            verbose=args.verbose,
        )
    except JournalError as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2
    print(format_campaign(result), end="")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(result.aggregates_json())
        print(f"aggregates written to {args.out}", file=sys.stderr)
    return _report_failures(result, "campaign", noun="shard")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .experiments.resilience import DEFAULT_POLICY
    from .serve import (
        BreakerConfig,
        FeasibilityService,
        ServeConfig,
        start_http_server,
    )

    try:
        breaker = BreakerConfig(
            window=args.breaker_window,
            failure_threshold=args.breaker_failures,
            cooldown_rejections=args.breaker_cooldown,
        )
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    config = ServeConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        cache_dir=args.cache_dir,
        policy=_build_policy(args) or DEFAULT_POLICY,
        breaker=breaker,
        retry_after_seconds=args.retry_after,
    )

    async def _serve() -> None:
        service = FeasibilityService(config)
        await service.start()
        server = await start_http_server(service, args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platform without signal handlers; Ctrl-C still works
        print(f"repro serve: listening on http://{host}:{port} "
              f"({config.workers} workers, queue limit "
              f"{config.queue_limit})", flush=True)
        try:
            await stop.wait()
        finally:
            # Graceful drain: stop accepting connections, let every
            # queued job finish, flush the disk cache, then tear down.
            server.close()
            await server.wait_closed()
            elapsed = await service.drain()
            print(f"repro serve: drained in {elapsed:.3f}s", flush=True)
            await service.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _format_feasibility(payload: dict, source: str) -> str:
    """Human summary of a FeasibilityReport dict (local or HTTP answer)."""
    lines = [
        f"device           : {payload['device_key']}",
        f"faults / actors  : {payload['faults']} / {payload['attacker']} "
        f"vs {payload['user']}",
        f"{'D (ms)':>9s} {'suppressed':>11s} {'worst':>6s}",
    ]
    for point in payload["points"]:
        lines.append(
            f"{point['attacking_window_ms']:9.1f} "
            f"{point['suppressed_trials']:>5d}/{point['trials']:<5d} "
            f"{point['worst_outcome']:>6s}")
    bound = payload["published_upper_bound_d_ms"]
    feasible = payload["max_feasible_d_ms"]
    if feasible is not None:
        lines.append(f"max feasible D   : {feasible:.1f} ms "
                     f"(published bound {bound:.0f} ms)")
    else:
        lines.append(f"max feasible D   : none in the swept range "
                     f"(published bound {bound:.0f} ms)")
    lines.append(f"mean Tmis        : {payload['mean_tmis_ms']:.1f} ms")
    probe = payload.get("probe")
    if probe is not None:
        lines.append(
            f"capture probe    : {probe['captured_taps']}/"
            f"{probe['total_taps']} taps captured "
            f"({probe['capture_rate'] * 100.0:.0f}%) at "
            f"D={probe['attacking_window_ms']:.1f} ms")
    lines.append(f"answered via     : {source}")
    return "\n".join(lines)


def _retry_after_seconds(headers, fallback: float = 1.0) -> float:
    """Parse a ``Retry-After`` header (seconds form), clamped to keep a
    hostile or buggy server from pinning the client for minutes."""
    raw = headers.get("Retry-After") if headers is not None else None
    try:
        seconds = float(raw)
    except (TypeError, ValueError):
        seconds = fallback
    return min(max(seconds, 0.05), 30.0)


def _cmd_query(args: argparse.Namespace) -> int:
    from .serve import FeasibilityQuery

    try:
        query = FeasibilityQuery(
            device=args.device,
            android_version=args.android,
            faults=args.faults,
            attacker=args.attacker,
            user=args.user,
            d_min_ms=args.d_min,
            d_max_ms=args.d_max,
            d_step_ms=args.d_step,
            trials_per_d=args.trials,
            trial_duration_ms=args.trial_ms,
            probe_chars=args.probe_chars,
            probe_trials=args.probe_trials,
            seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro query: invalid query: {message}", file=sys.stderr)
        return 2

    if args.url is None:
        from .api import query_feasibility

        report = query_feasibility(query).to_dict()
        source = "in-process"
    else:
        import time as time_module
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            args.url.rstrip("/") + "/query",
            data=query.canonical_json().encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        # Bounded retry against an overloaded service: a 503 carries a
        # Retry-After the server chose; we honor it (clamped) up to
        # --retry times, so a storm against an open breaker backs off
        # and succeeds once the breaker half-opens.
        attempts = max(0, args.retry) + 1
        payload = None
        for attempt in range(1, attempts + 1):
            try:
                with urllib.request.urlopen(request,
                                            timeout=args.timeout) as resp:
                    payload = json.loads(resp.read())
                break
            except urllib.error.HTTPError as exc:
                try:
                    payload = json.loads(exc.read())
                except ValueError:
                    payload = {"error": f"HTTP {exc.code}"}
                if exc.code == 503:
                    if attempt < attempts:
                        delay = _retry_after_seconds(exc.headers)
                        print(f"repro query: service overloaded "
                              f"({payload.get('reason', 'unknown')}); "
                              f"retry {attempt}/{attempts - 1} in "
                              f"{delay:g}s", file=sys.stderr)
                        time_module.sleep(delay)
                        continue
                    print(f"repro query: {payload.get('error', exc)} "
                          f"(gave up after {attempts} attempt(s))",
                          file=sys.stderr)
                    return 1
                if "failure" in payload and payload["failure"] is not None:
                    failure = payload["failure"]
                    print(f"repro query: query FAILED ({failure['kind']}, "
                          f"{failure['attempts']} attempt(s)): "
                          f"{failure['error']}", file=sys.stderr)
                    return 1
                print(f"repro query: {payload.get('error', exc)}",
                      file=sys.stderr)
                return 2
            except (urllib.error.URLError, OSError) as exc:
                print(f"repro query: cannot reach {args.url}: {exc}",
                      file=sys.stderr)
                return 1
        assert payload is not None
        report = payload["report"]
        source = payload["provenance"]["source"]

    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(_format_feasibility(report, source))
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from .experiments.resilience import JournalError
    from .storage import format_fsck, fsck_run_dir

    try:
        report = fsck_run_dir(args.run_dir, sweep=args.sweep)
    except JournalError as exc:
        print(f"repro fsck: {exc}", file=sys.stderr)
        return 2
    print(format_fsck(report), end="")
    return 0 if report.ok else 1


def _cmd_fig6(args: argparse.Namespace) -> int:
    from .systemui.render import render_outcome_gallery

    print("Fig. 6 — possible outcomes of the notification view:")
    print(render_outcome_gallery())
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from .attacks.device_probe import DeviceProber

    prober = DeviceProber()
    if args.device:
        profiles = [_resolve_device(args.device, args.android)]
    else:
        profiles = DEVICES
    print(f"{'device':44s} {'source':>18s} {'chosen D (ms)':>14s}")
    for profile in profiles:
        result = prober.probe(profile)
        print(f"{profile.key:44s} {result.source:>18s} "
              f"{result.chosen_window_ms:14.0f}")
    return 0


def _fault_profile_names():
    from .sim.faults import PROFILES

    return tuple(sorted(PROFILES))


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one worker per core), got {value}"
        )
    return value


def _add_journal_options(parser: argparse.ArgumentParser, unit: str) -> None:
    """``--run-dir`` or ``--resume``: argparse rejects both (exit 2)."""
    journal = parser.add_mutually_exclusive_group()
    journal.add_argument("--run-dir", type=Path, default=None,
                         help=f"journal per-{unit} completions under this "
                              "directory (enables --resume later)")
    journal.add_argument("--resume", type=Path, default=None,
                         metavar="RUN_DIR",
                         help=f"resume a journaled run, re-running only the "
                              f"{unit}s missing from RUN_DIR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Implication of Animation on Android "
                    "Security' (ICDCS 2022)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the 30 evaluation devices")

    attack = sub.add_parser("attack", help="run the overlay attack once")
    attack.add_argument("--device", help="device model (default: pixel 2)")
    attack.add_argument("--android", help="Android version label, for "
                                          "ambiguous models (e.g. mi8)")
    attack.add_argument("--window", type=float, default=None,
                        help="attacking window D in ms (default: device "
                             "bound - 10)")
    attack.add_argument("--duration", type=float, default=5000.0,
                        help="attack duration in simulated ms")
    attack.add_argument("--seed", type=int, default=1)
    attack.add_argument("--faults", choices=_fault_profile_names(),
                        default="none",
                        help="deterministic fault-injection profile")

    diagram = sub.add_parser("diagram", help="render Fig. 3 / Fig. 5 charts")
    diagram.add_argument("figure", choices=("overlay", "toast"))
    diagram.add_argument("--device", help="device model")
    diagram.add_argument("--android", help="Android version label")
    diagram.add_argument("--duration", type=float, default=500.0)
    diagram.add_argument("--seed", type=int, default=2)

    report = sub.add_parser("report", help="run the full reproduction suite")
    report.add_argument("--scale", choices=tuple(SCALES),
                        default="quick")
    report.add_argument("--verbose", action="store_true",
                        help="per-experiment progress + timing appendix")
    report.add_argument("--jobs", type=_nonnegative_int, default=1,
                        help="worker processes (0 = one per core; results "
                             "are identical at any job count)")
    report.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk experiment result cache")
    report.add_argument("--cache-dir", type=Path, default=None,
                        help="cache root (default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro/experiments)")
    report.add_argument("--faults", choices=_fault_profile_names(),
                        default="none",
                        help="run every experiment under this fault "
                             "profile (cached separately per profile)")
    report.add_argument("--metrics-out", type=Path, default=None,
                        help="collect metrics during the run and write "
                             "metrics.jsonl + metrics.prom into this "
                             "directory (disables the result cache)")
    report.add_argument("--profile-dir", type=Path, default=None,
                        help="dump a cProfile <experiment>.prof per "
                             "experiment into this directory (disables "
                             "the result cache)")
    report.add_argument("--retries", type=_nonnegative_int, default=0,
                        help="retry each failed experiment up to N extra "
                             "times with deterministic backoff")
    report.add_argument("--deadline", type=float, default=None,
                        help="per-experiment wall-clock deadline in "
                             "seconds; overruns count as failures")
    report.add_argument("--fail-fast", action="store_true",
                        help="abort on the first permanent experiment "
                             "failure instead of degrading gracefully")
    report.add_argument("--failures-out", type=Path, default=None,
                        help="write a machine-readable JSON failure "
                             "summary to this file")
    _add_journal_options(report, "experiment")

    metrics = sub.add_parser(
        "metrics",
        help="run the suite with metrics collection and export the "
             "aggregated series",
    )
    metrics.add_argument("--scale", choices=tuple(SCALES),
                         default="quick")
    metrics.add_argument("--jobs", type=_nonnegative_int, default=1,
                         help="worker processes (0 = one per core)")
    metrics.add_argument("--faults", choices=_fault_profile_names(),
                         default="none",
                         help="deterministic fault-injection profile")
    metrics.add_argument("--out", type=Path, default=None,
                         help="write metrics.jsonl + metrics.prom here "
                              "(default: print Prometheus text to stdout)")

    claims = sub.add_parser(
        "claims", help="run the suite and check every paper claim "
                       "(exit 1 if any fails)")
    claims.add_argument("--scale", choices=tuple(SCALES), default="quick")

    experiments = sub.add_parser(
        "experiments", help="inspect the experiment / scenario registry"
    )
    experiments.add_argument(
        "--list", action="store_true",
        help="list runnable experiments and registered trial scenarios")
    experiments.add_argument(
        "--run", default=None, metavar="NAME",
        help="run one named experiment and print its result "
             "(exit 1 on failure)")
    experiments.add_argument("--scale", choices=tuple(SCALES),
                             default="quick")

    actors = sub.add_parser(
        "actors", help="inspect the attacker/user/channel model registries"
    )
    actors.add_argument(
        "--list", action="store_true",
        help="list registered behavior models (the default action)")

    campaign = sub.add_parser(
        "campaign",
        help="run a sharded fleet sweep over a ScenarioMatrix JSON spec",
    )
    campaign.add_argument("--matrix", type=Path, required=True,
                          help="JSON matrix spec (see "
                               "repro.experiments.campaign.matrix_from_spec)")
    campaign.add_argument("--shards", type=int, default=8,
                          help="work units the matrix is split into — the "
                               "checkpoint/retry granularity; never affects "
                               "results (default: 8)")
    campaign.add_argument("--jobs", type=_nonnegative_int, default=1,
                          help="worker processes (0 = one per core; "
                               "aggregates are identical at any job count)")
    campaign.add_argument("--group-by",
                          choices=("none", "device", "version", "faults"),
                          default="none",
                          help="aggregate trials separately per group "
                               "(default: one 'all' group)")
    campaign.add_argument("--out", type=Path, default=None,
                          help="write the canonical aggregates JSON here "
                               "(bit-identical across shard/job counts)")
    campaign.add_argument("--retries", type=_nonnegative_int, default=0,
                          help="retry each failed shard up to N extra times "
                               "with deterministic backoff")
    campaign.add_argument("--deadline", type=float, default=None,
                          help="per-shard wall-clock deadline in seconds; "
                               "overruns count as failures")
    campaign.add_argument("--fail-fast", action="store_true",
                          help="abort on the first permanent shard failure")
    campaign.add_argument("--verbose", action="store_true",
                          help="per-shard progress lines")
    _add_journal_options(campaign, "shard")

    serve = sub.add_parser(
        "serve",
        help="boot the attack-feasibility query service (HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks a free one; default: 8765)")
    serve.add_argument("--workers", type=int, default=2,
                       help="pool worker processes, each keeping a warm "
                            "stack pool between jobs (default: 2)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="admission high-watermark: requests beyond it "
                            "get 503 + Retry-After (default: 32)")
    serve.add_argument("--cache-dir", type=Path, default=None,
                       help="persist answered queries here (default: "
                            "memory-only, dies with the service)")
    serve.add_argument("--retries", type=_nonnegative_int, default=0,
                       help="retry each failed query up to N extra times "
                            "with deterministic backoff")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-query wall-clock deadline in seconds; "
                            "overruns degrade to structured failures")
    serve.add_argument("--breaker-window", type=int, default=16,
                       help="circuit-breaker outcome window (default: 16)")
    serve.add_argument("--breaker-failures", type=int, default=8,
                       help="failures in the window that open the breaker; "
                            "0 disables it (default: 8)")
    serve.add_argument("--breaker-cooldown", type=int, default=8,
                       help="requests an open breaker sheds before "
                            "admitting one half-open probe (default: 8)")
    serve.add_argument("--retry-after", type=float, default=1.0,
                       help="Retry-After seconds attached to shed 503 "
                            "responses (default: 1.0)")
    serve.set_defaults(fail_fast=False)

    query = sub.add_parser(
        "query",
        help="answer one feasibility query (in-process, or --url for a "
             "running service)",
    )
    query.add_argument("--device", required=True,
                       help="device model (e.g. 'pixel 2')")
    query.add_argument("--android", default=None,
                       help="Android version label, for ambiguous models")
    query.add_argument("--faults", choices=_fault_profile_names(),
                       default="none",
                       help="deterministic fault-injection profile")
    query.add_argument("--attacker", default="draw-and-destroy",
                       help="registered attacker model label")
    query.add_argument("--user", default="stochastic-human",
                       help="registered user model label")
    query.add_argument("--d-min", type=float, default=50.0,
                       help="smallest attacking window D in ms")
    query.add_argument("--d-max", type=float, default=200.0,
                       help="largest attacking window D in ms")
    query.add_argument("--d-step", type=float, default=25.0,
                       help="sweep step in ms")
    query.add_argument("--trials", type=int, default=3,
                       help="trials per grid point")
    query.add_argument("--trial-ms", type=float, default=2000.0,
                       help="simulated attack duration per trial")
    query.add_argument("--probe-chars", type=int, default=8,
                       help="characters typed in the capture probe "
                            "(0 skips it)")
    query.add_argument("--probe-trials", type=int, default=2)
    query.add_argument("--seed", type=int, default=20220701)
    query.add_argument("--url", default=None,
                       help="a running `repro serve` base URL "
                            "(e.g. http://127.0.0.1:8765); default is "
                            "in-process execution")
    query.add_argument("--timeout", type=float, default=600.0,
                       help="HTTP timeout in seconds (with --url)")
    query.add_argument("--retry", type=_nonnegative_int, default=5,
                       help="extra attempts when the service sheds with "
                            "503, honoring its Retry-After (with --url; "
                            "default: 5, 0 disables)")
    query.add_argument("--json", action="store_true",
                       help="print the raw report JSON instead of the "
                            "human summary")

    fsck = sub.add_parser(
        "fsck",
        help="verify a journaled run directory offline (envelope "
             "checksums, manifest consistency, orphaned temp files)",
    )
    fsck.add_argument("--run-dir", type=Path, required=True,
                      help="a --run-dir previously written by "
                           "`repro report` or `repro campaign`")
    fsck.add_argument("--sweep", action="store_true",
                      help="also unlink orphaned *.tmp files")

    sub.add_parser("fig6", help="render the five Λ outcomes (paper Fig. 6)")

    probe = sub.add_parser(
        "probe", help="show the malware's device-aware choice of D"
    )
    probe.add_argument("--device", help="device model (default: all 30)")
    probe.add_argument("--android", help="Android version label")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "devices": _cmd_devices,
        "attack": _cmd_attack,
        "diagram": _cmd_diagram,
        "report": _cmd_report,
        "metrics": _cmd_metrics,
        "claims": _cmd_claims,
        "experiments": _cmd_experiments,
        "actors": _cmd_actors,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "fsck": _cmd_fsck,
        "fig6": _cmd_fig6,
        "probe": _cmd_probe,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
