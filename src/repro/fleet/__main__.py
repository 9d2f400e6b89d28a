"""``python -m repro.fleet`` — run the fleet demo on localhost.

Spins up the fleet server plus N endpoint agents over real TCP sockets,
lets several endpoints per bug hit their corpus bug and report it, and
prints the fleet-wide diagnoses and service metrics.

Exit codes: 0 clean; 1 agent errors; 2 bad input (an unknown bug id,
or a fleet shape ``run_fleet`` refuses, such as fewer agents than bugs
or ``--monitor`` with several shards), or a fleet digest diverged from
the in-process diagnosis of the same bug (the correctness tripwire —
disable with ``--no-verify-digests``).
"""

from __future__ import annotations

import argparse
import sys

from repro.corpus import bug as corpus_bug
from repro.errors import FleetError, ReproError
from repro.fleet.chaos import FaultPlan
from repro.fleet.metrics import FleetMetrics
from repro.fleet.simulation import DEFAULT_BUGS, FleetConfig, run_fleet


def _verify_digests(result, metrics, config) -> list[str]:
    """Re-diagnose each fleet-diagnosed bug in process and compare
    digests.  Degraded digests are skipped (thinner evidence is not
    comparable); any other divergence is a correctness failure.

    The in-process server mirrors the fleet's stopping configuration —
    the evidence-equivalence contract says transport must not change
    the evidence, but the stopping *rule* legitimately does.
    """
    from repro.fleet.server import report_digest
    from repro.runtime import SnorlaxClient, SnorlaxServer

    mismatches: list[str] = []
    for signature, digest in sorted(result.digests.items()):
        if digest.get("degraded"):
            continue  # evidence was thinner than in-process; not comparable
        bug_id = signature.split("|", 1)[0]
        spec = corpus_bug(bug_id)
        client = SnorlaxClient(spec.module(), spec.workload, entry=spec.entry)
        failing = client.find_runs(True, 1)[0]
        server = SnorlaxServer(
            spec.module(),
            success_traces_wanted=config.success_traces_wanted,
            stopping=config.stopping,
            stability_window=config.stability_window,
            adaptive_min_traces=config.adaptive_min_traces,
        )
        report = server.diagnose(failing, client).report
        if config.validate:
            # the fleet stamped its reports post-diagnosis; mirror that
            # or every digest would "diverge" on the validation key
            from repro.validate import validate_report

            validate_report(
                spec.module(), spec.workload, report,
                entry=spec.entry, failing_seed=failing.seed,
            )
        expected = report_digest(report)
        if digest != expected:
            metrics.inc("digest_mismatches")
            mismatches.append(signature)
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Simulate a Snorlax fleet: endpoint agents reporting "
        "in-production concurrency failures to a central diagnosis server.",
    )
    parser.add_argument("--agents", type=int, default=50, help="fleet size")
    parser.add_argument(
        "--bugs",
        default=",".join(DEFAULT_BUGS),
        help="comma-separated corpus bug ids the fleet runs",
    )
    parser.add_argument(
        "--reporters",
        type=int,
        default=3,
        help="endpoints per bug that hit the bug and report it",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="diagnosis workers (default: auto-scale to the machine)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=8, help="job-queue bound (backpressure)"
    )
    parser.add_argument(
        "--traces", type=int, default=10, help="successful traces per diagnosis"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the analysis/trace caches (ablation)",
    )
    parser.add_argument(
        "--adaptive-traces",
        action="store_true",
        help="stop collecting once the top-ranked pattern is stable "
        "across --stability-window consecutive samples (instead of a "
        "fixed trace count)",
    )
    parser.add_argument(
        "--stability-window",
        type=int,
        default=3,
        metavar="K",
        help="consecutive stable top-pattern evaluations required by "
        "--adaptive-traces",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="after each diagnosis, replay the diagnosed order forced "
        "and inverse (repro.validate) and stamp the report "
        "validated/refuted",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run N fleet-server shards, consistent-hash routed by "
        "failure signature (default: one server; --monitor and "
        "--dashboard-port need one)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="SQLite diagnosis store: persists reports, points-to "
        "fixpoints, and decoded traces so restarts resume warm and "
        "shards deduplicate across each other",
    )
    chaos = parser.add_argument_group(
        "chaos", "deterministic fault injection (all rates are per-frame)"
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0, help="fault-plan seed"
    )
    chaos.add_argument(
        "--chaos-corrupt", type=float, default=0.0, metavar="RATE",
        help="flip a byte in an outbound frame",
    )
    chaos.add_argument(
        "--chaos-truncate", type=float, default=0.0, metavar="RATE",
        help="cut a frame (and its connection) short",
    )
    chaos.add_argument(
        "--chaos-drop", type=float, default=0.0, metavar="RATE",
        help="swallow an outbound trace response whole",
    )
    chaos.add_argument(
        "--chaos-delay", type=float, default=0.0, metavar="RATE",
        help="sleep before sending a frame",
    )
    chaos.add_argument(
        "--chaos-delay-max", type=float, default=0.05, metavar="S",
        help="maximum injected per-frame delay",
    )
    chaos.add_argument(
        "--chaos-crash", type=float, default=0.0, metavar="RATE",
        help="agent dies right before answering a trace request",
    )
    chaos.add_argument(
        "--chaos-max-crashes", type=int, default=2, metavar="N",
        help="injected crashes per agent before it behaves",
    )
    chaos.add_argument(
        "--chaos-restart-after", type=float, default=None, metavar="S",
        help="restart the fleet server S seconds into the run",
    )
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--reply-timeout", type=float, default=30.0, metavar="S",
        help="endpoint answer budget before a trace request is rerouted",
    )
    resilience.add_argument(
        "--request-timeout", type=float, default=120.0, metavar="S",
        help="total wall clock for one trace request, reroutes included",
    )
    resilience.add_argument(
        "--collection-deadline", type=float, default=None, metavar="S",
        help="degrade: diagnose with fewer traces after S seconds",
    )
    resilience.add_argument(
        "--frame-timeout", type=float, default=30.0, metavar="S",
        help="a started frame must finish arriving within S seconds",
    )
    monitor_group = parser.add_argument_group(
        "always-on monitoring", "continuous liveness + anomaly-triggered diagnosis"
    )
    monitor_group.add_argument(
        "--monitor", action="store_true",
        help="population endpoints run monitor loops (heartbeats + "
        "sampled telemetry) so the server diagnoses anomalies unprompted",
    )
    monitor_group.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="S",
        help="monitor-loop heartbeat cadence",
    )
    monitor_group.add_argument(
        "--sample-interval", type=float, default=0.5, metavar="S",
        help="monitor-loop execution-sampling cadence",
    )
    monitor_group.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="S",
        help="evict endpoints silent past S seconds (stale-connection "
        "reaping; default: no eviction)",
    )
    monitor_group.add_argument(
        "--dashboard-port", type=int, default=None, metavar="PORT",
        help="serve the live fleet dashboard on http://HOST:PORT/ "
        "(0 picks a free port)",
    )
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run's span tree as JSONL (enables tracing)",
    )
    obs_group.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text format on http://HOST:PORT/metrics "
        "during the run (0 picks a free port)",
    )
    obs_group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final Prometheus scrape to PATH (implies "
        "--metrics-port 0 when no port was given)",
    )
    obs_group.add_argument(
        "--profile", action="store_true",
        help="sample stacks during each diagnosis (flight recorder)",
    )
    obs_group.add_argument(
        "--verify-digests", action="store_true", default=True,
        help="re-diagnose each bug in process and fail (exit 2) on "
        "digest divergence (default)",
    )
    obs_group.add_argument(
        "--no-verify-digests", dest="verify_digests", action="store_false",
        help="skip the in-process digest cross-check",
    )
    args = parser.parse_args(argv)
    bug_ids = tuple(b.strip() for b in args.bugs.split(",") if b.strip())
    try:
        for bug_id in bug_ids:
            corpus_bug(bug_id)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plan = FaultPlan(
        seed=args.chaos_seed,
        corrupt_rate=args.chaos_corrupt,
        truncate_rate=args.chaos_truncate,
        drop_rate=args.chaos_drop,
        delay_rate=args.chaos_delay,
        max_delay_s=args.chaos_delay_max,
        crash_rate=args.chaos_crash,
        max_crashes_per_agent=args.chaos_max_crashes,
        server_restart_after_s=args.chaos_restart_after,
    )
    metrics_port = args.metrics_port
    if metrics_port is None and args.metrics_out is not None:
        metrics_port = 0  # the scrape artifact needs a live endpoint
    config = FleetConfig(
        agents=args.agents,
        bug_ids=bug_ids,
        reporters_per_bug=args.reporters,
        workers=args.workers,
        max_pending=args.max_pending,
        success_traces_wanted=args.traces,
        cache_enabled=not args.no_cache,
        stopping="stable-top" if args.adaptive_traces else "fixed",
        stability_window=args.stability_window,
        validate=args.validate,
        shards=args.shards,
        store_path=args.store,
        chaos=plan if plan.active else None,
        trace_reply_timeout=args.reply_timeout,
        request_timeout=args.request_timeout,
        collection_deadline_s=args.collection_deadline,
        frame_timeout=args.frame_timeout,
        trace_out=args.trace_out,
        metrics_port=metrics_port,
        profile=args.profile,
        monitoring=args.monitor,
        heartbeat_interval_s=args.heartbeat_interval,
        sample_interval_s=args.sample_interval,
        heartbeat_timeout_s=args.heartbeat_timeout,
        dashboard_port=args.dashboard_port,
    )
    metrics = FleetMetrics()
    try:
        result = run_fleet(config, metrics=metrics)
    except FleetError as exc:  # set-up refused the fleet shape or store
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mismatches: list[str] = []
    if args.verify_digests:
        mismatches = _verify_digests(result, metrics, config)

    print(result.render())
    print()
    print(metrics.render())
    if args.trace_out is not None:
        print(f"\nspan trace: {result.spans_written} spans -> {args.trace_out}")
    if result.dashboard_url is not None:
        print(f"dashboard served at {result.dashboard_url} during the run")
    if args.metrics_out is not None and result.prometheus_scrape is not None:
        with open(args.metrics_out, "w") as fh:
            fh.write(result.prometheus_scrape)
        print(f"prometheus scrape -> {args.metrics_out}")
    errors = [o for o in result.outcomes if o.error]
    for outcome in errors[:5]:
        print(f"agent error: {outcome.agent_id}: {outcome.error}", file=sys.stderr)
    for signature in mismatches:
        print(
            f"DIGEST MISMATCH: fleet diagnosis of {signature} diverged "
            "from the in-process diagnosis",
            file=sys.stderr,
        )
    if mismatches:
        return 2
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
