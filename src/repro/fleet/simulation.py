"""Fleet simulation: ≥50 endpoint agents over real localhost sockets.

This is the repo's stand-in for the paper's production deployment: a
:class:`~repro.fleet.shard.ShardedFleet` of one or more
:class:`FleetServer` shards (one is the single-server fleet), and N
:class:`FleetAgent` threads connected over TCP, each assigned a corpus
bug.  A configurable subset of each bug's agents actually hits the bug
and reports it (all endpoints of a bug fail the same way, so their
signatures collide — that is the point: the dedup path is the common
case in a fleet); the rest serve as the population successful traces
are collected from.

``run_fleet`` returns a :class:`FleetRunResult` with per-agent
outcomes, the per-signature diagnosis digests, and the full metrics
snapshot — what the throughput benchmark and ``python -m repro.fleet``
both consume.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.api import SchedulerPolicy
from repro.errors import FleetError
from repro.fleet.agent import FleetAgent, MonitorLoop
from repro.fleet.chaos import FaultPlan
from repro.fleet.metrics import FleetMetrics
from repro.fleet.server import render_digest
from repro.fleet.shard import ShardedFleet, signature_for_failure
from repro.obs import MetricsHTTPServer, Observability, write_trace_jsonl

DEFAULT_BUGS = ("pbzip2-n/a", "memcached-271", "aget-2")


@dataclass
class FleetConfig:
    agents: int = 50
    bug_ids: tuple[str, ...] = DEFAULT_BUGS
    reporters_per_bug: int = 3
    workers: int | None = 3  # None: auto-scale to the machine
    max_pending: int = 8
    success_traces_wanted: int = 10
    cache_enabled: bool = True
    # "fixed": stop at success_traces_wanted; "stable-top": stop when the
    # top-ranked pattern is stable across stability_window samples
    stopping: str = "fixed"
    stability_window: int = 3
    adaptive_min_traces: int = 4
    host: str = "127.0.0.1"
    timeout: float = 600.0
    # -- sharding & persistence --------------------------------------------
    # FleetServer shards, consistent-hash routed by failure signature
    # (1: the single-server fleet)
    shards: int = 1
    # SQLite DiagnosisStore path; None: no persistence.  ":memory:" is
    # valid for tests.  Shards always share the one store.
    store_path: str | None = None
    # -- validation --------------------------------------------------------
    # post-report validation: replay each diagnosed order (forced +
    # inverse) via repro.validate and stamp reports validated/refuted
    validate: bool = False
    # scheduler policy endpoints collect under (cache-key input)
    collection_policy: SchedulerPolicy = field(default_factory=SchedulerPolicy)
    # -- resilience knobs --------------------------------------------------
    # seed-driven fault injection (None: a polite network)
    chaos: FaultPlan | None = None
    request_timeout: float = 120.0  # one trace request, reroutes included
    trace_reply_timeout: float = 30.0  # one endpoint's answer, then reroute
    collection_deadline_s: float | None = None  # degrade past this
    min_success_traces: int = 1
    agent_reconnect_attempts: int = 8
    frame_timeout: float = 30.0  # started frames must finish in this
    # -- observability -----------------------------------------------------
    trace_out: str | None = None  # write the span tree here (JSONL)
    metrics_port: int | None = None  # serve Prometheus /metrics (0: any)
    profile: bool = False  # sample stacks during each diagnosis
    obs: Observability | None = None  # bring your own bundle
    # -- always-on monitoring ----------------------------------------------
    # population agents run MonitorLoops (heartbeats + sampled telemetry)
    # instead of passively serving; the server's anomaly detector can
    # then trigger diagnoses unprompted.  Monitoring and the dashboard
    # need shards == 1.
    monitoring: bool = False
    heartbeat_interval_s: float = 1.0
    sample_interval_s: float = 0.5
    # evict conns silent past this (None: no liveness eviction)
    heartbeat_timeout_s: float | None = None
    dashboard_port: int | None = None  # serve the live dashboard (0: any)


@dataclass
class AgentOutcome:
    agent_id: str
    bug_id: str
    reporter: bool
    signature: str | None = None
    digest: dict | None = None
    error: str | None = None
    trace_requests_served: int = 0
    rejections: int = 0
    reconnects: int = 0
    faults_injected: dict = field(default_factory=dict)  # chaos counts


@dataclass
class FleetRunResult:
    config: FleetConfig
    elapsed: float
    metrics: dict
    outcomes: list[AgentOutcome]
    digests: dict[str, dict] = field(default_factory=dict)  # signature -> digest
    # observability artifacts of this run
    spans_written: int = 0  # spans written to config.trace_out
    metrics_url: str | None = None  # Prometheus endpoint while running
    dashboard_url: str | None = None  # live dashboard while running
    # the final GET /metrics body, fetched over HTTP just before the
    # endpoint shut down (None when metrics_port was not set)
    prometheus_scrape: str | None = None
    obs: Observability | None = None  # the bundle the run recorded into

    @property
    def failures_received(self) -> int:
        return self.metrics["counters"].get("failures_received", 0)

    @property
    def diagnoses_completed(self) -> int:
        return self.metrics["counters"].get("diagnoses_completed", 0)

    @property
    def dedup_hits(self) -> int:
        return self.metrics["counters"].get("jobs_deduplicated", 0)

    @property
    def failures_per_sec(self) -> float:
        return self.failures_received / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def median_diagnosis_latency_s(self) -> float:
        timer = self.metrics["timers"].get("diagnosis_latency")
        return timer["median_s"] if timer else 0.0

    @property
    def analysis_cache_hits(self) -> int:
        return self.metrics["counters"].get("analysis_cache_hits", 0)

    @property
    def trace_cache_hits(self) -> int:
        return self.metrics["counters"].get("trace_cache_hits", 0)

    @property
    def cache_hits(self) -> int:
        return self.analysis_cache_hits + self.trace_cache_hits

    @property
    def cache_hit_rate(self) -> float:
        counters = self.metrics["counters"]
        lookups = self.cache_hits + counters.get(
            "analysis_cache_misses", 0
        ) + counters.get("trace_cache_misses", 0)
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def degraded_collections(self) -> int:
        return self.metrics["counters"].get("degraded_collections", 0)

    # -- always-on monitoring counters --------------------------------------

    @property
    def heartbeats_received(self) -> int:
        return self.metrics["counters"].get("heartbeats_received", 0)

    @property
    def monitor_samples_received(self) -> int:
        return self.metrics["counters"].get("monitor_samples_received", 0)

    @property
    def anomaly_triggers(self) -> int:
        return self.metrics["counters"].get("anomaly_triggers", 0)

    # -- persistence & sharding counters -----------------------------------

    @property
    def store_hits(self) -> int:
        return self.metrics["counters"].get("store_hits", 0)

    @property
    def store_misses(self) -> int:
        return self.metrics["counters"].get("store_misses", 0)

    @property
    def store_writes(self) -> int:
        return self.metrics["counters"].get("store_writes", 0)

    @property
    def diagnoses_from_store(self) -> int:
        """Failure reports answered straight from the persistent store
        (no pipeline run, no job queue) — the cross-process/cross-shard
        dedup path."""
        return self.metrics["counters"].get("diagnoses_from_store", 0)

    @property
    def shard_routes(self) -> int:
        return self.metrics["counters"].get("shard_routes", 0)

    @property
    def reconnects(self) -> int:
        return sum(o.reconnects for o in self.outcomes)

    @property
    def faults_injected(self) -> int:
        return sum(
            v
            for k, v in self.metrics["counters"].items()
            if k.startswith("chaos_")
        )

    def render(self) -> str:
        reporters = [o for o in self.outcomes if o.reporter]
        failed = [o for o in self.outcomes if o.error]
        lines = [
            "=== fleet run ===",
            f"agents:            {len(self.outcomes)} "
            f"({len(reporters)} reporting, across {len(self.config.bug_ids)} bugs)",
            f"elapsed:           {self.elapsed:.2f}s",
            f"failures received: {self.failures_received} "
            f"({self.failures_per_sec:.1f}/s)",
            f"diagnoses run:     {self.diagnoses_completed} "
            f"(dedup folded {self.dedup_hits} reports)",
            f"median latency:    {self.median_diagnosis_latency_s * 1000:.0f} ms "
            f"per diagnosis",
            f"cache hits:        {self.cache_hits} "
            f"({self.cache_hit_rate:.0%} of lookups; "
            f"{self.analysis_cache_hits} analysis, {self.trace_cache_hits} trace)",
            f"agent errors:      {len(failed)}",
        ]
        if self.config.monitoring:
            lines.append(
                f"monitoring:        {self.heartbeats_received} heartbeats, "
                f"{self.monitor_samples_received} samples, "
                f"{self.anomaly_triggers} anomaly triggers"
            )
        timers = self.metrics.get("timers", {})
        collect = timers.get("stage_collect")
        decode = timers.get("stage_decode")
        if collect or decode:

            def _stage(t):
                if not t:
                    return "n/a"
                p95 = t.get("p95_s", t.get("max_s", 0.0))
                return f"p50 {t['median_s'] * 1000:.0f} ms / p95 {p95 * 1000:.0f} ms"

            lines.append(
                f"collection stages: collect {_stage(collect)}; "
                f"decode {_stage(decode)}"
            )
        if self.config.shards > 1:
            lines.append(
                f"shards:            {self.config.shards} "
                f"({self.shard_routes} signatures routed)"
            )
        if self.config.store_path is not None:
            lines.append(
                f"store:             {self.config.store_path} "
                f"({self.store_hits} hits, {self.store_misses} misses, "
                f"{self.store_writes} writes; "
                f"{self.diagnoses_from_store} diagnoses served from store)"
            )
        if self.config.chaos is not None and self.config.chaos.active:
            counters = self.metrics["counters"]
            chaos = ", ".join(
                f"{k.removeprefix('chaos_')}={v}"
                for k, v in sorted(counters.items())
                if k.startswith("chaos_")
            )
            lines.append(
                f"chaos:             {self.faults_injected} faults injected "
                f"({chaos or 'none landed'})"
            )
            lines.append(
                f"resilience:        {self.reconnects} agent reconnects, "
                f"{counters.get('trace_request_timeouts', 0)} request timeouts, "
                f"{counters.get('trace_request_reroutes', 0)} reroutes, "
                f"{counters.get('server_restarts', 0)} server restarts, "
                f"{self.degraded_collections} degraded collections"
            )
        for signature, digest in sorted(self.digests.items()):
            lines.append(f"--- {signature} ---")
            lines.append(render_digest(digest))
        return "\n".join(lines)


def run_fleet(
    config: FleetConfig | None = None,
    metrics: FleetMetrics | None = None,
    caches=None,
) -> FleetRunResult:
    """Run one fleet simulation.

    The fleet is always a :class:`ShardedFleet`; ``shards=1`` (the
    default) is the single-server deployment.  Reporters route
    *themselves*: each finds its failure offline (no connection
    needed), computes the signature the server would, hashes it onto
    the ring, and connects to the owning shard.  Population
    (non-reporting) agents connect to **every** shard — one thread per
    (agent, shard) — so each shard sees the full endpoint pool for
    trace collection, the same way a production endpoint would register
    with whichever frontends exist.  Endpoint ids are the agent ids;
    only a multi-shard run suffixes them with ``@shard-k``.

    Chaos ``server_restart_after_s`` kills the shard that owns the
    first routed signature (the one with in-flight work).  Monitoring
    and the dashboard read one shard's detector and status, so they
    need ``shards=1``.

    Passing ``caches`` (a :class:`~repro.core.cache.DiagnosisCaches`)
    keeps the servers' analysis/trace caches warm across runs — the
    warm-restart scenario the cache benchmark measures."""
    cfg = config or FleetConfig()
    if cfg.agents < len(cfg.bug_ids):
        raise FleetError("need at least one agent per bug")
    if cfg.shards < 1:
        raise FleetError("a fleet needs at least one shard")
    if cfg.shards > 1 and (cfg.monitoring or cfg.dashboard_port is not None):
        raise FleetError("monitoring and the dashboard need a single shard")
    from repro.corpus import bug as corpus_bug

    specs = [corpus_bug(bug_id) for bug_id in cfg.bug_ids]
    for spec in specs:
        spec.module()  # build (and cache) before threads share it

    store = None
    if cfg.store_path is not None:
        from repro.store import DiagnosisStore

        store = DiagnosisStore(cfg.store_path)
    metrics = metrics or FleetMetrics()
    # tracing is opt-in: only build an enabled tracer when someone will
    # consume the spans (a long-lived disabled fleet must not accumulate
    # span memory).  The registry is always the shared fleet metrics.
    obs = cfg.obs
    if obs is None and (cfg.trace_out is not None or cfg.profile):
        obs = Observability(registry=metrics, profile=cfg.profile)
    fleet = ShardedFleet(
        shards=cfg.shards,
        store=store,
        host=cfg.host,
        metrics=metrics,
        obs=obs,
        workers=cfg.workers,
        max_pending=cfg.max_pending,
        success_traces_wanted=cfg.success_traces_wanted,
        caches=caches,
        enable_caches=cfg.cache_enabled,
        stopping=cfg.stopping,
        stability_window=cfg.stability_window,
        adaptive_min_traces=cfg.adaptive_min_traces,
        request_timeout=cfg.request_timeout,
        trace_reply_timeout=cfg.trace_reply_timeout,
        collection_deadline_s=cfg.collection_deadline_s,
        min_success_traces=cfg.min_success_traces,
        frame_timeout=cfg.frame_timeout,
        collection_policy=cfg.collection_policy,
        validate=cfg.validate,
        heartbeat_timeout_s=cfg.heartbeat_timeout_s,
        dashboard_port=cfg.dashboard_port,
    )
    addresses = fleet.start()
    dashboard = fleet.servers[fleet.shard_names[0]].dashboard
    dashboard_url = dashboard.url if dashboard is not None else None
    metrics_server = None
    if cfg.metrics_port is not None:
        metrics_server = MetricsHTTPServer(
            metrics, host=cfg.host, port=cfg.metrics_port
        )
        metrics_server.start()

    stop = threading.Event()
    outcomes: list[AgentOutcome] = []
    per_bug_count: dict[str, int] = {}
    assignments: list[tuple[object, bool]] = []
    for i in range(cfg.agents):
        spec = specs[i % len(specs)]
        seen = per_bug_count.get(spec.bug_id, 0)
        per_bug_count[spec.bug_id] = seen + 1
        reporter = seen < cfg.reporters_per_bug
        assignments.append((spec, reporter))
        outcomes.append(AgentOutcome(f"agent-{i:03d}", spec.bug_id, reporter))

    reporters_total = sum(1 for _, r in assignments if r)
    state_lock = threading.Lock()
    reporters_done = [0]
    routed: dict[str, str] = {}  # signature -> owning shard name

    def endpoint_main(index: int, endpoint_id: str, shard_name: str | None) -> None:
        """One endpoint thread.  A reporter (``shard_name`` None) finds
        its failure, routes it and reports to the owning shard; every
        endpoint then serves trace requests (or monitors) until stopped."""
        spec, reporter = assignments[index]
        outcome = outcomes[index]
        engine = None
        if cfg.chaos is not None and cfg.chaos.wraps_sockets:
            engine = cfg.chaos.engine(endpoint_id)
        agent = FleetAgent.from_spec(
            endpoint_id,
            spec,
            cfg.host,
            0,  # placeholder; the shard decides the real address
            fault_engine=engine,
            reconnect_attempts=cfg.agent_reconnect_attempts,
            frame_timeout=cfg.frame_timeout,
        )
        try:
            if reporter:
                try:
                    failing_run = agent.find_failure()
                    signature = signature_for_failure(spec.bug_id, failing_run)
                    shard_name = fleet.route(signature)
                    with state_lock:
                        routed.setdefault(signature, shard_name)
                    agent.host, agent.port = addresses[shard_name]
                    agent.connect_resilient(stop)
                    result = agent.report_failure(failing_run, stop=stop)
                    outcome.signature = result.signature
                    outcome.digest = result.digest
                finally:
                    with state_lock:
                        reporters_done[0] += 1
            else:
                agent.host, agent.port = addresses[shard_name]
                agent.connect_resilient(stop)
            if cfg.monitoring:
                MonitorLoop(
                    agent,
                    heartbeat_interval_s=cfg.heartbeat_interval_s,
                    sample_interval_s=cfg.sample_interval_s,
                ).run(stop)
            else:
                agent.serve_until(stop)
        except Exception as exc:  # recorded, never raised into the pool
            with state_lock:
                if outcome.error is None:
                    outcome.error = f"{type(exc).__name__}: {exc}"
        finally:
            agent.close()
            faults = dict(engine.counts) if engine is not None else {}
            with state_lock:
                outcome.trace_requests_served += agent.trace_requests_served
                outcome.rejections += agent.rejections
                outcome.reconnects += agent.reconnects
                for fault, count in faults.items():
                    outcome.faults_injected[fault] = (
                        outcome.faults_injected.get(fault, 0) + count
                    )
            for fault, count in faults.items():
                metrics.inc(f"chaos_{fault}", count)

    # an injected shard restart mid-run: agents must reconnect, reporters
    # must re-report, in-flight collections must reroute
    restart_timer: threading.Timer | None = None
    if cfg.chaos is not None and cfg.chaos.server_restart_after_s is not None:

        def _restart_quietly() -> None:
            with state_lock:
                target = next(iter(routed.values()), fleet.shard_names[0])
            try:
                fleet.restart_shard(target)
            except FleetError:
                pass  # the run finished first; nothing left to restart

        restart_timer = threading.Timer(
            cfg.chaos.server_restart_after_s, _restart_quietly
        )
        restart_timer.daemon = True
        restart_timer.start()

    threads: list[threading.Thread] = []
    for i, (_, reporter) in enumerate(assignments):
        agent_id = outcomes[i].agent_id
        for shard_name in [None] if reporter else fleet.shard_names:
            endpoint_id = (
                agent_id if reporter or cfg.shards == 1
                else f"{agent_id}@{shard_name}"
            )
            threads.append(
                threading.Thread(
                    target=endpoint_main,
                    args=(i, endpoint_id, shard_name),
                    name=endpoint_id,
                )
            )

    started = time.perf_counter()
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + cfg.timeout
    try:
        while time.monotonic() < deadline:
            with state_lock:
                if reporters_done[0] >= reporters_total:
                    break
            time.sleep(0.05)
    finally:
        elapsed = time.perf_counter() - started
        stop.set()
        if restart_timer is not None:
            restart_timer.cancel()
        for thread in threads:
            thread.join(timeout=30)
        prometheus_scrape = None
        if metrics_server is not None:
            from urllib.request import urlopen

            try:
                with urlopen(metrics_server.url, timeout=5) as resp:
                    prometheus_scrape = resp.read().decode()
            except OSError:
                pass  # endpoint raced shutdown; the run itself succeeded
            metrics_server.stop()
        fleet.stop()
        if store is not None:
            store.close()

    digests: dict[str, dict] = {}
    for outcome in outcomes:
        if outcome.signature is not None and outcome.digest is not None:
            digests[outcome.signature] = outcome.digest
    spans_written = 0
    if cfg.trace_out is not None and obs is not None:
        spans_written = write_trace_jsonl(cfg.trace_out, obs.tracer)
    return FleetRunResult(
        config=cfg,
        elapsed=elapsed,
        metrics=metrics.as_dict(),
        outcomes=outcomes,
        digests=digests,
        spans_written=spans_written,
        metrics_url=metrics_server.url if metrics_server is not None else None,
        dashboard_url=dashboard_url,
        prometheus_scrape=prometheus_scrape,
        obs=obs,
    )
