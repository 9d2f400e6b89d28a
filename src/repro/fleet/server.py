"""The fleet diagnosis server: many endpoints, one Snorlax per bug.

This is Figure 2's deployment model made concrete: an asyncio TCP
server accepts connections from endpoint agents, receives
``FailureEnvelope``s (step 1), and — per failure signature — runs the
existing single-machine ``SnorlaxServer`` collection policy with the
network as its transport: every speculative wave of
``collect_traces_via`` is striped over the live endpoints running the
same program, one batch frame per endpoint (step 8), and the CPU-bound
``LazyDiagnosis`` runs on the bounded worker pool of
:mod:`repro.fleet.jobs`.

Because trace collection is deterministic in (seed, breakpoints, skip)
and endpoint executions are deterministic in the seed, the fleet's
diagnosis of a failure is byte-for-byte the report the in-process
``SnorlaxServer.diagnose`` produces for the same module and
seeds — which endpoint serves each request never matters.  The
end-to-end test asserts exactly that equivalence.

Threading model: all connection state lives on the event loop thread.
Worker threads reach the network only through
``asyncio.run_coroutine_threadsafe``; results travel back through
``call_soon_threadsafe``.  The public ``start``/``stop`` API hides the
loop in a background thread so synchronous callers (tests, the
simulation, ``__main__``) can drive the server like any other object.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Callable

from repro.core.cache import (
    CollectedEvidence,
    CollectedEvidenceCache,
    DiagnosisCaches,
)
from repro.core.pipeline import PipelineConfig
from repro.core.report import DiagnosisReport
from repro.errors import FleetError, WireError
from repro.fleet.anomaly import EwmaAnomalyDetector
from repro.fleet.jobs import DiagnosisJobQueue, JobRejected, QueueClosed
from repro.fleet.metrics import FleetMetrics
from repro.fleet.wire import (
    DiagnosisResult,
    FailureEnvelope,
    Goodbye,
    Heartbeat,
    Hello,
    MonitorSample,
    Reject,
    TraceBatchRequest,
    TraceBatchResponse,
    WireFault,
    encode_frame,
    read_frame_async,
)
from repro.ir.module import Module
from repro.obs import Observability, render_flight_recorder
from repro.obs.tracer import NULL_TRACER
from repro.provenance import EvidenceGraph, build_evidence_graph, report_key
from repro.runtime.protocol import FailureNotification, TraceRequest, TraceResponse
from repro.runtime.server import SnorlaxServer

# cap on trace requests per agent per wave round: keeps one slow
# endpoint from hoarding a whole wave, and bounds the reply budget
AGENT_BATCH_MAX = 8


def failure_signature(env: FailureEnvelope) -> str:
    """The dedup key: same program, same failure kind, same failing PC.

    N endpoints crashing at the same instruction of the same bug are one
    fleet-wide diagnosis, not N."""
    kind = env.sample.failure.kind if env.sample.failure is not None else "unknown"
    return f"{env.bug_id}|{kind}|{env.notification.failing_uid}"


def report_digest(report: DiagnosisReport) -> dict:
    """The wire form of a diagnosis: everything deterministic in the
    evidence (timings excluded), so fleet and in-process reports for the
    same module/seeds compare equal."""
    st = report.stage_stats
    digest: dict = {
        "bug_kind": report.bug_kind,
        "failing_uid": report.failing_uid,
        "diagnosed": report.diagnosed,
        "root_cause": None,
        "f1": None,
        "precision": None,
        "recall": None,
        "target_events": [
            [e.uid, e.role, e.thread_slot, e.location, e.function]
            for e in report.target_events
        ],
        "unordered_candidates": [
            [e.uid, e.role, e.location, e.function]
            for e in report.unordered_candidates
        ],
        "ranked_patterns": [str(p) for p in report.ranked_patterns],
        "notes": list(report.notes),
        "stage_funnel": {
            "program_instructions": st.program_instructions,
            "executed_instructions": st.executed_instructions,
            "alias_candidates": st.alias_candidates,
            "rank1_candidates": st.rank1_candidates,
            "patterns_generated": st.patterns_generated,
            "patterns_top_f1": st.patterns_top_f1,
            "candidates_explored": st.candidates_explored,
        },
        # graceful degradation: True when the collection deadline expired
        # before success_traces_wanted traces arrived (scarce endpoints)
        "degraded": report.degraded,
    }
    if report.root_cause is not None:
        digest["root_cause"] = str(report.root_cause.signature)
        digest["f1"] = report.root_cause.f1
        digest["precision"] = report.root_cause.precision
        digest["recall"] = report.root_cause.recall
    # only validated fleets carry the key at all, so digests from
    # non-validating servers stay byte-compatible with older peers
    if report.validation is not None:
        digest["validation"] = report.validation
    return digest


def render_digest(digest: dict) -> str:
    lines = [
        f"bug kind:   {digest['bug_kind']}",
        f"failing PC: uid={digest['failing_uid']}",
    ]
    if digest.get("degraded"):
        lines.append("evidence:   DEGRADED (collection deadline hit)")
    if digest["root_cause"] is None:
        lines.append("root cause: NOT DIAGNOSED")
    else:
        lines.append(f"root cause: {digest['root_cause']}")
        lines.append(
            f"evidence:   F1={digest['f1']:.3f} "
            f"(P={digest['precision']:.2f}, R={digest['recall']:.2f})"
        )
        for uid, role, slot, location, function in digest["target_events"]:
            lines.append(f"  [{role}] T{slot} {function} at {location} (uid={uid})")
    if "validation" in digest:
        lines.append(f"validation: {digest['validation']['status'].upper()}")
    return "\n".join(lines)


def _corpus_resolver(bug_id: str) -> Module:
    from repro.corpus import bug

    return bug(bug_id).module()


def _corpus_workload_resolver(bug_id: str):
    """Default workload lookup for validation: the corpus spec's
    workload and entry point.  Returns (workload, entry)."""
    from repro.corpus import bug

    spec = bug(bug_id)
    return spec.workload, spec.entry


@dataclass
class AgentConn:
    """One endpoint's connection, as the event loop sees it."""

    agent_id: str
    bug_id: str
    writer: asyncio.StreamWriter
    pending: dict[int, asyncio.Future] = field(default_factory=dict)
    alive: bool = True
    # -- liveness (always-on monitoring) -----------------------------------
    last_seen: float = 0.0  # detector-clock time of the last frame
    heartbeats: int = 0  # heartbeat frames received on this conn
    monitored: bool = False  # has this conn ever heartbeaten?
    samples_sent: int = 0  # the agent's cumulative monitor counter
    failures_seen: int = 0

    def fail_pending(self, exc: Exception) -> None:
        for future in self.pending.values():
            if not future.done():
                future.set_exception(exc)
        self.pending.clear()


class FleetServer:
    """Accepts a fleet of agents; diagnoses each failure signature once."""

    def __init__(
        self,
        module_resolver: Callable[[str], Module] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = 2,
        max_pending: int = 8,
        retry_after: float = 0.25,
        success_traces_wanted: int = 10,
        start_seed: int = 10_000,
        config: PipelineConfig | None = None,
        metrics: FleetMetrics | None = None,
        request_timeout: float = 120.0,
        caches: DiagnosisCaches | None = None,
        enable_caches: bool = True,
        stopping: str = "fixed",
        stability_window: int = 3,
        adaptive_min_traces: int = 4,
        trace_reply_timeout: float = 30.0,
        reroute_backoff_base_s: float = 0.02,
        reroute_backoff_cap_s: float = 0.5,
        collection_deadline_s: float | None = None,
        min_success_traces: int = 1,
        frame_timeout: float = 30.0,
        obs: Observability | None = None,
        store=None,
        collection_policy=None,
        validate: bool = False,
        workload_resolver=None,
        heartbeat_timeout_s: float | None = None,
        prune_interval_s: float | None = None,
        anomaly_detector: EwmaAnomalyDetector | None = None,
        dashboard_port: int | None = None,
        clock: Callable[[], float] | None = None,
        timeline_limit: int = 256,
    ):
        self.host = host
        self.port = port
        self.config = config or PipelineConfig()
        self.success_traces_wanted = success_traces_wanted
        self.start_seed = start_seed
        # request_timeout bounds one trace request end to end (all
        # reroutes included); trace_reply_timeout bounds one endpoint's
        # answer before the request is rerouted to another endpoint
        self.request_timeout = request_timeout
        self.trace_reply_timeout = trace_reply_timeout
        self.reroute_backoff_base_s = reroute_backoff_base_s
        self.reroute_backoff_cap_s = reroute_backoff_cap_s
        # graceful degradation: when set, stop collecting at the deadline
        # and diagnose with what arrived (>= min_success_traces)
        self.collection_deadline_s = collection_deadline_s
        self.min_success_traces = min_success_traces
        # bound a started frame's payload: a corrupted length field must
        # sever the connection, not wedge its reader forever
        self.frame_timeout = frame_timeout
        # adaptive stopping config, forwarded to the per-job SnorlaxServer
        self.stopping = stopping
        self.stability_window = stability_window
        self.adaptive_min_traces = adaptive_min_traces
        # the scheduler policy endpoints collect under; part of the
        # collection policy, so the evidence cache must key on it
        from repro.api import SchedulerPolicy

        self.collection_policy = collection_policy or SchedulerPolicy()
        # post-report validation: replay the diagnosed order (forced +
        # inverse) and stamp the report validated/refuted
        self.validate = validate
        self._workload_resolver = workload_resolver or _corpus_workload_resolver
        # the server-lifetime caches every diagnosis shares; passing a
        # caches object in lets a fleet keep them warm across restarts.
        # With a persistent store (and no explicit caches) they become
        # write-through: a fresh server process hydrates fixpoints and
        # decoded traces from disk instead of re-deriving them.
        self.store = store
        if not enable_caches:
            self.caches = None
        elif caches is not None:
            self.caches = caches
        elif store is not None:
            from repro.store import persistent_caches

            self.caches = persistent_caches(store)
        else:
            self.caches = DiagnosisCaches()
        # one registry for the whole service: an explicit Observability
        # bundle brings its own (so spans and counters agree), otherwise
        # the fleet's metrics double as the registry with tracing off —
        # either way the pipeline, solver, and caches record into the
        # same place the Prometheus endpoint scrapes.
        if metrics is None and obs is not None:
            metrics = obs.registry  # type: ignore[assignment]
        self.metrics = metrics or FleetMetrics()
        self.obs = obs or Observability(
            tracer=NULL_TRACER, registry=self.metrics
        )
        self.jobs = DiagnosisJobQueue(
            workers=workers,
            max_pending=max_pending,
            retry_after=retry_after,
            metrics=self.metrics,
            tracer=self.obs.tracer,
        )
        if self.store is not None:
            self.jobs.add_completion_listener(self._persist_report)
        self._resolver = module_resolver or _corpus_resolver
        self._modules: dict[str, Module] = {}
        self._module_lock = threading.Lock()
        # -- always-on monitoring ----------------------------------------
        # liveness: a conn silent for heartbeat_timeout_s (detector-clock
        # seconds) is evicted from rotation; None disables eviction (the
        # request/response fleets never heartbeat)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        # real-seconds cadence of the prune task (the timeout itself is
        # measured on the detector clock, which a soak may compress)
        if prune_interval_s is None and heartbeat_timeout_s is not None:
            prune_interval_s = min(5.0, max(0.05, heartbeat_timeout_s / 2))
        self.prune_interval_s = prune_interval_s
        self.anomaly = anomaly_detector or EwmaAnomalyDetector()
        # detector clock: defaults to the event loop's monotonic time;
        # the soak passes a compressed clock so "hours of fleet time"
        # run in seconds with exact window/timeout semantics
        self._clock = clock
        # provenance: report_key -> EvidenceGraph for every diagnosis
        # this server ran (recurring signatures reuse their key, so the
        # map is bounded by distinct diagnoses, not by uptime)
        self._evidence: dict[str, EvidenceGraph] = {}
        self._evidence_lock = threading.Lock()
        # rolling event timeline for the dashboard (loop-confined)
        self._timeline: deque[dict] = deque(maxlen=timeline_limit)
        # signature -> digest of anomaly-triggered diagnoses (loop-confined)
        self._anomaly_digests: dict[str, dict] = {}
        # signature -> digest of every finished diagnosis (loop-confined)
        self._diagnosed: dict[str, dict] = {}
        self.jobs.add_completion_listener(self._record_completion)
        self._prune_task: asyncio.Task | None = None
        # optional live dashboard (``--dashboard-port``)
        self.dashboard = None
        if dashboard_port is not None:
            from repro.obs.dashboard import DashboardServer

            self.dashboard = DashboardServer(
                registry=self.metrics,
                status_fn=self.fleet_status,
                timeline_fn=self.timeline,
                evidence_fn=self.evidence_payload,
                host=self.host,
                port=dashboard_port,
            )
        # loop-confined state
        self._agents: dict[str, list[AgentConn]] = {}
        self._rr: dict[str, itertools.count] = {}
        self._waiters: dict[str, list[tuple[AgentConn, int]]] = {}
        self._req_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Serve in a background thread; returns the bound (host, port)."""
        if self._thread is not None:
            raise FleetError("fleet server already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="fleet-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise FleetError(f"fleet server failed to start: {self._startup_error}")
        if self.dashboard is not None:
            self.dashboard.start()
        return self.host, self.port

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle_conn, self.host, self.port)
            )
        except OSError as exc:
            self._startup_error = exc
            self._loop = None
            self._ready.set()
            loop.close()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        if self.heartbeat_timeout_s is not None:
            # scheduled now, runs once run_forever starts
            self._prune_task = loop.create_task(self._prune_loop())
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self, drain: bool = True) -> None:
        """Stop intake, drain in-flight diagnoses, tear the loop down."""
        if self.dashboard is not None:
            self.dashboard.stop()
        loop = self._loop
        if loop is None or self._thread is None:
            return
        if self._prune_task is not None:
            loop.call_soon_threadsafe(self._prune_task.cancel)
            self._prune_task = None
        # 1. no new connections
        asyncio.run_coroutine_threadsafe(self._close_server(), loop).result()
        # 2. let running diagnoses finish (they still need the loop to
        #    reach agents), then refuse new jobs
        self.jobs.shutdown(wait=drain)
        # 3. drop the agents and stop the loop
        asyncio.run_coroutine_threadsafe(self._close_agents(), loop).result()
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=10)
        self._thread = None
        self._loop = None
        if self.store is not None:
            # final totals (absorb SETS counters, so this is idempotent
            # with the per-serve absorbs)
            self.store.absorb_into(self.metrics)

    async def _close_server(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _close_agents(self) -> None:
        for conns in self._agents.values():
            for conn in conns:
                conn.alive = False
                conn.fail_pending(FleetError("server shutting down"))
                conn.writer.close()
        self._agents.clear()
        self._waiters.clear()

    def restart(self) -> None:
        """Simulate a server crash + restart: drop the listener and every
        agent connection, then listen again on the same port.

        In-flight diagnoses keep running on the worker pool; their trace
        requests fail over and reroute once agents reconnect.  Reporters
        whose connection died re-send their envelope after reconnecting,
        and signature dedup attaches them back to the running (or cached)
        diagnosis."""
        loop = self._loop
        if loop is None:
            raise FleetError("fleet server is not running")
        asyncio.run_coroutine_threadsafe(self._restart_async(), loop).result(
            timeout=30
        )

    async def _restart_async(self) -> None:
        self.metrics.inc("server_restarts")
        await self._close_server()
        await self._close_agents()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )

    # -- connection handling ----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn: AgentConn | None = None
        try:
            while True:
                try:
                    msg, request_id = await read_frame_async(
                        reader, frame_timeout=self.frame_timeout
                    )
                except WireError as exc:
                    self.metrics.inc("wire_errors")
                    writer.write(encode_frame(WireFault(str(exc))))
                    await writer.drain()
                    break
                if isinstance(msg, Hello):
                    # a duplicate Hello supersedes, never accumulates: the
                    # old AgentConn would otherwise stay alive in _agents,
                    # keep receiving round-robin trace requests, and leak
                    # its pending futures
                    if conn is not None:
                        self._retire_conn(
                            conn,
                            FleetError(
                                f"agent {conn.agent_id} re-helloed on the "
                                "same connection"
                            ),
                        )
                    for stale in list(self._agents.get(msg.bug_id, ())):
                        if stale.agent_id == msg.agent_id:
                            self._retire_conn(
                                stale,
                                FleetError(
                                    f"agent {msg.agent_id} reconnected"
                                ),
                            )
                    conn = AgentConn(msg.agent_id, msg.bug_id, writer)
                    conn.last_seen = self._now()
                    self._agents.setdefault(msg.bug_id, []).append(conn)
                    self._rr.setdefault(msg.bug_id, itertools.count())
                    self.metrics.inc("agents_connected")
                elif conn is None:
                    writer.write(
                        encode_frame(WireFault("first frame must be HELLO"), request_id)
                    )
                    await writer.drain()
                    break
                elif isinstance(msg, Heartbeat):
                    conn.last_seen = self._now()
                    conn.heartbeats += 1
                    conn.monitored = True
                    conn.samples_sent = msg.samples_sent
                    conn.failures_seen = msg.failures_seen
                    self.metrics.inc("heartbeats_received")
                elif isinstance(msg, MonitorSample):
                    conn.last_seen = self._now()
                    await self._on_monitor_sample(conn, msg)
                elif isinstance(msg, FailureEnvelope):
                    conn.last_seen = self._now()
                    await self._on_failure(conn, msg, request_id)
                elif isinstance(msg, TraceBatchResponse):
                    conn.last_seen = self._now()
                    future = conn.pending.pop(request_id, None)
                    if future is not None and not future.done():
                        self.metrics.inc(
                            "trace_responses_received", len(msg.responses)
                        )
                        future.set_result(msg)
                    else:
                        # the chunk timed out and was rerouted; the late
                        # answer is dropped (the rerouted runs are
                        # deterministic in the seed, so no evidence
                        # differs)
                        self.metrics.inc("orphan_trace_responses")
                elif isinstance(msg, Goodbye):
                    break
                else:
                    writer.write(
                        encode_frame(
                            WireFault(f"unexpected {type(msg).__name__}"), request_id
                        )
                    )
                    await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if conn is not None:
                self._retire_conn(
                    conn,
                    FleetError(f"agent {conn.agent_id} disconnected"),
                    metric="agents_disconnected",
                )
            writer.close()

    def _retire_conn(
        self, conn: AgentConn, exc: Exception, metric: str = "agents_superseded"
    ) -> None:
        """Take a connection out of rotation: mark it dead, fail its
        pending trace requests (they reroute), drop it from _agents.
        Idempotent; never closes the writer (a superseding Hello on the
        same connection shares it, and handlers close their own)."""
        already_gone = not conn.alive
        conn.alive = False
        conn.fail_pending(exc)
        peers = self._agents.get(conn.bug_id, [])
        if conn in peers:
            peers.remove(conn)
        if not already_gone:
            self.metrics.inc(metric)

    async def _on_failure(
        self, conn: AgentConn, env: FailureEnvelope, request_id: int
    ) -> None:
        self.metrics.inc("failures_received")
        signature = failure_signature(env)
        # persistent-store fast path: a signature some earlier process —
        # or another shard — already diagnosed is served from disk
        # without touching the job queue.  The in-memory future cache
        # still wins for signatures this server diagnosed (submit dedup
        # is cheaper and its counters feed the existing dedup tests).
        if self.store is not None and self.jobs.result_for(signature) is None:
            stored = self.store.get_report(signature)
            if stored is not None:
                self.metrics.inc("diagnoses_from_store")
                self.store.absorb_into(self.metrics)
                conn.writer.write(
                    encode_frame(
                        DiagnosisResult(
                            signature=signature, digest=stored.digest
                        ),
                        request_id,
                    )
                )
                await conn.writer.drain()
                self.metrics.inc("results_delivered")
                return
        try:
            future, _dedup = self.jobs.submit(
                signature, lambda: self._diagnose(env)
            )
        except JobRejected as exc:
            conn.writer.write(
                encode_frame(Reject(retry_after=exc.retry_after), request_id)
            )
            await conn.writer.drain()
            return
        except QueueClosed:
            conn.writer.write(
                encode_frame(WireFault("server shutting down"), request_id)
            )
            await conn.writer.drain()
            return
        self._waiters.setdefault(signature, []).append((conn, request_id))
        loop = asyncio.get_running_loop()
        if future.done():
            self._deliver(signature, future)
        else:
            future.add_done_callback(
                lambda f, s=signature: loop.call_soon_threadsafe(self._deliver, s, f)
            )

    def _deliver(self, signature: str, future) -> None:
        """Fan one finished diagnosis out to every endpoint that reported
        the signature (runs on the loop thread; idempotent).  Each write
        is a scheduled coroutine that awaits the drain — an endpoint that
        vanished between reporting and delivery surfaces as an explicit
        ``result_delivery_failures`` count, never a silent drop."""
        waiters = self._waiters.pop(signature, [])
        if not waiters:
            return
        exc = future.exception()
        if exc is not None:
            frame_for = lambda req_id: encode_frame(  # noqa: E731
                WireFault(f"diagnosis failed: {exc}"), req_id
            )
        else:
            digest = report_digest(future.result())
            frame_for = lambda req_id: encode_frame(  # noqa: E731
                DiagnosisResult(signature=signature, digest=digest), req_id
            )
        for conn, req_id in waiters:
            self._loop.create_task(self._deliver_one(conn, frame_for(req_id)))

    async def _deliver_one(self, conn: AgentConn, frame: bytes) -> None:
        if not conn.alive:
            self.metrics.inc("result_delivery_failures")
            return
        try:
            conn.writer.write(frame)
            await conn.writer.drain()
            self.metrics.inc("results_delivered")
        except (ConnectionError, OSError, asyncio.CancelledError):
            self.metrics.inc("result_delivery_failures")

    # -- always-on monitoring (loop thread) --------------------------------

    def _now(self) -> float:
        """Detector-clock time: the injected clock (compressed in soak
        tests) or the event loop's monotonic time."""
        if self._clock is not None:
            return self._clock()
        loop = self._loop
        return loop.time() if loop is not None else 0.0

    async def _prune_loop(self) -> None:
        """Evict connections silent past the heartbeat timeout.  Cadence
        runs in real seconds; the timeout itself is measured on the
        detector clock, so compressed-time soaks age conns correctly."""
        try:
            while True:
                await asyncio.sleep(self.prune_interval_s)
                self._prune_stale(self._now())
        except asyncio.CancelledError:
            pass

    def _prune_stale(self, now: float) -> None:
        if self.heartbeat_timeout_s is None:
            return
        for conns in list(self._agents.values()):
            for conn in list(conns):
                if conn.alive and now - conn.last_seen > self.heartbeat_timeout_s:
                    self._retire_conn(
                        conn,
                        FleetError(
                            f"agent {conn.agent_id} missed heartbeats for "
                            f"{now - conn.last_seen:.1f}s"
                        ),
                        metric="agents_evicted_stale",
                    )
                    # unlike supersession (which shares the socket with
                    # the new Hello), a stale conn's socket is garbage:
                    # close it so the leak test sees zero stragglers
                    conn.writer.close()

    async def _on_monitor_sample(self, conn: AgentConn, msg: MonitorSample) -> None:
        """Feed one sampled execution to the anomaly detector; when it
        trips, start a diagnosis unprompted (or serve it from the store)
        and remember the digest for the timeline/equivalence checks."""
        self.metrics.inc("monitor_samples_received")
        signature = None
        hang = False
        failure = msg.sample.failure if msg.sample is not None else None
        if msg.outcome == "failure" and failure is not None:
            self.metrics.inc("monitor_failures_seen")
            signature = f"{msg.bug_id}|{failure.kind}|{failure.failing_uid}"
            hang = msg.hang
        event = self.anomaly.observe(msg.bug_id, signature, hang, self._now())
        if event is None:
            return
        self.metrics.inc("anomaly_triggers")
        self._timeline.append(
            {
                "event": "anomaly",
                "bug_id": event.bug_id,
                "signature": event.signature,
                "reason": event.reason,
                "score": round(event.score, 6),
                "hang_score": round(event.hang_score, 6),
                "at": event.at,
            }
        )
        # store fast path mirrors _on_failure: a signature already
        # diagnosed by an earlier process is served from disk
        if self.store is not None and self.jobs.result_for(signature) is None:
            stored = self.store.get_report(signature)
            if stored is not None:
                self.metrics.inc("diagnoses_from_store")
                self.store.absorb_into(self.metrics)
                self._anomaly_digests[signature] = stored.digest
                return
        env = FailureEnvelope(
            bug_id=msg.bug_id,
            seed=msg.seed,
            notification=FailureNotification(
                bug_hint=msg.bug_id,
                failing_uid=failure.failing_uid,
                failing_tid=failure.failing_tid,
                time=failure.time,
            ),
            sample=msg.sample,
        )
        try:
            future, _dedup = self.jobs.submit(
                signature, lambda: self._diagnose(env)
            )
        except JobRejected:
            # backpressure: the detector re-trips next window and retries
            self.metrics.inc("anomaly_rejected")
            return
        except QueueClosed:
            return
        loop = asyncio.get_running_loop()
        if future.done():
            self._record_anomaly_digest(signature, future)
        else:
            future.add_done_callback(
                lambda f, s=signature: loop.call_soon_threadsafe(
                    self._record_anomaly_digest, s, f
                )
            )

    def _record_anomaly_digest(self, signature: str, future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        self._anomaly_digests[signature] = report_digest(future.result())

    def _record_completion(self, signature: str, report) -> None:
        """Job-queue completion listener (worker thread): note every
        finished diagnosis on the loop for the dashboard timeline."""
        if not isinstance(report, DiagnosisReport):
            return
        loop = self._loop
        if loop is None:
            return
        digest = report_digest(report)
        try:
            loop.call_soon_threadsafe(self._note_diagnosis, signature, digest)
        except RuntimeError:
            pass  # loop torn down mid-completion; the report still stands

    def _note_diagnosis(self, signature: str, digest: dict) -> None:
        self._diagnosed[signature] = digest
        self._timeline.append(
            {
                "event": "diagnosis",
                "signature": signature,
                "report_key": report_key(digest),
                "diagnosed": digest.get("diagnosed"),
                "root_cause": digest.get("root_cause"),
                "degraded": digest.get("degraded"),
                "at": self._now(),
            }
        )

    # -- dashboard surface (any thread) ------------------------------------

    def fleet_status(self) -> dict:
        """The dashboard's health table: per-agent liveness plus the
        anomaly detector's live scores.  Thread-safe (hops to the loop)."""
        loop = self._loop
        if loop is None:
            return {"agents": [], "anomaly": {}, "diagnosed": {}}
        return asyncio.run_coroutine_threadsafe(
            self._fleet_status_async(), loop
        ).result(timeout=5)

    async def _fleet_status_async(self) -> dict:
        now = self._now()
        agents = []
        for bug_id, conns in self._agents.items():
            for conn in conns:
                agents.append(
                    {
                        "agent_id": conn.agent_id,
                        "bug_id": bug_id,
                        "alive": conn.alive,
                        "monitored": conn.monitored,
                        "heartbeats": conn.heartbeats,
                        "samples_sent": conn.samples_sent,
                        "failures_seen": conn.failures_seen,
                        "last_seen_age_s": round(now - conn.last_seen, 3),
                        "pending": len(conn.pending),
                    }
                )
        return {
            "agents": agents,
            "anomaly": self.anomaly.snapshot(),
            "diagnosed": {
                sig: {
                    "report_key": report_key(digest),
                    "root_cause": digest.get("root_cause"),
                    "anomaly_triggered": sig in self._anomaly_digests,
                }
                for sig, digest in self._diagnosed.items()
            },
        }

    def timeline(self) -> list[dict]:
        """The dashboard's event feed (anomalies + diagnoses), oldest
        first.  Thread-safe (hops to the loop)."""
        loop = self._loop
        if loop is None:
            return []

        async def snap() -> list[dict]:
            return list(self._timeline)

        return asyncio.run_coroutine_threadsafe(snap(), loop).result(timeout=5)

    def anomaly_digests(self) -> dict[str, dict]:
        """Signature -> digest for every anomaly-triggered diagnosis (the
        soak's equivalence oracle against on-demand digests)."""
        return dict(self._anomaly_digests)

    def evidence_payload(self, key: str) -> dict | None:
        """One evidence graph as a JSON-ready dict: in-memory first, then
        the persistent store.  None when the key is unknown."""
        graph = self.evidence_graph(key)
        return graph.to_dict() if graph is not None else None

    def evidence_graph(self, key: str) -> EvidenceGraph | None:
        with self._evidence_lock:
            graph = self._evidence.get(key)
        if graph is None and self.store is not None:
            graph = self.store.evidence_for(key)
        return graph

    # -- the diagnosis job (worker thread) --------------------------------

    def _persist_report(self, signature: str, report) -> None:
        """Job-queue completion listener: write each finished diagnosis
        through to the store (degraded reports are never persisted — a
        later, fully-evidenced diagnosis must not be masked by one cut
        short at the collection deadline)."""
        if not isinstance(report, DiagnosisReport) or report.degraded:
            return
        bug_id = signature.split("|", 1)[0]
        self.store.put_report(
            signature,
            bug_id,
            report_digest(report),
            flight_recorder=report.flight_recorder,
            validation=report.validation,
        )
        self.store.absorb_into(self.metrics)

    def _module(self, bug_id: str) -> Module:
        with self._module_lock:
            module = self._modules.get(bug_id)
            if module is None:
                module = self._resolver(bug_id)
                self._modules[bug_id] = module
            return module

    def _evidence_key(self, module: Module, env: FailureEnvelope) -> str:
        """Evidence memoization key: everything the collected samples are
        deterministic in — including the endpoints' scheduler config
        (policy class + preemption granularity), since a different
        quantum interleaves the very same seeds differently."""
        return CollectedEvidenceCache.key_for(
            module,
            env.bug_id,
            env.seed,
            env.notification.failing_uid,
            self.start_seed,
            (
                self.success_traces_wanted,
                self.stopping,
                self.stability_window,
                self.adaptive_min_traces,
                self.min_success_traces,
                self.collection_deadline_s,
                self.collection_policy.cache_key(),
            ),
        )

    def _validate_report(
        self, env: FailureEnvelope, module: Module, report: DiagnosisReport
    ) -> None:
        """Post-report validation: replay the diagnosed order forced and
        inverse on the reporting endpoint's failing seed, stamping
        ``report.validation``.  A bug id the workload resolver cannot
        answer for is skipped with a note, never an error."""
        from repro.errors import ReproError
        from repro.validate import validate_report

        try:
            workload, entry = self._workload_resolver(env.bug_id)
        except ReproError as exc:
            report.notes.append(f"validation skipped: {exc}")
            self.metrics.inc("validations_skipped")
            return
        with self.obs.tracer.span(
            "fleet_validate", bug_id=env.bug_id, seed=env.seed
        ):
            with self.metrics.timer("validation_latency"):
                outcome = validate_report(
                    module,
                    workload,
                    report,
                    entry=entry,
                    failing_seed=env.seed,
                )
        if outcome is None:
            self.metrics.inc("validations_skipped")
            return
        self.metrics.inc("validations_completed")
        if outcome.status == "refuted":
            self.metrics.inc("validations_refuted")
        elif outcome.status != "validated":
            self.metrics.inc("validations_inconclusive")

    def _diagnose(self, env: FailureEnvelope) -> DiagnosisReport:
        """Replicates SnorlaxServer.diagnose with the network as
        the step-8 transport: same policy, same seeds, same evidence.

        Degrades gracefully when endpoints are scarce: a transport
        failure becomes an empty response (the attempt is consumed, the
        next seed is tried), and once the collection deadline passes the
        diagnosis runs with however many successful traces arrived —
        flagged as degraded rather than failing outright."""
        module = self._module(env.bug_id)
        obs = self.obs
        snorlax = SnorlaxServer(
            module,
            config=self.config,
            success_traces_wanted=self.success_traces_wanted,
            stopping=self.stopping,
            stability_window=self.stability_window,
            adaptive_min_traces=self.adaptive_min_traces,
            analysis_cache=self.caches.analysis if self.caches else None,
            trace_cache=self.caches.traces if self.caches else None,
            collection_deadline_s=self.collection_deadline_s,
            min_success_traces=self.min_success_traces,
            obs=obs,
        )
        snorlax.stats.failing_traces += 1

        # evidence memoization: collection is deterministic in (module,
        # failing seed, policy), so a failure recurring across the fleet
        # replays the stored samples instead of re-executing remotely
        evidence_key = None
        cached_evidence = None
        if self.caches is not None:
            evidence_key = self._evidence_key(module, env)
            cached_evidence = self.caches.evidence.get(evidence_key)

        with obs.tracer.span(
            "fleet_diagnose",
            bug_id=env.bug_id,
            signature=failure_signature(env),
        ) as root:
            with self.metrics.timer("collection_latency"):
                if cached_evidence is not None:
                    self.metrics.inc("evidence_cache_hits")
                    successes = list(cached_evidence.samples)
                    degraded = False
                    root.set(evidence_cache="hit")
                else:
                    if evidence_key is not None:
                        self.metrics.inc("evidence_cache_misses")
                    successes = snorlax.collect_traces_via(
                        lambda requests: self._remote_batch(env.bug_id, requests),
                        env.notification.failing_uid,
                        self.start_seed,
                        failing_sample=env.sample,
                    )
                    # adaptive stopping satisfied early is sufficiency,
                    # not degradation; degraded means collection gave up
                    state = snorlax.last_collection
                    degraded = (
                        not state.satisfied
                        if state is not None
                        else len(successes) < self.success_traces_wanted
                    )
                    if evidence_key is not None and not degraded:
                        self.caches.evidence.put(
                            evidence_key,
                            CollectedEvidence(
                                samples=tuple(successes),
                                attempts=(
                                    state.attempts
                                    if state is not None
                                    else len(successes)
                                ),
                            ),
                        )
            self.metrics.inc("traces_collected", len(successes))
            if degraded:
                self.metrics.inc("degraded_collections")
            with self.metrics.timer("analysis_latency"):
                # the pipeline records its own stage timers and cache
                # events into obs.registry (this server's metrics)
                result = snorlax.diagnose_samples([env.sample], successes)
            report = result.report
            if degraded:
                report.degraded = True
                report.notes.append(
                    f"degraded collection: diagnosed from {len(successes)}/"
                    f"{self.success_traces_wanted} successful traces"
                )
            if self.validate:
                self._validate_report(env, module, report)
            root.set(collected=len(successes), degraded=degraded)
        if obs.enabled:
            # the whole fleet-side job: collection round-trips included
            report.flight_recorder = render_flight_recorder(obs.tracer, root)
        # provenance: the report's evidence graph, content-addressed down
        # to the raw PT buffer hashes; span ids annotate (never identify)
        # so cached replays digest identically to this cold run
        spans = obs.tracer.subtree(root) if obs.enabled else ()
        graph = build_evidence_graph(
            report_digest(report), [env.sample], successes, spans
        )
        with self._evidence_lock:
            self._evidence[graph.report_key] = graph
        if self.store is not None and not report.degraded:
            self.store.put_evidence(graph)
        self.metrics.inc("evidence_graphs_built")
        self.metrics.inc("diagnoses_completed")
        return report

    def _remote_batch(
        self, bug_id: str, requests: list[TraceRequest]
    ) -> list[TraceResponse]:
        """Bridge a worker thread's speculative wave onto the event loop.

        Always returns positional responses: an item no endpoint answered
        within ``request_timeout`` comes back as ``outcome="unreachable"``
        with no sample, which the collection policy consumes as a miss
        (the attempt is spent, the next seed is tried).  A timeout here
        cancels the loop-side coroutine, whose ``finally`` blocks clean
        the pending maps, instead of leaking requests against a hung
        endpoint."""
        if self._loop is None:
            raise FleetError("fleet server is not running")
        future = asyncio.run_coroutine_threadsafe(
            self._remote_batch_async(bug_id, list(requests)), self._loop
        )
        try:
            # grace so the loop-side wall clock (same budget) fires first
            return future.result(timeout=self.request_timeout + 5.0)
        except FuturesTimeoutError:
            future.cancel()
            self.metrics.inc("trace_requests_abandoned", len(requests))
            return [
                TraceResponse(label=r.label, outcome="unreachable", sample=None)
                for r in requests
            ]

    async def _remote_batch_async(
        self, bug_id: str, requests: list[TraceRequest]
    ) -> list[TraceResponse]:
        """Fan one speculative wave across every live endpoint at once.

        The wave is striped over the live agents (at most
        ``AGENT_BATCH_MAX`` requests per agent per round), each
        chunk ships as a single :class:`TraceBatchRequest` frame, and the
        chunk sends/replies run concurrently under ``asyncio.gather`` —
        one round-trip depth per wave instead of one per execution.  A
        chunk that times out, lands on a dying connection, or comes back
        malformed re-enters the pending pool and is re-striped over
        whoever is still alive (the runs are deterministic in the seed,
        so a re-run answers identically).

        Bounded by wall clock (``request_timeout``) rather than a fixed
        attempt count, with capped exponential backoff between reroute
        rounds so a fleet-wide outage is polled, not busy-spun."""
        responses: list[TraceResponse | None] = [None] * len(requests)
        pending = list(range(len(requests)))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.request_timeout
        failures = 0
        suspect: set[int] = set()  # id() of conns whose chunk went dark
        while pending:
            agents = [c for c in self._agents.get(bug_id, []) if c.alive]
            if not agents:
                failures += 1
                if not await self._reroute_pause(deadline, failures):
                    break
                continue
            # rotate round-robin so reruns don't pin to the list head,
            # and push endpoints whose last chunk went unanswered
            # to the back — a hung-but-connected agent must not swallow
            # a narrow rerun round over and over
            start = next(self._rr[bug_id]) % len(agents)
            agents = agents[start:] + agents[:start]
            agents.sort(key=lambda c: id(c) in suspect)
            take = min(len(pending), AGENT_BATCH_MAX * len(agents))
            assign = pending[:take]
            # fill frames before fanning wider: a small wave rides one
            # endpoint as a single full frame instead of 1-request
            # frames sprayed across the whole fleet (same responses
            # either way — the stripe only changes who runs what)
            fanout = min(len(agents), -(-take // AGENT_BATCH_MAX))
            chunks = [
                (agents[j], assign[j::fanout])
                for j in range(fanout)
                if assign[j::fanout]
            ]
            results = await asyncio.gather(
                *(
                    self._batch_to_agent(conn, [requests[i] for i in idxs], deadline)
                    for conn, idxs in chunks
                )
            )
            progressed = False
            rerun: list[int] = []
            for (conn, idxs), result in zip(chunks, results):
                if result is None:
                    suspect.add(id(conn))
                    rerun.extend(idxs)
                    continue
                progressed = True
                suspect.discard(id(conn))
                for i, resp in zip(idxs, result):
                    responses[i] = resp
            pending = rerun + pending[take:]
            if pending:
                if progressed:
                    failures = 0
                else:
                    failures += 1
                    if not await self._reroute_pause(deadline, failures):
                        break
        for i, resp in enumerate(responses):
            if resp is None:
                self.metrics.inc("trace_requests_failed")
                responses[i] = TraceResponse(
                    label=requests[i].label, outcome="unreachable", sample=None
                )
        return responses  # type: ignore[return-value]

    async def _batch_to_agent(
        self, conn: AgentConn, chunk: list[TraceRequest], deadline: float
    ):
        """One chunk, one frame, one reply; None means 'reroute me'."""
        loop = asyncio.get_running_loop()
        request_id = next(self._req_ids)
        response_future: asyncio.Future = loop.create_future()
        conn.pending[request_id] = response_future
        try:
            conn.writer.write(
                encode_frame(TraceBatchRequest(requests=tuple(chunk)), request_id)
            )
            await conn.writer.drain()
            self.metrics.inc("trace_batches_sent")
            self.metrics.inc("trace_requests_sent", len(chunk))
            # the endpoint runs its chunk sequentially: budget scales
            # with chunk size, clamped to the wave's wall-clock budget
            reply_budget = min(
                self.trace_reply_timeout * len(chunk),
                max(0.0, deadline - loop.time()),
            )
            reply = await asyncio.wait_for(response_future, reply_budget)
            if (
                not isinstance(reply, TraceBatchResponse)
                or len(reply.responses) != len(chunk)
            ):
                self.metrics.inc("trace_request_reroutes", len(chunk))
                return None
            return list(reply.responses)
        except asyncio.TimeoutError:
            self.metrics.inc("trace_request_timeouts", len(chunk))
            return None
        except (FleetError, ConnectionError, OSError):
            self.metrics.inc("trace_request_reroutes", len(chunk))
            return None
        finally:
            conn.pending.pop(request_id, None)

    async def _reroute_pause(self, deadline: float, failures: int) -> bool:
        """Capped exponential backoff between reroute attempts; False
        once the request's wall-clock budget is spent."""
        delay = min(
            self.reroute_backoff_cap_s,
            self.reroute_backoff_base_s * (2 ** min(failures, 16)),
        )
        loop = asyncio.get_running_loop()
        if loop.time() + delay >= deadline:
            return False
        await asyncio.sleep(delay)
        return True
