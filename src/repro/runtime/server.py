"""The Snorlax server: trace collection policy + the analysis pipeline.

The server receives the first failing trace (step 1 of Figure 2), then
instructs clients to generate traces from successful executions at the
failure location (step 8), falling back to predecessor basic blocks
when the failure PC itself cannot be reached in successful runs (§4.1 —
e.g. the failure is in error-handling code).  Once enough evidence is
gathered it runs Lazy Diagnosis (steps 2-7) and returns the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.cache import AnalysisCache, DecodedTraceCache
from repro.core.pipeline import LazyDiagnosis, PipelineConfig, TraceSample
from repro.errors import DiagnosisError
from repro.ir.cfg import predecessor_chain
from repro.ir.module import Module
from repro.obs import Observability, render_flight_recorder, resolve_obs
from repro.runtime.client import ClientRun, SnorlaxClient
from repro.runtime.protocol import TraceRequest, TraceResponse

TraceTransport = Callable[[list[TraceRequest]], list[TraceResponse]]
"""How the server reaches clients: one call delivers a whole speculative
wave and returns positional responses — an in-process map over
``handle_trace_request``, or one fleet round-trip per wave."""


def sample_from_run(label: str, run: ClientRun) -> TraceSample:
    """Package one execution's trace snapshot as server-side evidence."""
    if run.snapshot is None:
        raise DiagnosisError(f"run {run.seed} has no trace snapshot")
    return TraceSample(
        label=label,
        failing=run.failed,
        buffers=dict(run.snapshot.buffers),
        positions=dict(run.snapshot.positions),
        failure=run.failure.report if run.failure else None,
        snapshot_time=run.snapshot.time,
    )


@dataclass
class ServerStats:
    failing_traces: int = 0
    success_traces: int = 0
    executions_requested: int = 0
    breakpoint_fallbacks: int = 0


class _CollectionState:
    """The step-8 collection policy, factored out of the transport loop.

    :meth:`speculate` derives request parameters from the attempt index
    and current breakpoint set alone, and :meth:`consume` applies
    responses in attempt order.  When consuming changes the policy state
    (breakpoint widening fired, or enough samples arrived) it returns
    True and the caller discards the rest of its speculated wave
    *without* counting those attempts — the next wave re-speculates the
    same attempt indices against the new state.  That is the whole
    evidence-equivalence argument: the samples gathered are those of
    the one-request-at-a-time loop, whatever the wave size or transport.
    """

    def __init__(
        self,
        server: "SnorlaxServer",
        failing_uid: int,
        start_seed: int,
        stop_rule=None,
    ):
        self.server = server
        self.failing_uid = failing_uid
        self.start_seed = start_seed
        self.samples: list[TraceSample] = []
        self.breakpoints = [failing_uid]
        self.attempts = 0
        self.misses_at_pc = 0
        self.widened_to = 0
        self.stop_rule = stop_rule
        self.on_sample: Callable[[TraceSample], None] | None = None
        self.deadline = server._collection_deadline()

    def speculate(self, i: int) -> TraceRequest:
        """The request for attempt index (attempts + i) — a pure function
        of policy state, so whole waves can be issued concurrently."""
        attempt = self.attempts + i
        # Vary how many executions of the failure PC pass before the
        # trace is captured: production traces come from executions of
        # arbitrary maturity, which is what lets benign occurrences of
        # near-miss interleavings show up.
        return TraceRequest(
            label=(
                f"success-{len(self.samples)}"
                if i == 0
                else f"speculative-{attempt}"
            ),
            seed=self.start_seed + attempt,
            breakpoint_uids=tuple(self.breakpoints),
            breakpoint_skip=attempt % 7,
        )

    @property
    def satisfied(self) -> bool:
        if self.stop_rule is not None and self.stop_rule.satisfied:
            return True
        return len(self.samples) >= self.server.success_traces_wanted

    @property
    def done(self) -> bool:
        return (
            self.satisfied
            or self.attempts >= self.server.max_collection_attempts
            or self.server._deadline_hit(self.deadline, self.samples)
        )

    def consume(self, request: TraceRequest, resp: TraceResponse) -> bool:
        """Apply one response; True when the rest of the wave is stale."""
        server = self.server
        self.attempts += 1
        if resp.sample is not None and resp.sample.failing:
            return False  # only successful executions feed step 8
        if resp.sample is None:
            # Only zero-skip misses hint that the PC is unreachable in
            # successful runs (e.g. failure in error-handling code); a
            # miss with skip > 0 just means the location executes fewer
            # times than we asked to wait.
            if request.breakpoint_skip == 0:
                self.misses_at_pc += 1
            if self.misses_at_pc >= 25 and len(self.breakpoints) == 1:
                self.breakpoints = server._widen_breakpoints(self.failing_uid)
                self.widened_to = len(self.breakpoints)
                # start counting misses against the widened set afresh,
                # so persistent unreachability can keep surfacing (the
                # old counter saturated after the first widening)
                self.misses_at_pc = 0
                server.stats.breakpoint_fallbacks += 1
                return True  # rest of the wave used stale breakpoints
            return False
        resp.sample.label = f"success-{len(self.samples)}"
        self.samples.append(resp.sample)
        server.stats.success_traces += 1
        if self.on_sample is not None:
            self.on_sample(resp.sample)
        if self.stop_rule is not None:
            self.stop_rule.observe(self.samples)
        return self.satisfied


class _StreamingDecoder:
    """Starts decoding each sample the moment it is consumed.

    Decoding goes through the shared content-keyed ``trace_cache``, so
    this is pure cache warming: by the time the pipeline's
    trace-processing stage asks for the same (buffer, tid, period) it is
    a hit, and decode wall-clock overlapped collection round-trips
    instead of following them.  Evidence is untouched — a decode error
    here is swallowed so the pipeline surfaces it with full context.
    """

    def __init__(self, server: "SnorlaxServer", registry):
        from concurrent.futures import ThreadPoolExecutor

        self._server = server
        self._registry = registry
        self._pool = ThreadPoolExecutor(
            max_workers=2,
            thread_name_prefix="decode",
        )

    def submit(self, sample: TraceSample) -> None:
        self._pool.submit(self._decode, sample)

    def _decode(self, sample: TraceSample) -> None:
        from time import perf_counter

        server = self._server
        started = perf_counter()
        try:
            for tid, data in sample.buffers.items():
                server.trace_cache.get_or_decode(
                    server.module, data, tid, server.config.mtc_period_ns
                )
        except Exception:
            return
        self._registry.observe("stage_decode", perf_counter() - started)

    def close(self) -> None:
        # collection ends when its decodes do — that is the overlap
        self._pool.shutdown(wait=True)


class _TopPatternEvaluator:
    """The stop rule's oracle: the current top-ranked pattern signature
    for the evidence gathered so far.

    Runs the full pipeline *quietly* (``obs=None`` — no spans, no
    counters; the fleet's registry sees only the one final diagnosis)
    against the server's shared caches, so each evaluation re-decodes
    nothing and — with incremental Andersen seeding — re-solves almost
    nothing.  A pure function of the sample prefix: same samples, same
    answer, on any transport.
    """

    def __init__(self, server: "SnorlaxServer", failing_sample: TraceSample):
        self._server = server
        self._failing = failing_sample

    def __call__(self, successes: list[TraceSample]):
        server = self._server
        pipeline = LazyDiagnosis(
            server.module,
            server.config,
            analysis_cache=server.analysis_cache,
            trace_cache=server.trace_cache,
            obs=None,
        )
        try:
            report = pipeline.diagnose([self._failing], successes)
        except DiagnosisError:
            return None
        if report.root_cause is None:
            return None
        return str(report.root_cause.signature)


@dataclass
class SnorlaxServer:
    module: Module
    config: PipelineConfig = field(default_factory=PipelineConfig)
    success_traces_wanted: int = 10
    max_collection_attempts: int = 2000
    # graceful degradation: when set, collection stops at the deadline
    # (wall-clock seconds from its start) as soon as min_success_traces
    # have arrived, and the diagnosis runs on the evidence gathered —
    # what a fleet does when endpoints are scarce or the network is bad
    collection_deadline_s: float | None = None
    min_success_traces: int = 1
    # "fixed" collects success_traces_wanted samples; "stable-top" stops
    # early once the top-ranked pattern is unchanged across
    # stability_window consecutive samples (success_traces_wanted stays
    # as the cap, adaptive_min_traces as the floor)
    stopping: str = "fixed"
    stability_window: int = 3
    adaptive_min_traces: int = 4
    # shared caches: repeat diagnoses skip decoding / points-to
    analysis_cache: AnalysisCache | None = None
    trace_cache: DecodedTraceCache | None = None
    stats: ServerStats = field(default_factory=ServerStats)
    # observability context every diagnosis this server runs records into
    obs: Observability | None = None
    last_pipeline: LazyDiagnosis | None = field(default=None, repr=False)
    # the most recent collection's policy state: callers (the fleet)
    # distinguish "stopped because the evidence sufficed" from "ran out
    # of attempts/deadline" via last_collection.satisfied
    last_collection: _CollectionState | None = field(default=None, repr=False)

    def diagnose(
        self, failing_run: ClientRun, client: SnorlaxClient, start_seed: int = 10_000
    ):
        """The full server-side flow for one in-production failure:
        collect step-8 evidence, run the pipeline, return the bundled
        :class:`repro.api.DiagnosisResult`."""
        if failing_run.failure is None or failing_run.snapshot is None:
            raise DiagnosisError("failing run carries no failure/snapshot")
        obs = resolve_obs(self.obs)
        with obs.tracer.span(
            "diagnosis_job", failing_uid=failing_run.failure.failing_uid
        ) as job:
            failing_sample = self.sample_from_run("failure", failing_run)
            self.stats.failing_traces += 1
            successes = self.collect_successful_traces(
                client,
                failing_run.failure.failing_uid,
                start_seed,
                failing_sample=failing_sample,
            )
            result = self.diagnose_samples([failing_sample], successes)
        if obs.enabled:
            # widen the flight recorder from the pipeline subtree to the
            # whole job: collection round-trips included
            result.report.flight_recorder = render_flight_recorder(
                obs.tracer, job
            )
        return result

    def diagnose_samples(self, failing: list[TraceSample], successes: list[TraceSample]):
        """Diagnose already-collected evidence through :mod:`repro.api`
        (the fleet server hands traces collected over the network)."""
        from repro import api

        result = api.diagnose(
            self.module,
            traces=[*failing, *successes],
            config=self.config,
            caches=(self.analysis_cache, self.trace_cache),
            obs=self.obs,
        )
        self.last_pipeline = result.pipeline
        return result

    def collect_successful_traces(
        self,
        client: SnorlaxClient,
        failing_uid: int,
        start_seed: int,
        failing_sample: TraceSample | None = None,
    ) -> list[TraceSample]:
        """Step 8 against an in-process client: each wave runs request
        by request, one ``trace_request`` span per execution."""
        tracer = resolve_obs(self.obs).tracer

        def send_batch(requests: list[TraceRequest]) -> list[TraceResponse]:
            return [self._traced_request(tracer, client, r) for r in requests]

        return self.collect_traces_via(
            send_batch, failing_uid, start_seed, failing_sample=failing_sample
        )

    def _traced_request(
        self, tracer, client: SnorlaxClient, request: TraceRequest
    ) -> TraceResponse:
        with tracer.span(
            "trace_request",
            seed=request.seed,
            skip=request.breakpoint_skip,
            breakpoints=len(request.breakpoint_uids),
        ) as span:
            resp = self.handle_trace_request(client, request)
            if resp.sample is None:
                span.set(outcome="miss")
            else:
                span.set(outcome="failing" if resp.sample.failing else "ok")
        return resp

    def collect_traces_via(
        self,
        send_batch: TraceTransport,
        failing_uid: int,
        start_seed: int,
        failing_sample: TraceSample | None = None,
    ) -> list[TraceSample]:
        """Step 8: successful-execution traces at the failure location.

        Tries the failure PC first; if no successful run ever reaches it,
        widens the breakpoint to predecessor blocks, nearest first.

        ``send_batch`` delivers one speculative wave of requests and
        returns positional responses — the in-process map of
        :meth:`collect_successful_traces`, or one network round-trip for
        ``repro.fleet``.  Responses are consumed in attempt order through
        :class:`_CollectionState`, and collection is deterministic in
        (seed, breakpoints, skip), so neither the transport, the wave
        size nor which endpoint serves each request changes the evidence
        gathered.  Two more layers, both evidence-invisible:

        * when ``trace_cache`` is set, every sample starts decoding the
          moment its response is consumed (a small pool), so decode
          finishes with collection instead of after it.
        * ``stopping="stable-top"`` ends collection once the top-ranked
          pattern is stable (``failing_sample`` anchors the evaluation);
          the stop decision is a pure function of the consumed sample
          prefix, hence transport-independent.
        """
        obs = resolve_obs(self.obs)
        stop_rule = self._make_stop_rule(failing_sample)
        with obs.tracer.span(
            "collect_traces",
            failing_uid=failing_uid,
            wanted=self.success_traces_wanted,
            stopping=self.stopping,
        ) as cspan:
            state = _CollectionState(self, failing_uid, start_seed, stop_rule)
            self.last_collection = state
            decoder = None
            if self.trace_cache is not None:
                decoder = _StreamingDecoder(self, obs.registry)
                state.on_sample = decoder.submit
                if failing_sample is not None:
                    decoder.submit(failing_sample)
            from time import perf_counter

            started = perf_counter()
            try:
                while not state.done:
                    wave = self._batch_window(state)
                    requests = [state.speculate(i) for i in range(wave)]
                    for request, resp in zip(requests, send_batch(requests)):
                        if state.consume(request, resp):
                            break  # rest of the wave is stale
            finally:
                if decoder is not None:
                    decoder.close()
            obs.registry.observe("stage_collect", perf_counter() - started)
            cspan.set(
                collected=len(state.samples),
                attempts=state.attempts,
                widened_to=state.widened_to,
            )
        return state.samples

    def _make_stop_rule(self, failing_sample: TraceSample | None):
        if self.stopping == "fixed":
            return None
        if self.stopping != "stable-top":
            raise DiagnosisError(
                f"unknown stopping mode {self.stopping!r} "
                "(expected 'fixed' or 'stable-top')"
            )
        if failing_sample is None:
            # the rule evaluates candidate diagnoses, which need the
            # failing evidence — without it, fall back to fixed counting
            return None
        from repro.core.statistics import StabilityStopRule

        return StabilityStopRule(
            evaluate=_TopPatternEvaluator(self, failing_sample),
            window=self.stability_window,
            min_samples=self.adaptive_min_traces,
        )

    def _batch_window(self, state: _CollectionState) -> int:
        """How far ahead to speculate in one wave: what fixed
        counting still needs (or the stop rule's useful lookahead) plus
        margin for seeds that miss the armed breakpoint, clamped to the
        attempt cap.  The window only sizes the wave; responses are
        still consumed in attempt order, so the evidence is
        window-invariant."""
        need = max(1, self.success_traces_wanted - len(state.samples))
        if state.stop_rule is not None:
            need = min(need, state.stop_rule.lookahead())
        window = need + max(2, need // 2)
        return min(window, self.max_collection_attempts - state.attempts)

    def _collection_deadline(self) -> float | None:
        if self.collection_deadline_s is None:
            return None
        from time import monotonic

        return monotonic() + self.collection_deadline_s

    def _deadline_hit(self, deadline: float | None, samples: list) -> bool:
        """Degrade once the deadline passes — but never below the
        minimum evidence the pipeline needs (keep trying for that)."""
        if deadline is None or len(samples) < self.min_success_traces:
            return False
        from time import monotonic

        return monotonic() > deadline

    def _widen_breakpoints(self, failing_uid: int) -> list[int]:
        """Predecessor-block fallback: arm earlier PCs too (§4.1)."""
        instr = self.module.instruction(failing_uid)
        block = instr.parent
        uids = [failing_uid]
        if block is not None:
            for pred in predecessor_chain(block, max_depth=4):
                if pred.instructions:
                    uids.append(pred.instructions[0].uid)
        return uids

    def sample_from_run(self, label: str, run: ClientRun) -> TraceSample:
        return sample_from_run(label, run)

    # -- message-level API (the transport collect_traces_via speaks) -------

    def handle_trace_request(
        self, client: SnorlaxClient, request: TraceRequest
    ) -> TraceResponse:
        run = client.run_once(
            request.seed,
            breakpoint_uids=request.breakpoint_uids,
            breakpoint_skip=request.breakpoint_skip,
        )
        self.stats.executions_requested += 1
        sample = None
        if run.snapshot is not None:
            sample = sample_from_run(request.label, run)
        return TraceResponse(
            label=request.label,
            outcome=run.result.outcome,
            sample=sample,
        )
