"""Per-layer tracing for the traced benchmark run (``--trace 1``).

Every layer is measured from outside: :meth:`LayerTracer.install` wraps
the public functions each layer exposes, at the name its caller looks
up, and opens one span per call on a :class:`repro.obs.Tracer`, with
counts taken at the same boundary.  Nothing under ``src/`` changes.
Spans stay in memory and are written once, when the run ends.

Wrapped boundaries (layer = module):

* sim      ``SnorlaxClient.run_once`` / ``run_untraced``.  ``run_once``
           is simulation plus PT encoding; after each traced pass the
           benchmark re-runs the same seeds untraced (outside any
           request) and splits the span's time into ``sim`` (the
           untraced time) and ``pt.encode`` (the rest).  The per-packet
           encoder calls are never wrapped: there are millions of them
           and wrapping them would distort what is measured.
* pt       ``repro.pt.decoder.decode_thread_trace`` (its callers import
           it at call time, so the module attribute is the lookup).
* runtime  ``SnorlaxServer.collect_traces_via``.
* core     ``LazyDiagnosis.diagnose`` and ``PointsToAnalysis.run``; the
           pipeline's ``last_stage_seconds`` become child spans laid
           end to end inside the diagnose span.
* fleet    ``encode_frame`` (both ``repro.fleet.wire`` and the copy
           ``repro.fleet.server`` binds at import) and
           ``repro.fleet.wire.decode_payload``; server-side counters
           are read from each ``FleetServer.metrics`` after it stops.
* store    ``DiagnosisStore`` get/put methods.

Every count is kept under the kind of request it serves: "latency"
(primary), "warm" or "fill".  A request's time is split among layers
by the span that opened last among those still open, on any thread:
a server thread waiting on an agent's execution gives way to the
execution, so the layers' shares and the uncovered rest ("request")
add up to the request's wall time.
"""

from __future__ import annotations

import heapq
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

from repro.obs import Tracer, write_trace_jsonl

# the layers time is attributed to, in print order
SHARE_LAYERS = ("sim", "pt.encode", "pt.decode", "runtime", "core", "fleet", "store")
# the layers a warm request can reach: it neither simulates nor collects
WARM_SHARE_LAYERS = ("pt.decode", "core", "fleet", "store")

PIPELINE_STAGES = ("trace_processing", "points_to", "type_ranking",
                   "pattern_computation", "statistical_diagnosis")


class LayerTracer:
    """Spans and per-kind counts at layer boundaries, for one run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._lock = threading.Lock()  # counts grow from server threads too
        # the kind of the request being served: set before a fleet
        # agent connects, kept after the reply for the server's
        # trailing work, replaced when the next request's work begins
        self.kind: str | None = None
        self._request = None  # the request span in flight
        self._request_context = None
        self._children: dict[int, list] = {}  # open diagnose span -> children
        self._patches: list[tuple[object, str, object]] = []
        # run_once spans still waiting for their untraced twin
        self._pending_shadows: list[tuple[object, object, int]] = []
        self._run_untraced = None  # the unwrapped SnorlaxClient.run_untraced

    # -- requests -----------------------------------------------------------

    def begin_request(self, kind: str) -> None:
        self.kind = kind
        self.count("requests")
        self._request_context = self.tracer.span(kind, parent=None, layer="request", kind=kind)
        self._request = self._request_context.__enter__()
        self._request.attrs["request"] = self._request.span_id

    def end_request(self) -> None:
        self._request_context.__exit__(None, None, None)
        self._request = self._request_context = None

    def count(self, key: str, amount: float = 1, kind: str | None = None) -> None:
        with self._lock:
            self.counts[kind or self.kind][key] += amount

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, layer: str, after=None,
               children: bool = False) -> None:
        original = getattr(owner, attr)
        lt = self

        def wrapper(*args, **kwargs):
            request = lt._request
            # on a thread with no span open (fleet server, worker pool),
            # the span hangs off the request in flight: one client, one
            # request at a time
            parent = lt.tracer.current() or request
            kind = lt.kind
            attrs = {"layer": layer, "kind": kind,
                     "request": request.span_id if request is not None else None}
            with lt.tracer.span(name, parent=parent, **attrs) as span:
                if children:
                    lt._children[span.span_id] = []
                result = original(*args, **kwargs)
            siblings = lt._children.get(span.parent_id)
            if siblings is not None:
                siblings.append(span)
            if after is not None:
                after(span, kind, result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import repro.fleet.server as fleet_server
        import repro.fleet.wire as wire
        import repro.pt.decoder as decoder
        from repro.core.pipeline import LazyDiagnosis
        from repro.core.points_to import PointsToAnalysis
        from repro.runtime.client import SnorlaxClient
        from repro.runtime.server import SnorlaxServer
        from repro.store import DiagnosisStore

        self._run_untraced = SnorlaxClient.run_untraced
        self._patch(SnorlaxClient, "run_once", "sim.run_once", "sim", self._after_run_once)
        self._patch(SnorlaxClient, "run_untraced", "sim.run_untraced", "sim",
                    self._after_run_untraced)
        self._patch(decoder, "decode_thread_trace", "pt.decode", "pt.decode",
                    self._after_decode)
        self._patch(SnorlaxServer, "collect_traces_via", "runtime.collect", "runtime",
                    self._after_collect)
        self._patch(LazyDiagnosis, "diagnose", "core.diagnose", "core", self._after_diagnose,
                    children=True)
        self._patch(PointsToAnalysis, "run", "core.points_to", "core", self._after_points_to)
        self._patch(wire, "encode_frame", "fleet.encode", "fleet", self._after_encode)
        self._patch(fleet_server, "encode_frame", "fleet.encode.server", "fleet",
                    self._after_encode)
        self._patch(wire, "decode_payload", "fleet.decode", "fleet", self._after_decode_payload)
        for method in ("get_report", "get_trace", "get_analysis"):
            self._patch(DiagnosisStore, method, f"store.{method}", "store", self._after_store_read)
        for method in ("put_report", "put_evidence", "put_trace", "put_analysis"):
            self._patch(DiagnosisStore, method, f"store.{method}", "store", self._after_store_write)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counts at each boundary -------------------------------------------

    def _after_run_once(self, span, kind, run, args, kwargs) -> None:
        self.count("sim.runs", kind=kind)
        self.count("sim.instructions", run.result.instructions_executed, kind)
        for stats in run.driver.stats().values():
            self.count("pt.bytes", stats.total_bytes, kind)
            self.count("pt.packets", stats.control_packets + stats.timing_packets
                       + stats.sync_packets, kind)
            self.count("pt.timing_packets", stats.timing_packets, kind)
        # a caller-supplied scheduler (sixth positional) cannot be replayed
        if kwargs.get("scheduler") is None and len(args) < 6:
            client, seed = args[0], args[1] if len(args) > 1 else kwargs["seed"]
            self._pending_shadows.append((span, client, seed))

    def _after_run_untraced(self, span, kind, result, args, kwargs) -> None:
        self.count("sim.runs", kind=kind)
        self.count("sim.instructions", result.instructions_executed, kind)
        self.count("sim.busy_s", span.duration_s, kind)
        self.count("sim.shadow_instructions", result.instructions_executed, kind)

    def run_shadows(self) -> None:
        """Re-run each traced execution's seed without tracing, after
        the pass, so run_once splits into simulation and encoding.  Run
        between requests, they would give the fleet server idle time
        that untraced passes do not get."""
        pending, self._pending_shadows = self._pending_shadows, []
        for span, client, seed in pending:
            kind = span.attrs["kind"]
            started = perf_counter_ns()
            result = self._run_untraced(client, seed)
            sim_s = min((perf_counter_ns() - started) / 1e9, span.duration_s)
            span.attrs["untraced_s"] = sim_s
            self.count("sim.busy_s", sim_s, kind)
            self.count("sim.shadow_instructions", result.instructions_executed, kind)
            self.count("pt.encode_s", span.duration_s - sim_s, kind)

    def _after_decode(self, span, kind, trace, args, kwargs) -> None:
        data = args[1] if len(args) > 1 else kwargs["data"]
        self.count("pt.decode_calls", kind=kind)
        self.count("pt.decode_s", span.duration_s, kind)
        self.count("pt.decode_bytes", len(data), kind)

    def _after_collect(self, span, kind, samples, args, kwargs) -> None:
        state = args[0].last_collection
        self.count("runtime.collect_s", span.duration_s, kind)
        self.count("runtime.samples", len(samples), kind)
        self.count("runtime.attempts",
                   state.attempts if state is not None else len(samples), kind)

    def _after_diagnose(self, span, kind, report, args, kwargs) -> None:
        pipeline = args[0]
        self.count("core.pipeline_runs", kind=kind)
        for key, value in pipeline.last_cache_events.items():
            self.count(f"core.{key}", value, kind)
        stages = pipeline.last_stage_seconds
        children = self._children.pop(span.span_id)
        self._lay_out_stages(span, stages, children, kind)
        for stage, key in (("trace_processing", "core.trace_processing_s"),
                           ("type_ranking", "core.type_ranking_s"),
                           ("pattern_computation", "core.patterns_s"),
                           ("statistical_diagnosis", "core.statistics_s")):
            self.count(key, stages.get(stage, 0.0), kind)

    def _lay_out_stages(self, diagnose, stages: dict, children: list, kind) -> None:
        """Record the pipeline's stage timers as child spans laid end to
        end inside the diagnose span, and count the decoding done inside
        trace processing."""
        cursor = diagnose.start_ns
        for stage in PIPELINE_STAGES:
            seconds = stages.get(stage)
            if seconds is None:
                continue
            if stage == "points_to":
                real = [s for s in children if s.name == "core.points_to"]
                if real:
                    cursor = max(cursor, real[-1].end_ns)
                    continue
            span = self.tracer.record(
                f"core.{stage}", seconds, parent=diagnose, layer="core", kind=kind,
                request=diagnose.attrs["request"], synthesized=True,
            )
            span.start_ns = cursor
            span.end_ns = min(cursor + int(seconds * 1e9), diagnose.end_ns)
            if stage == "trace_processing":
                self.count("core.trace_processing_decode_s", sum(
                    c.duration_s for c in children
                    if c.name == "pt.decode" and span.start_ns <= c.start_ns
                    and c.end_ns <= span.end_ns
                ), kind)
            cursor = span.end_ns

    def _after_points_to(self, span, kind, analysis, args, kwargs) -> None:
        self.count("core.points_to_s", span.duration_s, kind)
        self.count("core.constraints", analysis.stats.constraints, kind)

    def _after_encode(self, span, kind, frame, args, kwargs) -> None:
        self.count("fleet.frames", kind=kind)
        self.count("fleet.wire_bytes", len(frame), kind)
        self.count("fleet.encode_s", span.duration_s, kind)

    def _after_decode_payload(self, span, kind, msg, args, kwargs) -> None:
        self.count("fleet.decode_s", span.duration_s, kind)

    def _after_store_read(self, span, kind, row, args, kwargs) -> None:
        self.count("store.reads", kind=kind)
        self.count("store.read_s", span.duration_s, kind)
        if row is not None:
            self.count("store.hits", kind=kind)

    def _after_store_write(self, span, kind, result, args, kwargs) -> None:
        self.count("store.writes", kind=kind)
        self.count("store.write_s", span.duration_s, kind)

    def absorb_fleet_server(self, metrics, kind: str) -> None:
        """Server-side counters a stopped FleetServer kept: requests it
        sent agents, batch frames, reroutes, job-queue wait."""
        self.count("fleet.trace_requests", metrics.counter("trace_requests_sent"), kind)
        self.count("fleet.batch_frames", metrics.counter("trace_batches_sent"), kind)
        self.count("fleet.reroutes", metrics.counter("trace_request_reroutes"), kind)
        self.count("fleet.queue_wait_s", sum(metrics.timings("queue_wait")), kind)

    # -- analysis -----------------------------------------------------------

    def layer_seconds(self, kind: str) -> tuple[dict[str, float], float]:
        """Wall time of ``kind``'s requests split by layer (the uncovered
        rest is "request"), and the total wall time."""
        by_request = defaultdict(list)
        for span in self.tracer.finished_spans():
            if span.attrs.get("request") is not None:
                by_request[span.attrs["request"]].append(span)
        totals: Counter = Counter()
        wall = 0
        for spans in by_request.values():
            root = next(s for s in spans if s.attrs["layer"] == "request")
            if root.attrs["kind"] != kind:
                continue
            wall += root.duration_ns
            for span, ns in _attribute(root, spans):
                untraced = span.attrs.get("untraced_s")
                if untraced is not None:
                    sim_ns = min(ns, int(untraced * 1e9))
                    totals["sim"] += sim_ns
                    totals["pt.encode"] += ns - sim_ns
                else:
                    totals[span.attrs["layer"]] += ns
        return {layer: ns / 1e9 for layer, ns in totals.items()}, wall / 1e9

    def write(self, spans_path, counts_path) -> None:
        write_trace_jsonl(spans_path, self.tracer)
        with open(counts_path, "w") as out:
            json.dump({kind: dict(c) for kind, c in self.counts.items()}, out, indent=1)


def _attribute(root, spans):
    """Split ``root``'s wall time among its spans: each instant goes to
    the span opened last among those open then (ties to the later id,
    the inner one).  Yields (span, nanoseconds) pieces."""
    lo, hi = root.start_ns, root.end_ns
    inner = sorted(
        (s for s in spans if s is not root and s.end_ns > lo and s.start_ns < hi),
        key=lambda s: s.start_ns,
    )
    points = sorted({lo, hi, *(max(lo, s.start_ns) for s in inner),
                     *(min(hi, s.end_ns) for s in inner)})
    heap: list = []  # open spans, the last opened on top
    i = 0
    for start, stop in zip(points, points[1:]):
        while i < len(inner) and max(lo, inner[i].start_ns) <= start:
            span = inner[i]
            heapq.heappush(heap, (-span.start_ns, -span.span_id, span))
            i += 1
        while heap and heap[0][2].end_ns <= start:
            heapq.heappop(heap)
        yield (heap[0][2] if heap else root), stop - start


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(lt: LayerTracer, search_runs: int) -> dict[str, float]:
    """The per-layer metrics.  Counts and times are those of primary
    requests, per primary request; ratios and rates are over the same
    totals.  The ``warm.`` metrics are the same figures for warm
    requests, per warm request.  ``search_runs`` is the set-up's
    executions."""
    metrics = _kind_metrics(lt, "latency", SHARE_LAYERS)
    metrics["runtime.failing_search_runs"] = search_runs
    for name, value in _kind_metrics(lt, "warm", WARM_SHARE_LAYERS).items():
        metrics[f"warm.{name}"] = value
    return metrics


def _kind_metrics(lt: LayerTracer, kind: str, share_layers) -> dict[str, float]:
    c = lt.counts[kind]
    requests = c["requests"]
    per = lambda key: _ratio(c[key], requests)  # noqa: E731
    shares, wall = lt.layer_seconds(kind)
    trace_processing_self = c["core.trace_processing_s"] - c["core.trace_processing_decode_s"]
    metrics = {
        "sim.runs": per("sim.runs"),
        "sim.instructions": per("sim.instructions"),
        "sim.busy_s": per("sim.busy_s"),
        "sim.instr_per_s": _ratio(c["sim.shadow_instructions"], c["sim.busy_s"]),
        "pt.encode_s": per("pt.encode_s"),
        "pt.bytes": per("pt.bytes"),
        "pt.packets": per("pt.packets"),
        "pt.mtc_share": _ratio(c["pt.timing_packets"], c["pt.packets"]),
        "pt.encode_mb_per_s": _ratio(c["pt.bytes"] / 1e6, c["pt.encode_s"]),
        "pt.decode_calls": per("pt.decode_calls"),
        "pt.decode_s": per("pt.decode_s"),
        "pt.decode_mb_per_s": _ratio(c["pt.decode_bytes"] / 1e6, c["pt.decode_s"]),
        "runtime.collect_s": per("runtime.collect_s"),
        "runtime.attempts": per("runtime.attempts"),
        "runtime.samples": per("runtime.samples"),
        "runtime.useful_ratio": _ratio(c["runtime.samples"], c["runtime.attempts"]),
        "core.trace_processing_self_s": _ratio(max(0.0, trace_processing_self), requests),
        "core.points_to_s": per("core.points_to_s"),
        "core.constraints": per("core.constraints"),
        "core.constraints_per_s": _ratio(c["core.constraints"], c["core.points_to_s"]),
        "core.type_ranking_s": per("core.type_ranking_s"),
        "core.patterns_s": per("core.patterns_s"),
        "core.statistics_s": per("core.statistics_s"),
        "core.pipeline_runs_per_request": per("core.pipeline_runs"),
        "core.trace_cache_hit_ratio": _ratio(
            c["core.trace_cache_hits"], c["core.trace_cache_hits"] + c["core.trace_cache_misses"]),
        "core.analysis_cache_hit_ratio": _ratio(
            c["core.analysis_cache_hits"],
            c["core.analysis_cache_hits"] + c["core.analysis_cache_misses"]),
        "fleet.frames": per("fleet.frames"),
        "fleet.wire_bytes": per("fleet.wire_bytes"),
        "fleet.encode_s": per("fleet.encode_s"),
        "fleet.decode_s": per("fleet.decode_s"),
        "fleet.trace_requests": per("fleet.trace_requests"),
        "fleet.batch_frames": per("fleet.batch_frames"),
        "fleet.queue_wait_s": per("fleet.queue_wait_s"),
        "fleet.reroutes": per("fleet.reroutes"),
        "store.reads": per("store.reads"),
        "store.writes": per("store.writes"),
        "store.read_s": per("store.read_s"),
        "store.write_s": per("store.write_s"),
        "store.hit_ratio": _ratio(c["store.hits"], c["store.reads"]),
        "trace.span_coverage_pct": 100.0 * (1 - _ratio(shares.get("request", 0.0), wall)),
    }
    for layer in share_layers:
        metrics[f"share.{layer}_pct"] = 100.0 * _ratio(shares.get(layer, 0.0), wall)
    return metrics
