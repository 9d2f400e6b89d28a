"""The always-on fleet: heartbeats, stale eviction, anomaly-triggered
diagnosis, and provenance served live.

The acceptance story: a monitored endpoint that goes silent is evicted
(and its socket closed); when it comes back it is re-admitted; the
anomaly detector fires exactly once per signature per window; an
anomaly-triggered diagnosis digests identically to the on-demand
diagnosis of the same failure; and the evidence graph a warm restart
serves from the store digests identically to the cold run's graph.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.corpus import bug
from repro.fleet import (
    EwmaAnomalyDetector,
    FleetAgent,
    FleetConfig,
    FleetMetrics,
    FleetServer,
    Heartbeat,
    MonitorLoop,
    MonitorSample,
    decode_frame,
    encode_frame,
    report_digest,
    run_fleet,
)
from repro.fleet.shard import signature_for_failure
from repro.ir import parse_module
from repro.provenance import EvidenceGraph, report_key
from repro.runtime import SnorlaxClient, SnorlaxServer
from repro.store import DiagnosisStore

from tests.fleet.test_wire import make_sample
from tests.runtime.test_client_server import SRC, _workload


@pytest.fixture(scope="module")
def custom_module():
    return parse_module(SRC)


@pytest.fixture(scope="module")
def failing_run(custom_module):
    client = SnorlaxClient(custom_module, _workload)
    return client.find_runs(True, 1)[0]


class _Clock:
    """Injectable monotonic time: the soak compresses hours into it."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _trippy_detector():
    # alpha == threshold with min_observations=1: the FIRST failing
    # sample trips, pinning the triggering seed to the on-demand seed
    return EwmaAnomalyDetector(
        alpha=0.5, failure_threshold=0.5, min_observations=1, window_s=1e9
    )


def _inert_detector():
    # scores live in [0, 1]: thresholds above 1 can never trip, so the
    # liveness tests stay pure liveness (no surprise diagnosis jobs)
    return EwmaAnomalyDetector(failure_threshold=1.1, hang_threshold=1.1)


# -- wire round-trips -------------------------------------------------------


def _roundtrip(msg, request_id=3):
    decoded, rid = decode_frame(encode_frame(msg, request_id))
    assert rid == request_id
    return decoded


def test_heartbeat_round_trips():
    beat = Heartbeat(
        agent_id="ep-7", seq=41, uptime_s=12.5, samples_sent=80, failures_seen=3
    )
    assert _roundtrip(beat) == beat


def test_monitor_sample_round_trips_with_and_without_evidence():
    success = MonitorSample(
        bug_id="pbzip2-n/a", seed=9, outcome="success", hang=False, sample=None
    )
    assert _roundtrip(success) == success
    failure = MonitorSample(
        bug_id="pbzip2-n/a",
        seed=10,
        outcome="failure",
        hang=True,
        sample=make_sample(),
    )
    assert _roundtrip(failure) == failure


# -- anomaly detector -------------------------------------------------------


def test_detector_waits_for_min_observations():
    det = EwmaAnomalyDetector(
        alpha=0.5, failure_threshold=0.5, min_observations=3, window_s=60.0
    )
    assert det.observe("b", "b|crash|1", False, 0.0) is None  # obs 1
    assert det.observe("b", "b|crash|1", False, 1.0) is None  # obs 2
    event = det.observe("b", "b|crash|1", False, 2.0)  # obs 3: armed
    assert event is not None
    assert event.reason == "failure-rate"
    assert event.signature == "b|crash|1"
    assert event.score >= 0.5


def test_detector_fires_once_per_signature_per_window():
    det = _trippy_detector()
    det.window_s = 60.0
    assert det.observe("b", "b|crash|1", False, 10.0) is not None
    # still hot, but inside the window: suppressed
    assert det.observe("b", "b|crash|1", False, 20.0) is None
    assert det.observe("b", "b|crash|1", False, 69.0) is None
    # a different signature has its own window
    assert det.observe("b", "b|crash|2", False, 21.0) is not None
    # past the window the first signature re-trips
    assert det.observe("b", "b|crash|1", False, 71.0) is not None


def test_hangs_trip_at_the_lower_threshold():
    det = EwmaAnomalyDetector(
        alpha=0.4, failure_threshold=0.5, hang_threshold=0.3,
        min_observations=1, window_s=60.0,
    )
    # one hang: score 0.4 < failure threshold, but hang_score 0.4 >= 0.3
    event = det.observe("b", "b|deadlock|5", True, 0.0)
    assert event is not None
    assert event.reason == "hang-rate"


def test_successes_decay_and_prune_signature_state():
    det = _trippy_detector()
    det.observe("b", "b|crash|1", False, 0.0)
    assert det.tracked_signatures("b") == 1
    score_after_hit = det.snapshot()["b"]["b|crash|1"]["score"]
    det.observe("b", None, False, 1.0)  # a success decays...
    assert det.snapshot()["b"]["b|crash|1"]["score"] < score_after_hit
    for i in range(60):  # ...and a long quiet streak prunes to nothing
        det.observe("b", None, False, 2.0 + i)
    assert det.tracked_signatures("b") == 0


# -- liveness: heartbeat loss -> eviction -> reconnect -> re-admission ------


def _status_row(server, agent_id):
    for row in server.fleet_status()["agents"]:
        if row["agent_id"] == agent_id:
            return row
    return None


def test_silent_monitor_is_evicted_then_readmitted(custom_module):
    clock = _Clock()
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        heartbeat_timeout_s=5.0,
        prune_interval_s=0.05,
        anomaly_detector=_inert_detector(),
        clock=clock,
    )
    host, port = server.start()
    stop = threading.Event()
    agent = FleetAgent(
        "mon-0", "custom-readbeforeinit", custom_module, _workload, host, port
    )
    try:
        agent.connect()
        loop = MonitorLoop(agent, clock=clock)
        assert "heartbeat" in loop.tick(clock.t, stop=stop)
        # the heartbeat travels the wire; poll until the server saw it
        row = None
        deadline = time.time() + 5.0
        while time.time() < deadline:
            row = _status_row(server, "mon-0")
            if row is not None and row["monitored"]:
                break
            time.sleep(0.01)
        assert row is not None and row["alive"] and row["monitored"]
        assert row["heartbeats"] >= 1

        # the endpoint goes silent for twice the timeout
        clock.t += 10.0
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if server.metrics.counter("agents_evicted_stale") >= 1:
                break
            time.sleep(0.02)
        assert server.metrics.counter("agents_evicted_stale") == 1
        assert _status_row(server, "mon-0") is None  # gone, not a zombie row
        time.sleep(0.2)  # more prune cycles: eviction counted exactly once
        assert server.metrics.counter("agents_evicted_stale") == 1

        # the agent notices the closed socket and reconnects
        events = []
        deadline = time.time() + 5.0
        while "reconnect" not in events and time.time() < deadline:
            clock.t += 0.1
            events.extend(loop.tick(clock.t, stop=stop))
        assert "reconnect" in events
        # the Hello travels the wire; poll until the server re-admits
        row = None
        deadline = time.time() + 5.0
        while row is None and time.time() < deadline:
            clock.t += 0.1
            loop.tick(clock.t, stop=stop)
            row = _status_row(server, "mon-0")
            time.sleep(0.01)
        assert row is not None and row["alive"]
    finally:
        stop.set()
        agent.close()
        server.stop()


def test_eviction_reaps_only_the_silent(custom_module):
    # regression: conns abandoned by crashed endpoints (the chaos
    # crash plan leaves the socket dangling without a Goodbye) used to
    # accumulate in _agents forever; the prune loop must reap exactly
    # the silent ones and leave the heartbeating endpoint alone
    clock = _Clock()
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        heartbeat_timeout_s=5.0,
        prune_interval_s=0.05,
        anomaly_detector=_inert_detector(),
        clock=clock,
    )
    host, port = server.start()
    stop = threading.Event()
    silent = [
        FleetAgent(
            f"dead-{i}", "custom-readbeforeinit", custom_module, _workload,
            host, port,
        )
        for i in range(3)
    ]
    live = FleetAgent(
        "alive-0", "custom-readbeforeinit", custom_module, _workload, host, port
    )
    try:
        for agent in silent:
            agent.connect()  # Hello, then nothing: a crashed endpoint
        live.connect()
        loop = MonitorLoop(live, heartbeat_interval_s=0.5, clock=clock)
        deadline = time.time() + 10.0
        while time.time() < deadline:
            # small simulated steps: the live agent's heartbeats stay
            # well inside the timeout even if frame processing lags
            clock.t += 0.5
            loop.tick(clock.t, stop=stop)  # the live one keeps beating
            if server.metrics.counter("agents_evicted_stale") >= 3:
                break
            time.sleep(0.02)
        assert server.metrics.counter("agents_evicted_stale") == 3
        survivors = {r["agent_id"] for r in server.fleet_status()["agents"]}
        assert survivors == {"alive-0"}
    finally:
        stop.set()
        for agent in silent:
            agent.close()
        live.close()
        server.stop()


# -- anomaly-triggered diagnosis == on-demand diagnosis ---------------------


def _monitor_until_diagnosed(server, agent, clock, signature, stop):
    """Tick the monitor loop (compressed time) until the server's
    anomaly path has recorded a digest for ``signature``."""
    loop = MonitorLoop(agent, clock=clock)
    deadline = time.time() + 120.0
    while time.time() < deadline:
        clock.t += 0.5
        loop.tick(clock.t, stop=stop)
        digest = server.anomaly_digests().get(signature)
        if digest is not None:
            return digest
        time.sleep(0.002)
    raise AssertionError(f"anomaly never diagnosed {signature}")


def test_anomaly_triggered_digest_matches_on_demand(custom_module, failing_run):
    signature = signature_for_failure("custom-readbeforeinit", failing_run)
    clock = _Clock()
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        success_traces_wanted=4,
        anomaly_detector=_trippy_detector(),
        clock=clock,
    )
    host, port = server.start()
    stop = threading.Event()
    agent = FleetAgent(
        "mon-1", "custom-readbeforeinit", custom_module, _workload, host, port
    )
    try:
        agent.connect()
        anomaly_digest = _monitor_until_diagnosed(
            server, agent, clock, signature, stop
        )
        # the equivalence contract: unprompted == asked-for
        client = SnorlaxClient(custom_module, _workload)
        in_process = SnorlaxServer(
            custom_module, success_traces_wanted=4
        ).diagnose(failing_run, client).report
        assert anomaly_digest == report_digest(in_process)
        # exactly one trigger: the window is effectively infinite
        assert server.metrics.counter("anomaly_triggers") == 1
        # the timeline tells the story in order
        events = [e["event"] for e in server.timeline()]
        assert events.count("anomaly") == 1
        assert "diagnosis" in events
        status = server.fleet_status()
        assert status["diagnosed"][signature]["anomaly_triggered"]
        # the evidence graph is queryable by the report key and whole
        key = report_key(anomaly_digest)
        graph = server.evidence_graph(key)
        assert graph is not None
        assert EvidenceGraph.from_dict(graph.to_dict()).digest() == graph.digest()
        assert graph.nodes_of_kind("report") and graph.nodes_of_kind("pt_buffer")
    finally:
        stop.set()
        agent.close()
        server.stop()


def test_store_served_evidence_identical_to_cold(
    custom_module, failing_run, tmp_path
):
    signature = signature_for_failure("custom-readbeforeinit", failing_run)
    path = str(tmp_path / "fleet.db")
    stop = threading.Event()

    # cold: a monitored fleet diagnoses the anomaly and persists evidence
    clock = _Clock()
    store = DiagnosisStore(path)
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        success_traces_wanted=4,
        anomaly_detector=_trippy_detector(),
        clock=clock,
        store=store,
    )
    host, port = server.start()
    agent = FleetAgent(
        "mon-2", "custom-readbeforeinit", custom_module, _workload, host, port
    )
    try:
        agent.connect()
        cold_digest = _monitor_until_diagnosed(
            server, agent, clock, signature, stop
        )
        key = report_key(cold_digest)
        cold_graph = server.evidence_graph(key)
        assert cold_graph is not None
    finally:
        stop.set()
        agent.close()
        server.stop()
        store.close()

    # warm restart: same store, fresh process; the first failing sample
    # trips the detector and is served from disk — no diagnosis runs
    stop = threading.Event()
    clock = _Clock()
    store = DiagnosisStore(path)
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        success_traces_wanted=4,
        anomaly_detector=_trippy_detector(),
        clock=clock,
        store=store,
    )
    host, port = server.start()
    agent = FleetAgent(
        "mon-3", "custom-readbeforeinit", custom_module, _workload, host, port
    )
    try:
        agent.connect()
        warm_digest = _monitor_until_diagnosed(
            server, agent, clock, signature, stop
        )
        assert warm_digest == cold_digest
        assert server.metrics.counter("diagnoses_from_store") >= 1
        assert server.metrics.counter("diagnoses_completed") == 0
        warm_graph = server.evidence_graph(report_key(warm_digest))
        assert warm_graph is not None
        assert warm_graph.digest() == cold_graph.digest()
    finally:
        stop.set()
        agent.close()
        server.stop()
        store.close()


# -- the dashboard ----------------------------------------------------------


def _get_json(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        assert resp.status == 200
        return json.loads(resp.read().decode())


def test_dashboard_serves_fleet_state(custom_module):
    server = FleetServer(
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        dashboard_port=0,
    )
    server.start()
    try:
        url = server.dashboard.url
        status = _get_json(url + "api/fleet")
        assert set(status) == {"agents", "anomaly", "diagnosed"}
        assert _get_json(url + "api/timeline") == []
        with urllib.request.urlopen(url, timeout=5) as resp:
            assert b"<html" in resp.read().lower()
        with urllib.request.urlopen(url + "metrics", timeout=5) as resp:
            assert resp.status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url + "api/evidence?report=nope", timeout=5)
        assert excinfo.value.code == 404
    finally:
        server.stop()


def test_monitored_run_fleet_matches_in_process():
    # the monitored demo as one library call: endpoints heartbeat and
    # sample through the whole run, the dashboard is served, and the
    # reported digests equal the in-process diagnosis
    bug_ids = ("pbzip2-n/a", "aget-2")
    config = FleetConfig(
        agents=6,
        bug_ids=bug_ids,
        reporters_per_bug=1,
        workers=2,
        monitoring=True,
        dashboard_port=0,
        heartbeat_interval_s=0.2,
        sample_interval_s=0.5,
        heartbeat_timeout_s=10.0,
    )
    result = run_fleet(config, metrics=FleetMetrics())
    assert not [o for o in result.outcomes if o.error]
    assert result.heartbeats_received > 0
    assert result.monitor_samples_received > 0
    assert result.dashboard_url is not None

    expected = {}
    for bug_id in bug_ids:
        spec = bug(bug_id)
        client = SnorlaxClient(spec.module(), spec.workload, entry=spec.entry)
        failing = client.find_runs(True, 1)[0]
        report = SnorlaxServer(spec.module()).diagnose(failing, client).report
        expected[signature_for_failure(bug_id, failing)] = report_digest(report)
    assert result.digests == expected
