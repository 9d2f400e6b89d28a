"""Client/server runtime: failure detection, trace collection policy,
predecessor fallback, protocol messages."""

import random

import pytest

from repro.ir import parse_module
from repro.runtime import (
    SnorlaxClient,
    SnorlaxServer,
    TraceRequest,
    classify,
)
from repro.runtime.server import _CollectionState

SRC = """
module t
struct Cfg { limit: i64 }
global g_cfg: ptr<Cfg> = null

func handler(d_poll: i64, d_use: i64) -> void {
entry:
  delay %d_poll
  %p = load @g_cfg
  %ok = cmp ne 0, 1
  cbr %ok, use, use
use:
  delay %d_use
  %f = fieldaddr %p, limit
  %v = load %f          @ h.c:12
  ret
}

func main(d_init: i64, d_poll: i64, d_use: i64) -> void {
entry:
  %t = spawn @handler(%d_poll, %d_use)
  delay %d_init
  %c = malloc Cfg
  %f = fieldaddr %c, limit
  store 10, %f
  store %c, @g_cfg
  %ok = cmp ne 0, 1
  cbr %ok, fin, fin
fin:
  join %t
  ret
}
"""


def _workload(seed):
    rng = random.Random(seed)
    q = 200_000
    d_init = 5 * q
    k = rng.choice([-2, -1, 1, 2])
    return (d_init, max(d_init + k * q, q), 4 * q)


@pytest.fixture(scope="module")
def module():
    return parse_module(SRC)


@pytest.fixture(scope="module")
def client(module):
    return SnorlaxClient(module, _workload)


def test_find_runs_splits_by_outcome(client):
    fails = client.find_runs(True, 3, start_seed=0)
    oks = client.find_runs(False, 3, start_seed=0)
    assert len(fails) == 3 and all(r.failed for r in fails)
    assert len(oks) == 3 and all(not r.failed for r in oks)


def test_failure_snapshot_taken_automatically(client):
    run = client.find_runs(True, 1)[0]
    assert run.snapshot is not None
    assert run.snapshot.reason == "failure"
    assert run.failure.kind == "crash"


def test_classify_success_is_none(client):
    run = client.find_runs(False, 1)[0]
    assert classify(run.result) is None


def test_untraced_run_matches_outcome(client):
    run = client.find_runs(True, 1, start_seed=0)
    base = client.run_untraced(run[0].seed)
    assert base.outcome == run[0].result.outcome


def test_server_collects_successful_traces(module, client):
    failing = client.find_runs(True, 1)[0]
    server = SnorlaxServer(module, success_traces_wanted=5)
    samples = server.collect_successful_traces(
        client, failing.failure.failing_uid, 5_000
    )
    assert len(samples) == 5
    assert all(not s.failing for s in samples)
    assert all(s.buffers for s in samples)
    assert server.stats.success_traces == 5


def test_server_end_to_end_diagnosis(module, client):
    failing = client.find_runs(True, 1)[0]
    server = SnorlaxServer(module)
    report = server.diagnose(failing, client).report
    assert report.diagnosed
    read_uid = next(
        i.uid for i in module.instructions() if i.loc and i.loc.line == 12
    )
    # read-before-init: the stale pointer read precedes the publication
    diag = report.ordered_target_uids()
    assert report.bug_kind == "order-violation"
    assert report.root_cause.f1 == 1.0


def test_handle_trace_request_protocol(module, client):
    server = SnorlaxServer(module)
    failing = client.find_runs(True, 1)[0]
    req = TraceRequest(label="probe", seed=failing.seed, breakpoint_uids=())
    resp = server.handle_trace_request(client, req)
    assert resp.label == "probe"
    assert resp.outcome in ("crash", "success", "assert")
    if resp.sample is not None:
        assert resp.sample.buffers


def test_handle_trace_request_counts_executions(module, client):
    # Regression: the message-level API used to bypass the stats counter,
    # so a server driven over the protocol under-reported executions.
    server = SnorlaxServer(module)
    req = TraceRequest(label="probe", seed=123)
    server.handle_trace_request(client, req)
    server.handle_trace_request(client, req)
    assert server.stats.executions_requested == 2


def test_handle_trace_request_honors_breakpoint_skip(module, client):
    # Regression: breakpoint_skip was dropped on the protocol path, so
    # message-driven collection could not vary execution maturity the way
    # collect_successful_traces does.
    server = SnorlaxServer(module)
    ok = client.find_runs(False, 1)[0]
    uid = next(i.uid for i in module.instructions() if i.loc and i.loc.line == 12)
    base = server.handle_trace_request(
        client, TraceRequest(label="s0", seed=ok.seed, breakpoint_uids=(uid,))
    )
    assert base.sample is not None
    # An absurdly large skip means the breakpoint never fires, so a
    # successful run produces no snapshot at all.
    skipped = server.handle_trace_request(
        client,
        TraceRequest(
            label="s1", seed=ok.seed, breakpoint_uids=(uid,), breakpoint_skip=10_000
        ),
    )
    assert skipped.outcome == "success"
    assert skipped.sample is None


def _reference_collect(server, client, uid, start_seed, failing_sample=None):
    """Step 8 one request at a time, straight through the collection
    policy: the evidence wave collection must reproduce byte for byte."""
    state = _CollectionState(
        server, uid, start_seed, server._make_stop_rule(failing_sample)
    )
    while not state.done:
        request = state.speculate(0)
        state.consume(request, server.handle_trace_request(client, request))
    return state.samples


def test_batched_collection_gathers_identical_evidence(module, client):
    # Speculative waves must be invisible in the evidence: same samples,
    # same labels, same bytes as the one-request-at-a-time loop — only
    # the number of *issued* requests may differ.
    failing = client.find_runs(True, 1)[0]
    uid = failing.failure.failing_uid
    for stopping in ("fixed", "stable-top"):
        reference = SnorlaxServer(module, success_traces_wanted=4, stopping=stopping)
        failing_sample = reference.sample_from_run("failure", failing)
        base = _reference_collect(reference, client, uid, 5_000, failing_sample)
        batched = SnorlaxServer(module, success_traces_wanted=4, stopping=stopping)
        spec = batched.collect_successful_traces(
            client, uid, 5_000, failing_sample=failing_sample
        )
        assert [s.label for s in base] == [s.label for s in spec], stopping
        assert [s.buffers for s in base] == [s.buffers for s in spec], stopping
        assert [s.positions for s in base] == [s.positions for s in spec], stopping
        assert batched.stats.success_traces == reference.stats.success_traces


def test_adaptive_stopping_is_transport_invariant(module, client):
    # stable-top stopping is a pure function of the sample prefix: the
    # reference loop and wave collection must stop at the same sample,
    # and fixed stopping must still collect the full count
    failing = client.find_runs(True, 1)[0]
    uid = failing.failure.failing_uid
    for stopping in ("fixed", "stable-top"):
        collected = {}
        for label in ("reference", "batched"):
            server = SnorlaxServer(
                module,
                success_traces_wanted=10,
                stopping=stopping,
                adaptive_min_traces=3,
            )
            failing_sample = server.sample_from_run("failure", failing)
            if label == "reference":
                collected[label] = _reference_collect(
                    server, client, uid, 5_000, failing_sample
                )
            else:
                collected[label] = server.collect_successful_traces(
                    client, uid, 5_000, failing_sample=failing_sample
                )
                assert server.last_collection is not None
                assert server.last_collection.satisfied
        reference, batched = collected["reference"], collected["batched"]
        assert [s.label for s in reference] == [s.label for s in batched]
        assert [s.buffers for s in reference] == [s.buffers for s in batched]
        if stopping == "stable-top":
            # adaptive stopping actually stopped early — fewer than the cap
            assert len(reference) < 10
        else:
            assert len(reference) == 10


def test_server_caches_shared_across_diagnoses(module, client):
    from repro.core.cache import AnalysisCache, DecodedTraceCache

    failing = client.find_runs(True, 1)[0]
    server = SnorlaxServer(
        module,
        analysis_cache=AnalysisCache(),
        trace_cache=DecodedTraceCache(),
    )
    first = server.diagnose(failing, client).report
    cold = dict(server.last_pipeline.last_cache_events)
    assert cold["analysis_cache_misses"] == 1
    # streaming decode warms the trace cache while collection is still
    # in flight, so even the cold pipeline run sees only hits
    assert cold["trace_cache_misses"] == 0
    assert cold["trace_cache_hits"] > 0
    second = server.diagnose(failing, client).report
    warm = server.last_pipeline.last_cache_events
    # identical evidence: points-to and every decode come from cache
    assert warm["analysis_cache_hits"] == 1
    assert warm["trace_cache_misses"] == 0
    assert warm["trace_cache_hits"] == cold["trace_cache_hits"]
    assert first.root_cause.signature == second.root_cause.signature


def test_collection_identical_via_message_api(module, client):
    # The two collection paths must gather identical evidence: the
    # in-process convenience wrapper is now defined as collect_traces_via
    # over handle_trace_request.
    failing = client.find_runs(True, 1)[0]
    uid = failing.failure.failing_uid
    a = SnorlaxServer(module, success_traces_wanted=4)
    direct = a.collect_successful_traces(client, uid, 5_000)
    b = SnorlaxServer(module, success_traces_wanted=4)
    via = b.collect_traces_via(
        lambda reqs: [b.handle_trace_request(client, r) for r in reqs], uid, 5_000
    )
    assert [s.label for s in direct] == [s.label for s in via]
    assert [s.buffers for s in direct] == [s.buffers for s in via]
    assert a.stats == b.stats
    assert a.stats.executions_requested > 0
    server = SnorlaxServer(module)
    read_uid = next(
        i.uid for i in module.instructions() if i.loc and i.loc.line == 12
    )
    widened = server._widen_breakpoints(read_uid)
    assert widened[0] == read_uid
    assert len(widened) > 1  # plus predecessor block anchors
