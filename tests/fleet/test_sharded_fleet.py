"""Sharded fleet + persistent store: dedup, warm restart, convergence.

The three acceptance properties of the sharded design:

* **Cross-shard dedup** — the same signature reported directly to two
  different shards runs the diagnosis pipeline exactly once; the second
  shard serves the stored report (proven by store counters).
* **Warm restart** — a brand-new server process pointed at the same
  store file re-diagnoses nothing for stored signatures and reproduces
  the cold run's digests byte for byte.
* **Chaos convergence** — a 3-shard run with a shard killed mid-flight
  (shared store, same ports) converges to digests identical to the
  fault-free single-server in-process diagnosis.
"""

import threading
import time

import pytest

from repro.corpus import bug
from repro.fleet import (
    FleetAgent,
    FleetConfig,
    FleetMetrics,
    FleetServer,
    ShardedFleet,
    report_digest,
    run_fleet,
)
from repro.fleet.chaos import FaultPlan
from repro.ir import parse_module
from repro.runtime import SnorlaxClient, SnorlaxServer
from repro.store import DiagnosisStore

from tests.runtime.test_client_server import SRC, _workload

BUG_ID = "custom-readbeforeinit"


@pytest.fixture(scope="module")
def custom_module():
    return parse_module(SRC)


def _report_once(module, host, port, agent_id, stop):
    agent = FleetAgent(agent_id, BUG_ID, module, _workload, host, port)
    agent.connect()
    try:
        return agent.report_failure(agent.find_failure(), stop=stop)
    finally:
        agent.close()


def test_same_signature_on_two_shards_diagnoses_once(custom_module):
    store = DiagnosisStore()
    metrics = FleetMetrics()
    fleet = ShardedFleet(
        shards=2,
        store=store,
        metrics=metrics,
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        max_pending=4,
        success_traces_wanted=3,
    )
    addresses = fleet.start()
    stop = threading.Event()
    try:
        results = [
            _report_once(custom_module, *addresses[name], f"agent-{name}", stop)
            for name in fleet.shard_names
        ]
    finally:
        stop.set()
        fleet.stop()
    assert results[0].signature == results[1].signature
    assert results[0].digest == results[1].digest
    # exactly one pipeline execution fleet-wide...
    assert metrics.counter("diagnoses_completed") == 1
    assert metrics.counter("jobs_submitted") == 1
    # ...and the second shard provably served from the shared store
    assert metrics.counter("diagnoses_from_store") == 1
    assert store.report_stats.hits >= 1
    assert store.report_stats.writes == 1
    store.close()


def test_warm_restart_skips_stored_signatures(custom_module, tmp_path):
    path = str(tmp_path / "fleet.db")
    resolver = lambda bug_id: custom_module  # noqa: E731
    stop = threading.Event()

    store_cold = DiagnosisStore(path)
    cold_metrics = FleetMetrics()
    server = FleetServer(
        module_resolver=resolver,
        store=store_cold,
        metrics=cold_metrics,
        workers=1,
        success_traces_wanted=3,
    )
    host, port = server.start()
    try:
        cold = _report_once(custom_module, host, port, "agent-cold", stop)
    finally:
        server.stop()
        store_cold.close()
    assert cold_metrics.counter("diagnoses_completed") == 1

    # a brand-new server "process": fresh metrics, fresh store handle,
    # same file — the stored signature must not be re-diagnosed
    store_warm = DiagnosisStore(path)
    assert store_warm.counts()["reports"] == 1
    warm_metrics = FleetMetrics()
    server = FleetServer(
        module_resolver=resolver,
        store=store_warm,
        metrics=warm_metrics,
        workers=1,
        success_traces_wanted=3,
    )
    host, port = server.start()
    try:
        warm = _report_once(custom_module, host, port, "agent-warm", stop)
    finally:
        server.stop()
        store_warm.close()

    assert warm.signature == cold.signature
    assert warm.digest == cold.digest
    assert warm_metrics.counter("diagnoses_completed") == 0
    assert warm_metrics.counter("jobs_submitted") == 0
    assert warm_metrics.counter("diagnoses_from_store") == 1


def test_shard_kill_restart_keeps_serving(custom_module):
    # kill a shard in place mid-session: agents reconnect and the next
    # report of a stored signature is still served, digest unchanged
    store = DiagnosisStore()
    metrics = FleetMetrics()
    fleet = ShardedFleet(
        shards=2,
        store=store,
        metrics=metrics,
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        success_traces_wanted=3,
    )
    addresses = fleet.start()
    stop = threading.Event()
    try:
        name = fleet.shard_names[0]
        first = _report_once(
            custom_module, *addresses[name], "agent-before", stop
        )
        fleet.restart_shard(name)
        time.sleep(0.05)  # let the listener come back on the same port
        second = _report_once(
            custom_module, *addresses[name], "agent-after", stop
        )
    finally:
        stop.set()
        fleet.stop()
    assert second.digest == first.digest
    assert metrics.counter("shard_kills") == 1
    assert metrics.counter("server_restarts") == 1
    # the post-kill report came from the store, not a second diagnosis
    assert metrics.counter("diagnoses_completed") == 1
    store.close()


def test_remove_shard_rebalances_and_store_covers_moved_keys(custom_module):
    store = DiagnosisStore()
    metrics = FleetMetrics()
    fleet = ShardedFleet(
        shards=3,
        store=store,
        metrics=metrics,
        module_resolver=lambda bug_id: custom_module,
        workers=1,
        max_pending=4,
        success_traces_wanted=3,
    )
    addresses = fleet.start()
    stop = threading.Event()
    try:
        client = SnorlaxClient(custom_module, _workload)
        failing = client.find_runs(True, 1)[0]
        from repro.fleet import signature_for_failure

        signature = signature_for_failure(BUG_ID, failing)
        owner = fleet.route(signature)
        first = _report_once(
            custom_module, *addresses[owner], "agent-owner", stop
        )
        # the owner leaves for good; the signature lands on a survivor
        fleet.remove_shard(owner)
        assert owner not in fleet.shard_names
        new_owner = fleet.route(signature)
        assert new_owner != owner
        second = _report_once(
            custom_module, *fleet.address_of(new_owner), "agent-moved", stop
        )
    finally:
        stop.set()
        fleet.stop()
    assert second.digest == first.digest
    assert metrics.counter("shards_removed") == 1
    assert metrics.counter("diagnoses_completed") == 1  # store covered it
    assert metrics.counter("diagnoses_from_store") == 1
    store.close()


# -- the acceptance run: 3-shard chaos vs fault-free single server ----------


@pytest.fixture(scope="module")
def sharded_chaos_run(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "fleet.db")
    metrics = FleetMetrics()
    config = FleetConfig(
        agents=8,
        bug_ids=("pbzip2-n/a", "memcached-271"),
        reporters_per_bug=2,
        workers=2,
        max_pending=8,
        shards=3,
        store_path=path,
        chaos=FaultPlan(seed=11, server_restart_after_s=0.75),
    )
    result = run_fleet(config, metrics=metrics)
    return result, metrics, path


def test_sharded_chaos_run_is_clean(sharded_chaos_run):
    result, metrics, _ = sharded_chaos_run
    errors = [o for o in result.outcomes if o.error]
    assert not errors, errors
    # one signature per bug: all reporters of a bug collide on it
    assert {s.split("|", 1)[0] for s in result.digests} == {
        "pbzip2-n/a",
        "memcached-271",
    }
    # every reporter routed itself by signature (4 reporters, 2 bugs)
    assert metrics.counter("shard_routes") >= 4


def test_sharded_chaos_digests_match_single_server_in_process(
    sharded_chaos_run,
):
    result, _, _ = sharded_chaos_run
    assert result.digests, "chaos run produced no diagnoses"
    for signature, digest in sorted(result.digests.items()):
        if digest.get("degraded"):
            continue  # thinner evidence; not comparable
        bug_id = signature.split("|", 1)[0]
        spec = bug(bug_id)
        client = SnorlaxClient(spec.module(), spec.workload, entry=spec.entry)
        failing = client.find_runs(True, 1)[0]
        expected = report_digest(
            SnorlaxServer(spec.module()).diagnose(failing, client).report
        )
        assert digest == expected, f"{signature} diverged from in-process"


def test_sharded_chaos_run_persisted_its_reports(sharded_chaos_run):
    result, _, path = sharded_chaos_run
    stored_signatures = set()
    with DiagnosisStore(path) as db:
        stored_signatures = set(db.signatures())
    non_degraded = {
        s for s, d in result.digests.items() if not d.get("degraded")
    }
    assert non_degraded <= stored_signatures
