"""DiagnosisStore: schema versioning, the three tiers, counters."""

import sqlite3

import pytest

from repro.errors import FleetError
from repro.obs import MetricsRegistry
from repro.store import SCHEMA_VERSION, DiagnosisStore, scope_key

DIGEST = {"bug_kind": "order-violation", "failing_uid": 7, "diagnosed": True}


def test_fresh_store_is_at_current_schema(tmp_path):
    with DiagnosisStore(str(tmp_path / "s.db")) as db:
        assert db.schema_version == SCHEMA_VERSION
        assert db.counts() == {
            "reports": 0, "analyses": 0, "traces": 0,
            "evidence_nodes": 0, "evidence_edges": 0,
        }


def test_validation_roundtrips_and_defaults_to_none():
    with DiagnosisStore() as db:
        validation = {
            "status": "refuted",
            "witnesses": [{"mode": "forced", "seed": 7}],
            "notes": ["forced order did not reproduce the failure"],
        }
        assert db.put_report("sig", "bug", DIGEST, validation=validation)
        assert db.get_report("sig").validation == validation
        assert db.put_report("bare", "bug", DIGEST)
        assert db.get_report("bare").validation is None


def test_future_schema_is_refused(tmp_path):
    # any version but the current one is refused, older ones included:
    # the store is created at SCHEMA_VERSION and has no migration path
    for version in (1, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1):
        path = str(tmp_path / f"v{version}.db")
        with DiagnosisStore(path):
            pass
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE meta SET value=? WHERE key='schema_version'",
                (str(version),),
            )
        conn.close()
        with pytest.raises(FleetError, match=f"schema v{version}"):
            DiagnosisStore(path)


def test_report_roundtrip_and_idempotent_writes():
    with DiagnosisStore() as db:
        assert db.get_report("sig") is None  # counted as a miss
        assert db.put_report("sig", "bug", DIGEST) is True
        assert db.put_report("sig", "bug", {"other": 1}) is False  # first wins
        report = db.get_report("sig")
        assert report.digest == DIGEST
        assert report.bug_id == "bug"
        assert not report.degraded
        assert db.report_stats.hits == 1
        assert db.report_stats.misses == 1
        assert db.report_stats.writes == 1  # the duplicate did not count
        assert db.signatures() == ["sig"]


def test_degraded_reports_are_never_stored():
    with DiagnosisStore() as db:
        assert db.put_report("sig", "bug", DIGEST, degraded=True) is False
        assert db.get_report("sig") is None
        assert db.counts()["reports"] == 0


def test_analysis_and_trace_tiers_roundtrip():
    with DiagnosisStore() as db:
        assert db.get_analysis("fp", "whole", "andersen") is None
        assert db.put_analysis("fp", "whole", "andersen", b"payload")
        assert not db.put_analysis("fp", "whole", "andersen", b"other")
        assert db.get_analysis("fp", "whole", "andersen") == b"payload"

        assert db.get_trace("fp", 1, "abcd", 500) is None
        assert db.put_trace("fp", 1, "abcd", 500, b"trace")
        assert db.get_trace("fp", 1, "abcd", 500) == b"trace"
        assert db.get_trace("fp", 2, "abcd", 500) is None  # tid keys

        assert db.analysis_stats.writes == 1
        assert db.trace_stats.writes == 1
        assert db.counts() == {
            "reports": 0, "analyses": 1, "traces": 1,
            "evidence_nodes": 0, "evidence_edges": 0,
        }


def test_aggregate_stats_and_absorb_vocabulary():
    with DiagnosisStore() as db:
        db.put_report("sig", "bug", DIGEST)
        db.get_report("sig")
        db.get_analysis("fp", "whole", "andersen")  # miss
        registry = MetricsRegistry()
        db.absorb_into(registry)
        assert registry.counter("store_hits") == 1
        assert registry.counter("store_misses") == 1
        assert registry.counter("store_writes") == 1
        assert registry.counter("report_store_hits") == 1
        assert registry.counter("analysis_store_misses") == 1
        # absorb sets totals: re-absorbing is idempotent
        db.absorb_into(registry)
        assert registry.counter("store_writes") == 1


def test_rows_survive_reopen(tmp_path):
    path = str(tmp_path / "persist.db")
    with DiagnosisStore(path) as db:
        db.put_report("sig", "bug", DIGEST)
        db.put_analysis("fp", "whole", "andersen", b"a")
        db.put_trace("fp", 1, "hash", 500, b"t")
    with DiagnosisStore(path) as db:
        assert db.counts() == {
            "reports": 1, "analyses": 1, "traces": 1,
            "evidence_nodes": 0, "evidence_edges": 0,
        }
        assert db.get_report("sig").digest == DIGEST


def test_scope_key_is_order_free_and_marks_whole_program():
    assert scope_key(None) == "whole"
    assert scope_key({3, 1, 2}) == scope_key([2, 3, 1])
    assert scope_key({1}) != scope_key({2})


# -- evidence tier (schema v4) ---------------------------------------------


class _Sample:
    """Just enough of a TraceSample for build_evidence_graph."""

    def __init__(self, label, failing, buffers):
        self.label = label
        self.failing = failing
        self.buffers = buffers


def _graph():
    from repro.provenance import build_evidence_graph

    digest = {
        "bug_kind": "order-violation",
        "failing_uid": 7,
        "diagnosed": True,
        "ranked_patterns": ["W10 -> R12"],
        "stage_funnel": {"alias_candidates": 4, "rank1_candidates": 1},
    }
    return build_evidence_graph(
        digest,
        [_Sample("failure", True, {1: b"\x01\x02", 2: b"\x03"})],
        [_Sample("success-0", False, {1: b"\x01\x02"})],
    )


def test_evidence_roundtrip_preserves_graph_digest():
    graph = _graph()
    with DiagnosisStore() as db:
        assert db.put_evidence(graph) is True
        assert db.put_evidence(graph) is False  # content-keyed: no new rows
        served = db.evidence_for(graph.report_key)
        assert served is not None
        assert served.digest() == graph.digest()
        assert {n.digest for n in served.nodes} == {
            n.digest for n in graph.nodes
        }
        assert db.evidence_for("no-such-key") is None
        counts = db.counts()
        assert counts["evidence_nodes"] == len(graph.nodes)
        assert counts["evidence_edges"] == len(graph.edges)


def test_evidence_survives_reopen(tmp_path):
    path = str(tmp_path / "evidence.db")
    graph = _graph()
    with DiagnosisStore(path) as db:
        db.put_evidence(graph)
    with DiagnosisStore(path) as db:
        served = db.evidence_for(graph.report_key)
        assert served is not None
        assert served.digest() == graph.digest()


def test_evidence_stats_absorb_vocabulary():
    graph = _graph()
    with DiagnosisStore() as db:
        db.evidence_for(graph.report_key)  # miss
        db.put_evidence(graph)
        db.evidence_for(graph.report_key)  # hit
        registry = MetricsRegistry()
        db.absorb_into(registry)
        assert registry.counter("evidence_store_hits") == 1
        assert registry.counter("evidence_store_misses") == 1
        assert registry.counter("evidence_store_writes") == 1
