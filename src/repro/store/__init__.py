"""``repro.store`` — the persistent diagnosis store.

Everything the fleet learns — diagnosis reports, solved Andersen
fixpoints, decoded PT traces — used to live in process memory and die
with the process.  This package gives those three tiers a disk-backed
home (one SQLite file in WAL mode) plus write-through cache adapters,
so a restarted server resumes with a hot cache and a signature
diagnosed anywhere in the fleet is a store hit everywhere else.

Layers::

    store     DiagnosisStore: the SQLite schema (reports / analyses /
              traces / evidence graphs), created at SCHEMA_VERSION;
              a file at any other version is refused
    codec     rebindable serialization: points-to fixpoints are stored
              as node indices over the deterministic constraint
              enumeration and re-bound to the live module on load
    adapters  PersistentAnalysisCache / PersistentTraceCache: the
              in-memory LRUs of repro.core.cache, hydrating from the
              store on miss and writing through on fill
"""

from repro.store.adapters import (
    PersistentAnalysisCache,
    PersistentTraceCache,
    persistent_caches,
)
from repro.store.codec import (
    decode_analysis,
    decode_trace,
    encode_analysis,
    encode_trace,
    scope_key,
)
from repro.store.store import SCHEMA_VERSION, DiagnosisStore, StoredReport

__all__ = [
    "SCHEMA_VERSION",
    "DiagnosisStore",
    "StoredReport",
    "PersistentAnalysisCache",
    "PersistentTraceCache",
    "persistent_caches",
    "encode_analysis",
    "decode_analysis",
    "encode_trace",
    "decode_trace",
    "scope_key",
]
