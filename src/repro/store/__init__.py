"""Trace store and serving: many ``.twpp`` files behind one budget.

The store-centric layer of the public API.  A :class:`TraceStore` is a
directory of compacted traces with a SQLite catalog
(:mod:`repro.store.catalog`), warm per-file query engines under a
global cache byte budget with cross-file LRU eviction, and per-key
request coalescing.  Its verbs consume the typed request dataclasses of
:mod:`repro.store.requests` and return JSON-ready dicts; the stdlib
HTTP daemon (:mod:`repro.store.server`, ``repro-wpp serve``) is a thin
adapter over exactly those verbs, so in-process, CLI, and HTTP callers
share one request model and produce identical responses.

>>> import repro
>>> with repro.Session().store("traces/") as store:
...     store.query(repro.QueryRequest(trace="run", functions=("main",)))
"""

from .catalog import (
    CatalogFunction,
    CatalogTrace,
    ScanResult,
    TraceCatalog,
)
from .requests import (
    AnalyzeRequest,
    CorpusDiffRequest,
    CorpusHotRequest,
    CorpusStatsRequest,
    QueryRequest,
    RequestError,
    StatsRequest,
)
from .server import TraceServer, canonical_json
from .store import TraceNotFound, TraceStore

__all__ = [
    "AnalyzeRequest",
    "CatalogFunction",
    "CatalogTrace",
    "CorpusDiffRequest",
    "CorpusHotRequest",
    "CorpusStatsRequest",
    "QueryRequest",
    "RequestError",
    "ScanResult",
    "StatsRequest",
    "TraceCatalog",
    "TraceNotFound",
    "TraceServer",
    "TraceStore",
    "canonical_json",
]
