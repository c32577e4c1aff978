"""Trace store and serving: many ``.twpp`` files behind one budget.

The store-centric layer of the public API.  A :class:`TraceStore` is a
directory of compacted traces with an in-memory index of their headers
(rebuilt by :meth:`TraceStore.scan`, which re-reads only new or changed
files; nothing is written into the directory) and warm per-file query
engines that decode into their session's one byte-budgeted cache,
which coalesces concurrent misses on one key into one decode.  Its verbs consume the six request dataclasses of
:mod:`repro.store.requests` (:class:`QueryRequest`,
:class:`AnalyzeRequest`, :class:`StatsRequest`,
:class:`CorpusStatsRequest`, :class:`CorpusHotRequest`,
:class:`CorpusDiffRequest`) and return JSON-ready dicts.  The stdlib
HTTP daemon (:mod:`repro.store.server`, ``repro-wpp serve``) is a thin
adapter over exactly those verbs, so in-process and HTTP callers get
identical responses; of the CLI, only ``corpus stats|hot|diff`` parse
through the same classes (``query`` and ``analyze`` read files).

>>> import repro
>>> with repro.Session().store("traces/") as store:
...     store.query(repro.QueryRequest(trace="run", functions=("main",)))
"""

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
from .store import CorruptTrace, ScanResult, TraceNotFound, TraceStore

__all__ = [
    "AnalyzeRequest",
    "CorruptTrace",
    "CorpusDiffRequest",
    "CorpusHotRequest",
    "CorpusStatsRequest",
    "QueryRequest",
    "RequestError",
    "ScanResult",
    "StatsRequest",
    "TraceNotFound",
    "TraceServer",
    "TraceStore",
    "canonical_json",
]
