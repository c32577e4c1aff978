"""repro -- Timestamped Whole Program Path representation and applications.

A from-scratch reproduction of Zhang & Gupta, "Timestamped Whole Program
Path Representation and its Applications" (PLDI 2001).

The package-level surface is the :mod:`repro.api` facade -- a
:class:`Session` plus its verbs -- and the store-centric serving layer
of :mod:`repro.store`:

>>> import repro
>>> wpp = repro.trace(program)          # run + collect the WPP
>>> result = repro.compact(wpp)         # redundancy, DBBs, TWPP, LZW
>>> result.save("run.twpp")
>>> repro.query("run.twpp", "main")     # indexed per-function read
>>> repro.stats(wpp).overall_factor     # Tables 1-3 accounting
>>> store = repro.Session().store("traces/")   # many files, one budget
>>> store.query(repro.QueryRequest(trace="run", functions=("main",)))

The old ``repro.run_program`` / ``repro.collect_wpp`` aliases
(deprecated since 1.1) are gone; import them from :mod:`repro.interp` /
:mod:`repro.trace`, or use :func:`repro.trace` / :meth:`Session.trace`.

Subpackages
-----------
``repro.ir``
    Static program representation (the compiler-IR substrate).
``repro.interp``
    Interpreter with WPP trace hooks (the tracing substrate).
``repro.trace``
    WPP event model, ``.wpp`` files, path-trace partitioning, DCG.
``repro.compact``
    The paper's core contribution: redundant-trace elimination, dynamic
    basic block dictionaries, the timestamped WPP (TWPP), arithmetic
    series compaction, LZW, the indexed ``.twpp`` file format, the
    streaming ingest (no raw WPP held), and the cached mmap-backed
    query-serving engine (``repro.compact.qserve``).
``repro.store``
    The serving layer: a directory of traces behind an in-memory index
    of their headers, warm engines sharing their session's one
    byte-budgeted, load-coalescing cache, typed request dataclasses,
    and the ``repro-wpp serve`` HTTP daemon.
``repro.obs``
    Observability: the metrics registry (stage timers, counters, byte
    histograms) threaded through the pipeline.
``repro.sequitur``
    The Larus (PLDI 1999) Sequitur-compressed WPP baseline.
``repro.analysis``
    Profile-limited data-flow analysis: timestamp-annotated dynamic
    CFGs, demand-driven GEN-KILL queries, load-redundancy detection,
    dynamic slicing, dynamic currency determination.
``repro.workloads``
    The paper's worked example programs and a seeded SPECint-shaped
    synthetic workload generator.
``repro.bench``
    Experiment drivers regenerating every table and figure.
"""

__version__ = "1.3.0"

from .api import (
    CompactResult,
    Session,
    StreamResult,
    analyze,
    compact,
    query,
    stats,
    stream_compact,
    trace,
)
from .obs import MetricsRegistry
from .store import (
    AnalyzeRequest,
    QueryRequest,
    StatsRequest,
    TraceServer,
    TraceStore,
)

__all__ = [
    "AnalyzeRequest",
    "CompactResult",
    "MetricsRegistry",
    "QueryRequest",
    "Session",
    "StatsRequest",
    "StreamResult",
    "TraceServer",
    "TraceStore",
    "__version__",
    "analyze",
    "compact",
    "query",
    "stats",
    "stream_compact",
    "trace",
]
