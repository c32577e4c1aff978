"""A directory of ``.twpp`` traces served warm under one byte budget.

:class:`TraceStore` is the store-centric core the public API now
fronts: a directory of compacted traces, the SQLite
:class:`~repro.store.catalog.TraceCatalog` describing them, and one
warm :class:`~repro.compact.qserve.QueryEngine` per *recently used*
file -- held through the owning :class:`~repro.api.Session` under a
**global** cache byte budget with LRU eviction across files
(:meth:`Session.evict` releases one file's engine; the store decides
which).  Concurrent requests for the same (file, function) are
coalesced into a single decode via per-key in-flight records, so a
thundering herd on a cold hot key costs one section parse, not N.

The three verbs -- :meth:`query`, :meth:`analyze`, :meth:`stats` --
consume the typed request dataclasses of :mod:`repro.store.requests`
and return JSON-ready dicts, so the in-process API, the CLI, and the
HTTP daemon (:mod:`repro.store.server`) share one request model and
produce identical responses.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..compact.qserve import QueryEngine
from .catalog import CatalogTrace, ScanResult, TraceCatalog
from .requests import (
    AnalyzeRequest,
    CorpusDiffRequest,
    CorpusHotRequest,
    CorpusStatsRequest,
    QueryRequest,
    RequestError,
    StatsRequest,
)

PathLike = Union[str, "os.PathLike[str]"]

#: Default catalog filename inside the store directory.
CATALOG_NAME = "catalog.sqlite"

__all__ = ["CATALOG_NAME", "TraceNotFound", "TraceStore"]


class TraceNotFound(KeyError):
    """An unknown trace or function (HTTP 404 / CLI exit 2)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0] if self.args else ""


class TraceStore:
    """Warm, budgeted, coalescing access to a directory of traces.

    Build one through :meth:`repro.api.Session.store`.  ``cache_bytes``
    is the *global* decoded-bytes budget across every file (defaulting
    to the session's per-engine budget); when the sum of the warm
    engines' cached bytes exceeds it, least-recently-*queried* files
    lose their engine entirely (`store.evictions` counts them).  The
    catalog is scanned once at construction; call :meth:`scan` (or pass
    ``refresh=True`` to :meth:`traces`) after adding or removing files.
    """

    def __init__(
        self,
        root: PathLike,
        session=None,
        cache_bytes: Optional[int] = None,
        catalog_path: Optional[PathLike] = None,
        corpus: Optional[PathLike] = None,
    ) -> None:
        from ..api import Session

        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise FileNotFoundError(f"store root {str(root)!r} is not a directory")
        self._session = session if session is not None else Session()
        self._owns_session = session is None
        self.cache_bytes = (
            self._session.cache_bytes if cache_bytes is None else int(cache_bytes)
        )
        self.catalog = TraceCatalog(
            self.root / CATALOG_NAME if catalog_path is None else catalog_path
        )
        # Recency tracking for the global budget.  Warm hits must stay
        # lock-free, so instead of an OrderedDict (whose move_to_end
        # needs the lock) each touch writes a monotonically increasing
        # stamp: two GIL-atomic dict stores.  The eviction pass (cold
        # path, under the lock) sorts by stamp; it always iterates
        # list()-snapshots so concurrent stamp writes cannot invalidate
        # its iterators.
        self._lru_paths: Dict[str, str] = {}  # trace -> path
        self._stamps: Dict[str, int] = {}  # trace -> touch stamp
        self._clock = itertools.count()
        # Hot-path memo of catalog rows: the SQLite catalog is the
        # durable index for discovery and rescan; per-request lookups
        # are served from memory and dropped whenever a scan changes
        # anything.
        self._entries: Dict[str, CatalogTrace] = {}
        self._functions: Dict[str, List[str]] = {}
        self._function_sets: Dict[str, frozenset] = {}
        self._inflight: Dict[Tuple[str, str], _Inflight] = {}
        # Optional attached corpus (the /corpus/* endpoints); opened
        # lazily so a store without corpus traffic never touches it.
        self._corpus_root = None if corpus is None else Path(corpus)
        self._corpus = None
        self._lock = threading.Lock()
        self.scan()

    # ---- lifecycle ----------------------------------------------------

    @property
    def session(self):
        return self._session

    @property
    def metrics(self):
        return self._session.metrics

    def close(self) -> None:
        """Evict every engine this store warmed and close the catalog."""
        with self._lock:
            paths = list(self._lru_paths.values())
            self._lru_paths = {}
            self._stamps = {}
            corpus, self._corpus = self._corpus, None
        for path in paths:
            self._session.evict(path)
        if corpus is not None:
            corpus.close()
        self.catalog.close()
        if self._owns_session:
            self._session.close()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- catalog ------------------------------------------------------

    def scan(self) -> ScanResult:
        """Reconcile the catalog with the directory; evict stale engines."""
        with self.metrics.timer("store.scan"):
            result = self.catalog.scan(self.root)
        for name, amount in (
            ("added", result.added),
            ("updated", result.updated),
            ("removed", result.removed),
            ("unchanged", result.unchanged),
        ):
            if amount:
                self.metrics.inc(f"store.scan.{name}", amount)
        if result.changed:
            live = {t.path for t in self.catalog.traces()}
            with self._lock:
                self._entries.clear()
                self._functions.clear()
                self._function_sets.clear()
                stale = [
                    (trace, path)
                    for trace, path in list(self._lru_paths.items())
                    if path not in live
                ]
                for trace, _path in stale:
                    del self._lru_paths[trace]
                    self._stamps.pop(trace, None)
            for _trace, path in stale:
                self._session.evict(path)
        return result

    def traces(self, refresh: bool = False) -> Dict:
        """The catalog listing (``GET /traces``)."""
        if refresh:
            self.scan()
        return {
            "traces": [t.to_dict() for t in self.catalog.traces()],
        }

    def __len__(self) -> int:
        return len(self.catalog)

    def __contains__(self, trace: str) -> bool:
        return trace in self.catalog

    # ---- verbs --------------------------------------------------------

    def query(self, request: QueryRequest) -> Dict:
        """Path traces for one trace (``GET /query``), JSON-ready."""
        if not isinstance(request, QueryRequest):
            raise RequestError("query() takes a QueryRequest")
        t0 = time.perf_counter()
        try:
            entry = self._entry(request.trace)
            names = self._resolve_functions(entry, request.functions)
            results: Dict[str, List] = {}
            decoded = False
            for name in names:
                # _traces hands back a fresh list of immutable tuples
                # (tuples JSON-encode identically to lists), so the
                # engine's cached traces are never re-materialised.
                traces, cold = self._traces(entry, name)
                decoded = decoded or cold
                results[name] = (
                    traces[: request.limit]
                    if request.limit is not None
                    else traces
                )
            self._touch(entry, enforce=decoded)
        finally:
            metrics = self._session.metrics
            metrics.inc("store.requests.query")
            metrics.add_ms("store.query", (time.perf_counter() - t0) * 1000.0)
        return {"trace": entry.trace, "functions": results}

    def analyze(self, request: AnalyzeRequest) -> Dict:
        """Fact frequencies for one trace (``POST /analyze``), JSON-ready."""
        if not isinstance(request, AnalyzeRequest):
            raise RequestError("analyze() takes an AnalyzeRequest")
        from ..analysis.facts import parse_fact

        self.metrics.inc("store.requests.analyze")
        with self.metrics.timer("store.analyze"):
            entry = self._check_fresh(self._entry(request.trace))
            try:
                parse_fact(request.fact)
            except ValueError as exc:
                raise RequestError(str(exc)) from None
            program = self._program_path(entry, request.program)
            names = self._resolve_functions(entry, request.functions)
            reports = self._session.analyze(
                entry.path, program, request.fact, functions=names
            )
            self._touch(entry)
        return {
            "trace": entry.trace,
            "fact": request.fact,
            "functions": {
                name: [_report_to_dict(r) for r in func_reports]
                for name, func_reports in reports.items()
            },
        }

    def stats(self, request: Optional[StatsRequest] = None) -> Dict:
        """Serving stats (``GET /stats``): catalog + cache occupancy."""
        request = StatsRequest() if request is None else request
        if not isinstance(request, StatsRequest):
            raise RequestError("stats() takes a StatsRequest")
        self.metrics.inc("store.requests.stats")
        if request.trace is None:
            rows = self.catalog.traces()
            return {
                "traces": len(rows),
                "functions": sum(t.functions for t in rows),
                "calls": sum(t.calls for t in rows),
                "bytes": sum(t.size for t in rows),
                "cache": self.cache_stats(),
            }
        entry = self._entry(request.trace)
        doc = entry.to_dict()
        doc["function_index"] = [
            f.to_dict() for f in self.catalog.functions(entry.trace)
        ]
        doc["warm"] = self._is_warm(entry.path)
        return doc

    def healthz(self) -> Dict:
        """Liveness document (``GET /healthz``): catalog counts only.

        Deliberately cheap -- load balancers and the bench harness poll
        it while waiting for readiness, so it must not touch any trace
        file or decode anything.
        """
        rows = self.catalog.traces()
        doc = {
            "status": "ok",
            "traces": len(rows),
            "functions": sum(t.functions for t in rows),
        }
        if self._corpus_root is not None:
            doc["corpus_runs"] = len(self.corpus().runs())
        return doc

    # ---- corpus verbs --------------------------------------------------

    def corpus(self):
        """The attached :class:`~repro.corpus.TraceCorpus` (lazy).

        Raises :class:`TraceNotFound` (HTTP 404) when the store was
        built without ``corpus=`` -- an unattached corpus is a missing
        resource, not a malformed request.
        """
        if self._corpus_root is None:
            raise TraceNotFound("no corpus attached to this store")
        with self._lock:
            if self._corpus is None:
                from ..corpus import TraceCorpus

                self._corpus = TraceCorpus(
                    self._corpus_root, session=self._session
                )
            return self._corpus

    def corpus_stats(self, request: Optional[CorpusStatsRequest] = None) -> Dict:
        """Corpus accounting (``GET /corpus/stats``), JSON-ready."""
        request = CorpusStatsRequest() if request is None else request
        if not isinstance(request, CorpusStatsRequest):
            raise RequestError("corpus_stats() takes a CorpusStatsRequest")
        self.metrics.inc("store.requests.corpus_stats")
        with self.metrics.timer("store.corpus_stats"):
            return self.corpus().stats()

    def corpus_hot(self, request: Optional[CorpusHotRequest] = None) -> Dict:
        """Cross-run hot paths (``GET /corpus/hot``), JSON-ready."""
        request = CorpusHotRequest() if request is None else request
        if not isinstance(request, CorpusHotRequest):
            raise RequestError("corpus_hot() takes a CorpusHotRequest")
        from ..corpus import hot_doc

        self.metrics.inc("store.requests.corpus_hot")
        with self.metrics.timer("store.corpus_hot"):
            corpus = self.corpus()
            for run in request.runs:
                self._corpus_run(corpus, run)
            profile = corpus.hot_paths(
                runs=list(request.runs) or None,
                functions=list(request.functions) or None,
            )
            return hot_doc(profile, top=request.top, coverage=request.coverage)

    def corpus_diff(self, request: CorpusDiffRequest) -> Dict:
        """Run-pair comparison (``GET /corpus/diff``), JSON-ready."""
        if not isinstance(request, CorpusDiffRequest):
            raise RequestError("corpus_diff() takes a CorpusDiffRequest")
        from ..corpus import diff_doc

        self.metrics.inc("store.requests.corpus_diff")
        with self.metrics.timer("store.corpus_diff"):
            corpus = self.corpus()
            for run in (request.run_a, request.run_b):
                self._corpus_run(corpus, run)
            delta = corpus.diff(request.run_a, request.run_b)
            return diff_doc(delta, limit=request.limit)

    @staticmethod
    def _corpus_run(corpus, name: str):
        try:
            return corpus.run(name)
        except KeyError as exc:
            raise TraceNotFound(
                exc.args[0] if exc.args else f"no run {name!r} in corpus"
            ) from None

    # ---- cache accounting ---------------------------------------------

    def metrics_snapshot(self) -> Dict:
        """The session's ``repro.metrics/1`` document (``GET /metrics``)."""
        return self.metrics.to_dict()

    def cache_stats(self) -> Dict:
        """Global budget occupancy plus the engines' aggregate traffic."""
        with self._lock:
            paths = list(self._lru_paths.values())
        per_engine = []
        for path in paths:
            engine = self._session._engines.get(path)
            if engine is not None:
                per_engine.append(engine.cache_stats())
        hits = sum(s["hits"] for s in per_engine)
        misses = sum(s["misses"] for s in per_engine)
        lookups = hits + misses
        return {
            "budget_bytes": self.cache_bytes,
            "bytes": sum(s["bytes"] for s in per_engine),
            "engines": len(per_engine),
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "file_evictions": self.metrics.counter("store.evictions"),
        }

    def _is_warm(self, path: str) -> bool:
        return path in self._session._engines

    def _touch(self, entry: CatalogTrace, enforce: bool = True) -> None:
        """Mark ``entry`` most recently used; enforce the global budget.

        ``enforce=False`` skips the budget pass -- pure cache hits
        cannot have grown any engine's footprint, so recency is all
        that needs recording: two atomic dict stores, no lock.  The
        warm fast path stays lock-free in the parent.
        """
        if not enforce:
            self._lru_paths[entry.trace] = entry.path
            self._stamps[entry.trace] = next(self._clock)
            return
        evict: List[str] = []
        with self._lock:
            self._lru_paths[entry.trace] = entry.path
            self._stamps[entry.trace] = next(self._clock)
            total = 0
            for path in list(self._lru_paths.values()):
                engine = self._session._engines.get(path)
                if engine is not None:
                    total += engine.cache_stats()["bytes"]
            # Evict least-recently-queried files until within budget,
            # always sparing the file just touched.
            victims = iter(sorted(
                (
                    (self._stamps.get(trace, -1), trace, path)
                    for trace, path in list(self._lru_paths.items())
                    if trace != entry.trace
                )
            ))
            while total > self.cache_bytes:
                try:
                    _stamp, trace, path = next(victims)
                except StopIteration:
                    break
                engine = self._session._engines.get(path)
                self._lru_paths.pop(trace, None)
                self._stamps.pop(trace, None)
                if engine is None:
                    continue
                total -= engine.cache_stats()["bytes"]
                evict.append(path)
        for path in evict:
            self._session.evict(path)
            self.metrics.inc("store.evictions")

    # ---- coalescing ---------------------------------------------------

    def _traces(
        self, entry: CatalogTrace, name: str
    ) -> Tuple[List[Tuple[int, ...]], bool]:
        """One function's traces plus a was-it-cold flag.

        Warm keys are answered straight from the engine's cache (no
        file access at all); cold keys stat-check the file first
        (:meth:`_check_fresh`) and then go through the coalescing
        protocol so concurrent identical requests cost a single
        decode."""
        engine = self._session._engines.get(entry.path)
        if engine is not None:
            cached = engine.cached_traces(name)
            if cached is not None:
                return cached, False
        entry = self._check_fresh(entry)
        engine = self._session.engine(entry.path)
        key = (entry.path, name)
        with self._lock:
            pending = self._inflight.get(key)
            owner = pending is None
            if owner:
                pending = self._inflight[key] = _Inflight()
            else:
                self.metrics.inc("store.coalesced")
        if not owner:
            return pending.wait(), True
        try:
            pending.result = engine.traces(name)
        except BaseException as exc:
            pending.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            pending.done.set()
        return pending.result, True

    # ---- helpers ------------------------------------------------------

    def _check_fresh(self, entry: CatalogTrace) -> CatalogTrace:
        """Stat-verify a catalog row before any cold file access.

        A ``.twpp`` deleted or truncated between scans must be noticed
        *before* an engine maps it: reading an mmap of a truncated file
        faults the process (there is no exception to catch), and a
        stale mtime means the engine would decode a different file than
        the catalog describes.  Stale rows evict the warm engine, drop
        the memoized lookups, rescan the catalog, and either return the
        refreshed row or raise :class:`TraceNotFound` when the trace is
        gone for good.
        """
        try:
            st = os.stat(entry.path)
            fresh = st.st_size > 0 and (
                (st.st_mtime_ns, st.st_size)
                == (entry.mtime_ns, entry.size)
            )
        except OSError:
            fresh = False
        if fresh:
            return entry
        self._session.evict(entry.path)
        self.metrics.inc("store.stale_detected")
        self.scan()
        with self._lock:
            self._entries.pop(entry.trace, None)
            self._functions.pop(entry.trace, None)
            self._function_sets.pop(entry.trace, None)
            self._lru_paths.pop(entry.trace, None)
            self._stamps.pop(entry.trace, None)
        refreshed = self.catalog.trace(entry.trace)
        if refreshed is None:
            raise TraceNotFound(f"trace {entry.trace!r} no longer in store")
        self._entries[entry.trace] = refreshed
        return refreshed

    def _entry(self, trace: str) -> CatalogTrace:
        entry = self._entries.get(trace)
        if entry is not None:
            return entry
        entry = self.catalog.trace(trace)
        if entry is None:
            # The file may have appeared since the last scan: one
            # stat-cheap reconciliation before giving up.
            if self.scan().changed:
                entry = self.catalog.trace(trace)
        if entry is None:
            raise TraceNotFound(f"trace {trace!r} not in store")
        self._entries[trace] = entry
        return entry

    def _resolve_functions(
        self, entry: CatalogTrace, names: Tuple[str, ...]
    ) -> Union[List[str], Tuple[str, ...]]:
        known = self._functions.get(entry.trace)
        if known is None:
            known = [f.name for f in self.catalog.functions(entry.trace)]
            self._functions[entry.trace] = known
            self._function_sets[entry.trace] = frozenset(known)
        if not names:
            return known
        known_set = self._function_sets.get(entry.trace)
        if known_set is None:
            known_set = frozenset(known)
            self._function_sets[entry.trace] = known_set
        for name in names:
            if name not in known_set:
                raise TraceNotFound(
                    f"function {name!r} not in trace {entry.trace!r}"
                )
        return names

    def _program_path(
        self, entry: CatalogTrace, program: Optional[str]
    ) -> str:
        if program is None:
            path = Path(entry.path).with_suffix(".ir")
            if not path.exists():
                raise RequestError(
                    f"trace {entry.trace!r} has no program IR beside it; "
                    "pass program="
                )
            return str(path)
        resolved = (self.root / program).resolve()
        if self.root not in resolved.parents and resolved != self.root:
            raise RequestError("program must resolve inside the store root")
        if not resolved.is_file():
            raise RequestError(f"program {program!r} not found in store")
        return str(resolved)

    def engine(self, trace: str) -> QueryEngine:
        """The warm engine for one catalogued trace (mostly for tests)."""
        entry = self._entry(trace)
        engine = self._session.engine(entry.path)
        self._touch(entry)
        return engine


class _Inflight:
    """One cold decode in progress: waiters block until the owner
    publishes its result or its exception."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None

    def wait(self):
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.result


def _report_to_dict(report) -> Dict:
    """One FrequencyReport as the stable JSON wire shape."""
    return {
        "total_queries": report.total_queries,
        "blocks": [
            {
                "block": e.block_id,
                "executions": e.executions,
                "holds": e.holds,
                "fails": e.fails,
                "unresolved": e.unresolved,
                "frequency": round(e.frequency, 6),
            }
            for _, e in sorted(report.entries.items())
        ],
    }


