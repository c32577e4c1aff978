"""A directory of ``.twpp`` traces served warm under one byte budget.

:class:`TraceStore` is the store-centric core the public API now
fronts: a directory of compacted traces, an in-memory index of their
headers, and one warm :class:`~repro.compact.qserve.QueryEngine` per
*recently used* file -- held through the owning
:class:`~repro.api.Session` under a **global** cache byte budget with
LRU eviction across files (:meth:`Session.evict` releases one file's
engine; the store decides which).  Concurrent requests for the same
(file, function) are coalesced into a single decode via per-key
in-flight records, so a thundering herd on a cold hot key costs one
section parse, not N.

The index is one dict, trace stem -> :class:`IndexedTrace`: the file's
path, its ``(mtime_ns, size)`` signature and its header's function
index, exactly as :func:`~repro.compact.format.read_header` returns it.
:func:`scan_index` reconciles it against the directory (re-reading
only new or changed headers); :meth:`TraceStore.scan` publishes each
reconciled dict with one assignment, so a warm lookup is one lock-free
``dict.get``.  Nothing is written into the served directory.

The six verbs (:meth:`query`, :meth:`analyze`, :meth:`stats`,
:meth:`corpus_stats`, :meth:`corpus_hot`, :meth:`corpus_diff`) each
take their request dataclass of :mod:`repro.store.requests` and return
a JSON-ready dict.  The HTTP daemon (:mod:`repro.store.server`) and
the CLI's ``corpus stats|hot|diff`` parse into the same classes, and
``--json`` prints :func:`corpus_doc`'s document, as the daemon serves
it; the CLI's ``query`` and ``analyze`` read files, not a store, and
do not use them.  :meth:`query_json` is :meth:`query`'s
wire twin for the daemon: it splices each function's cached
canonical-JSON trace fragment into bytes equal to
``canonical_json(query(request))``, so a warm ``GET /query`` encodes
nothing.  A cold decode runs on an engine borrowed from the session
(:meth:`~repro.api.Session.borrow`), so evicting that file meanwhile
cannot close its mapping under the decode.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..compact.format import FunctionIndexEntry, read_header
from ..compact.qserve import QueryEngine, limit_traces_json
from ..obs import MetricsRegistry
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

__all__ = [
    "IndexedTrace",
    "ScanResult",
    "TraceNotFound",
    "TraceStore",
    "corpus_doc",
    "scan_index",
]


@dataclass(frozen=True)
class IndexedTrace:
    """One indexed ``.twpp`` file: its stat signature and header index.

    ``entries`` are the header's rows in storage (hottest-first) order.
    ``names``, ``name_set`` and ``json`` (each function name, and the
    trace stem, as a canonical JSON string) are derived from them once,
    when the header is read.
    """

    trace: str
    path: str
    mtime_ns: int
    size: int
    has_program: bool
    entries: Tuple[FunctionIndexEntry, ...]
    names: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    name_set: FrozenSet[str] = field(init=False, repr=False, compare=False)
    json: Dict[str, bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(e.name for e in self.entries)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "name_set", frozenset(names))
        object.__setattr__(self, "json", {  # what json.dumps(text) gives
            text: encode_basestring_ascii(text).encode("ascii")
            for text in (self.trace, *names)
        })

    @property
    def calls(self) -> int:
        return sum(e.call_count for e in self.entries)

    def to_dict(self) -> Dict:
        """The ``/traces`` row (and the head of ``/stats?trace=``)."""
        return {
            "trace": self.trace,
            "size": self.size,
            "functions": len(self.entries),
            "calls": self.calls,
            "has_program": self.has_program,
        }

    def function_index(self) -> List[Dict]:
        """``/stats?trace=``'s ``function_index``: the header rows."""
        return [
            {
                "name": e.name,
                "calls": e.call_count,
                "section_offset": e.offset,
                "section_bytes": e.length,
            }
            for e in self.entries
        ]


@dataclass(frozen=True)
class ScanResult:
    """What one :func:`scan_index` reconciliation did."""

    added: int
    updated: int
    removed: int
    unchanged: int
    errors: Tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.added or self.updated or self.removed)


def _read_index(trace: str, path: str, st: os.stat_result) -> IndexedTrace:
    with open(path, "rb") as fh:
        header = read_header(fh)
    return IndexedTrace(
        trace=trace,
        path=path,
        mtime_ns=st.st_mtime_ns,
        size=st.st_size,
        has_program=os.path.exists(os.path.splitext(path)[0] + ".ir"),
        entries=tuple(header.entries),
    )


def scan_index(
    root: PathLike,
    previous: Dict[str, IndexedTrace],
    metrics: MetricsRegistry,
) -> Tuple[Dict[str, IndexedTrace], ScanResult]:
    """Reconcile ``previous`` against ``root``'s ``*.twpp`` files.

    Returns a new index, ordered by trace stem, and what changed.  Every
    file is stat-ed; a header is re-read only when the file is new or
    its ``(mtime_ns, size)`` changed.  A file that vanished, or is empty
    (an interrupted writer), counts as a removal; one whose header fails
    to parse is left out and reported in ``errors``, never fatal.
    ``previous`` is not modified.
    """
    index: Dict[str, IndexedTrace] = {}
    present = set()  # stems with a non-empty file, parsable or not
    added = updated = unchanged = 0
    errors: List[str] = []
    with metrics.timer("store.scan"):
        for file in sorted(Path(root).glob("*.twpp"), key=lambda p: p.stem):
            trace, path = file.stem, str(file)
            try:
                st = os.stat(path)
            except OSError:
                continue
            if st.st_size == 0:
                continue
            present.add(trace)
            known = previous.get(trace)
            if known is not None and (known.mtime_ns, known.size) == (
                st.st_mtime_ns, st.st_size
            ):
                index[trace] = known
                unchanged += 1
                continue
            try:
                index[trace] = _read_index(trace, path, st)
            except Exception as exc:  # surfaced per file in errors
                errors.append(f"{path}: {str(exc) or type(exc).__name__}")
                continue
            if known is None:
                added += 1
            else:
                updated += 1
    removed = sum(1 for trace in previous if trace not in present)
    result = ScanResult(added, updated, removed, unchanged, tuple(errors))
    for name in ("added", "updated", "removed", "unchanged"):
        amount = getattr(result, name)
        if amount:
            metrics.inc(f"store.scan.{name}", amount)
    return index, result


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
    directory is scanned once at construction; call :meth:`scan` (or
    pass ``refresh=True`` to :meth:`traces`) after adding or removing
    files.  A request for an unknown trace scans once before failing.
    """

    def __init__(
        self,
        root: PathLike,
        session=None,
        cache_bytes: Optional[int] = None,
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
        # The trace index: replaced whole by each scan (under
        # _scan_lock), never mutated, so readers need no lock.
        self._index: Dict[str, IndexedTrace] = {}
        self._scan_lock = threading.Lock()
        self._inflight: Dict[Tuple[str, str, bool], _Inflight] = {}
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
        """Evict every engine this store warmed."""
        with self._lock:
            paths = list(self._lru_paths.values())
            self._lru_paths = {}
            self._stamps = {}
            corpus, self._corpus = self._corpus, None
        for path in paths:
            self._session.evict(path)
        if corpus is not None:
            corpus.close()
        if self._owns_session:
            self._session.close()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- index --------------------------------------------------------

    def scan(self) -> ScanResult:
        """Reconcile the index with the directory; evict stale engines."""
        with self._scan_lock:
            index, result = scan_index(self.root, self._index, self.metrics)
            self._index = index
        if result.changed:
            live = {t.path for t in index.values()}
            with self._lock:
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
        """The index listing (``GET /traces``), ordered by trace."""
        if refresh:
            self.scan()
        return {"traces": [t.to_dict() for t in self._index.values()]}

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, trace: str) -> bool:
        return trace in self._index

    # ---- verbs --------------------------------------------------------

    def query(self, request: QueryRequest) -> Dict:
        """Path traces for one trace, JSON-ready."""
        if not isinstance(request, QueryRequest):
            raise RequestError("query() takes a QueryRequest")
        entry, results = self._query(request, wire=False)
        return {"trace": entry.trace, "functions": results}

    def query_json(self, request: QueryRequest) -> bytes:
        """:meth:`query` as its wire bytes (``GET /query``).

        Equal to ``canonical_json(self.query(request))`` byte for byte,
        but spliced from each function's cached canonical-JSON
        fragment (:meth:`~repro.compact.qserve.QueryEngine.traces_json`)
        in sorted-name order, so a warm request encodes nothing.
        """
        if not isinstance(request, QueryRequest):
            raise RequestError("query_json() takes a QueryRequest")
        entry, results = self._query(request, wire=True)
        functions = b",".join(
            entry.json[name] + b":" + results[name] for name in sorted(results)
        )
        return (
            b'{"functions":{' + functions + b'},"trace":'
            + entry.json[entry.trace] + b"}"
        )

    def _query(
        self, request: QueryRequest, wire: bool
    ) -> Tuple[IndexedTrace, Dict]:
        """Both query forms: ``{name: traces}``, as tuple lists or as
        JSON fragments (``wire``), with ``limit`` applied."""
        t0 = time.perf_counter()
        try:
            entry = self._entry(request.trace)
            names = self._resolve_functions(entry, request.functions)
            limit = request.limit
            results: Dict = {}
            decoded = False
            for name in names:
                # Tuple lists come back fresh (tuples JSON-encode like
                # lists) and fragments are immutable bytes, so nothing
                # cached is ever re-materialised.
                traces, cold = self._fetch(entry, name, wire)
                decoded = decoded or cold
                if limit is not None:
                    traces = (
                        limit_traces_json(traces, limit)
                        if wire
                        else traces[:limit]
                    )
                results[name] = traces
            self._touch(entry, enforce=decoded)
        finally:
            metrics = self._session.metrics
            metrics.inc("store.requests.query")
            metrics.add_ms("store.query", (time.perf_counter() - t0) * 1000.0)
        return entry, results

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
        """Serving stats (``GET /stats``): index + cache occupancy."""
        request = StatsRequest() if request is None else request
        if not isinstance(request, StatsRequest):
            raise RequestError("stats() takes a StatsRequest")
        self.metrics.inc("store.requests.stats")
        if request.trace is None:
            rows = self._index.values()
            return {
                "traces": len(rows),
                "functions": sum(len(t.entries) for t in rows),
                "calls": sum(t.calls for t in rows),
                "bytes": sum(t.size for t in rows),
                "cache": self.cache_stats(),
            }
        entry = self._entry(request.trace)
        doc = entry.to_dict()
        doc["function_index"] = entry.function_index()
        doc["warm"] = self._is_warm(entry.path)
        return doc

    def healthz(self) -> Dict:
        """Liveness document (``GET /healthz``): index counts only.

        Deliberately cheap -- load balancers and the bench harness poll
        it while waiting for readiness, so it must not touch any trace
        file or decode anything.
        """
        rows = self._index.values()
        doc = {
            "status": "ok",
            "traces": len(rows),
            "functions": sum(len(t.entries) for t in rows),
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
        return self._corpus_verb("corpus_stats", CorpusStatsRequest, request)

    def corpus_hot(self, request: Optional[CorpusHotRequest] = None) -> Dict:
        """Cross-run hot paths (``GET /corpus/hot``), JSON-ready."""
        request = CorpusHotRequest() if request is None else request
        return self._corpus_verb("corpus_hot", CorpusHotRequest, request)

    def corpus_diff(self, request: CorpusDiffRequest) -> Dict:
        """Run-pair comparison (``GET /corpus/diff``), JSON-ready."""
        return self._corpus_verb("corpus_diff", CorpusDiffRequest, request)

    def _corpus_verb(self, verb: str, cls: type, request) -> Dict:
        if not isinstance(request, cls):
            raise RequestError(f"{verb}() takes a {cls.__name__}")
        self.metrics.inc(f"store.requests.{verb}")
        with self.metrics.timer(f"store.{verb}"):
            return corpus_doc(self.corpus(), request)

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

    def _touch(self, entry: IndexedTrace, enforce: bool = True) -> None:
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

    def _fetch(
        self, entry: IndexedTrace, name: str, wire: bool
    ) -> Tuple[Union[List[Tuple[int, ...]], bytes], bool]:
        """One function's traces (a tuple list, or the JSON fragment
        when ``wire``) plus a was-it-cold flag.

        Warm keys are answered straight from the engine's cache (no
        file access at all); cold keys stat-check the file first
        (:meth:`_check_fresh`) and then go through the coalescing
        protocol so concurrent identical requests cost a single
        decode.  The decode runs on a borrowed engine, so a concurrent
        eviction cannot close the mapping under it."""
        engine = self._session._engines.get(entry.path)
        if engine is not None:
            cached = (
                engine.cached_traces_json(name)
                if wire
                else engine.cached_traces(name)
            )
            if cached is not None:
                return cached, False
        entry = self._check_fresh(entry)
        key = (entry.path, name, wire)
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
            with self._session.borrow(entry.path) as engine:
                pending.result = (
                    engine.traces_json(name) if wire else engine.traces(name)
                )
        except BaseException as exc:
            pending.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            pending.done.set()
        return pending.result, True

    # ---- helpers ------------------------------------------------------

    def _check_fresh(self, entry: IndexedTrace) -> IndexedTrace:
        """Stat-verify an index record before any cold file access.

        A ``.twpp`` deleted or truncated between scans must be noticed
        *before* an engine maps it: reading an mmap of a truncated file
        faults the process (there is no exception to catch), and a
        stale mtime means the engine would decode a different file than
        the index describes.  A stale record evicts the warm engine,
        rescans the directory, and either returns the refreshed record
        or raises :class:`TraceNotFound` when the trace is gone for good.
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
            self._lru_paths.pop(entry.trace, None)
            self._stamps.pop(entry.trace, None)
        refreshed = self._index.get(entry.trace)
        if refreshed is None:
            raise TraceNotFound(f"trace {entry.trace!r} no longer in store")
        return refreshed

    def _entry(self, trace: str) -> IndexedTrace:
        entry = self._index.get(trace)
        if entry is None and self.scan().changed:
            # The file may have appeared since the last scan: one
            # stat-cheap reconciliation before giving up.
            entry = self._index.get(trace)
        if entry is None:
            raise TraceNotFound(f"trace {trace!r} not in store")
        return entry

    @staticmethod
    def _resolve_functions(
        entry: IndexedTrace, names: Tuple[str, ...]
    ) -> Tuple[str, ...]:
        if not names:
            return entry.names
        for name in names:
            if name not in entry.name_set:
                raise TraceNotFound(
                    f"function {name!r} not in trace {entry.trace!r}"
                )
        return names

    def _program_path(
        self, entry: IndexedTrace, program: Optional[str]
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
        """The warm engine for one indexed trace (mostly for tests)."""
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


def corpus_doc(corpus, request) -> Dict:
    """One corpus verb's JSON document, computed from an open corpus.

    The one implementation behind ``GET /corpus/stats|hot|diff`` (through
    :meth:`TraceStore.corpus_stats` and its siblings) and ``repro-wpp
    corpus stats|hot|diff --json``.  An unknown run raises
    :class:`TraceNotFound`.
    """
    from ..corpus import diff_doc, hot_doc

    if isinstance(request, CorpusStatsRequest):
        return corpus.stats()
    if isinstance(request, CorpusHotRequest):
        _check_runs(corpus, request.runs)
        profile = corpus.hot_paths(
            runs=list(request.runs) or None,
            functions=list(request.functions) or None,
        )
        return hot_doc(profile, top=request.top, coverage=request.coverage)
    _check_runs(corpus, (request.run_a, request.run_b))
    delta = corpus.diff(request.run_a, request.run_b)
    return diff_doc(delta, limit=request.limit)


def _check_runs(corpus, names) -> None:
    for name in names:
        try:
            corpus.run(name)
        except KeyError as exc:
            raise TraceNotFound(*exc.args) from None


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


