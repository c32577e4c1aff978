"""A directory of ``.twpp`` traces served warm under one byte budget.

:class:`TraceStore` is the store-centric core the public API now
fronts: a directory of compacted traces, an in-memory index of their
headers, and one warm :class:`~repro.compact.qserve.QueryEngine` per
queried file, held through the owning :class:`~repro.api.Session`.
Every engine decodes into the session's one
:class:`~repro.compact.qserve.LruByteCache`, which holds the budget
entry by entry and coalesces concurrent misses on one (engine, kind,
function) key into a single decode, so a thundering herd on a cold hot
key costs one section parse, not N.  An engine closes only when its
file goes stale, leaves the index or fails to decode
(:meth:`Session.evict`), or with the store.

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
cannot close its mapping under the decode.  A section that fails to
decode raises :class:`CorruptTrace` (HTTP 500), naming the trace and
the function, and evicts the file's engine; other traces keep serving.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from ..compact.format import FunctionIndexEntry, read_header
from ..compact.qserve import CorruptSection, QueryEngine, limit_traces_json
from ..ir import IRError, ParseError
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
    "CorruptTrace",
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


def _read_index(
    trace: str, path: str, st: os.stat_result, has_program: bool
) -> IndexedTrace:
    with open(path, "rb") as fh:
        header = read_header(fh)
    return IndexedTrace(
        trace=trace,
        path=path,
        mtime_ns=st.st_mtime_ns,
        size=st.st_size,
        has_program=has_program,
        entries=tuple(header.entries),
    )


def scan_index(
    root: PathLike,
    previous: Dict[str, IndexedTrace],
    metrics: MetricsRegistry,
) -> Tuple[Dict[str, IndexedTrace], ScanResult]:
    """Reconcile ``previous`` against ``root``'s ``*.twpp`` files.

    Returns a new index, ordered by trace stem, and what changed.  Every
    file is stat-ed, and so is its ``<stem>.ir`` (``has_program``); a
    header is re-read only when the file is new or its
    ``(mtime_ns, size)`` changed.  A file that vanished, or is empty
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
            has_program = file.with_suffix(".ir").exists()
            known = previous.get(trace)
            if known is not None and (known.mtime_ns, known.size) == (
                st.st_mtime_ns, st.st_size
            ):
                if known.has_program != has_program:
                    known = dataclasses.replace(known, has_program=has_program)
                index[trace] = known
                unchanged += 1
                continue
            try:
                index[trace] = _read_index(trace, path, st, has_program)
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


class CorruptTrace(ValueError):
    """An indexed trace whose function section fails to decode (HTTP 500)."""


class TraceStore:
    """Warm, budgeted, coalescing access to a directory of traces.

    Build one through :meth:`repro.api.Session.store`.  Decoded data
    lives in the session's one cache (``Session(cache_bytes=...)`` is
    the budget for everything the session holds); the store keeps one
    engine per queried file and closes it only when the file goes
    stale, leaves the index or fails to decode.  The directory is
    scanned once at construction; call :meth:`scan` (or pass
    ``refresh=True`` to :meth:`traces`) after adding or removing files.
    A request for an unknown trace scans once before failing.
    """

    def __init__(
        self,
        root: PathLike,
        session=None,
        corpus: Optional[PathLike] = None,
    ) -> None:
        from ..api import Session

        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise FileNotFoundError(f"store root {str(root)!r} is not a directory")
        self._session = session if session is not None else Session()
        self._owns_session = session is None
        # The trace index: replaced whole by each scan (under
        # _scan_lock), never mutated, so readers need no lock.
        self._index: Dict[str, IndexedTrace] = {}
        self._scan_lock = threading.Lock()
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
        """Evict the engine of every indexed file; close the corpus."""
        with self._lock:
            corpus, self._corpus = self._corpus, None
        for entry in self._index.values():
            self._session.evict(entry.path)
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
        """Reconcile the index with the directory; evict the engines of
        files that changed or went away."""
        with self._scan_lock:
            previous = self._index
            index, result = scan_index(self.root, previous, self.metrics)
            self._index = index
        if result.changed:
            for trace, old in previous.items():
                new = index.get(trace)
                if new is None or (new.mtime_ns, new.size) != (
                    old.mtime_ns, old.size
                ):
                    self._session.evict(old.path)
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
            for name in names:
                # Tuple lists come back fresh (tuples JSON-encode like
                # lists) and fragments are immutable bytes, so nothing
                # cached is ever re-materialised.
                traces = self._fetch(entry, name, wire)
                if limit is not None:
                    traces = (
                        limit_traces_json(traces, limit)
                        if wire
                        else traces[:limit]
                    )
                results[name] = traces
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
            try:
                with self._corrupt_evicts(entry):
                    reports = self._session.analyze(
                        entry.path, program, request.fact, functions=names
                    )
            except (IRError, ParseError) as exc:
                # Unparsable IR, or IR that lacks a traced function: the
                # request named the wrong program.
                shown = request.program or Path(program).name
                raise RequestError(f"program {shown!r}: {exc}") from None
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
        doc["warm"] = entry.path in self._session._engines
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
        """The session cache's budget, occupancy and traffic, and the
        number of engines the session holds open."""
        stats = self._session.cache.stats()
        return {
            "budget_bytes": stats["capacity_bytes"],
            "bytes": stats["bytes"],
            "engines": len(self._session._engines),
            "hits": stats["hits"],
            "misses": stats["misses"],
            "hit_rate": stats["hit_rate"],
            "evictions": stats["evictions"],
        }

    def _fetch(
        self, entry: IndexedTrace, name: str, wire: bool
    ) -> Union[List[Tuple[int, ...]], bytes]:
        """One function's traces: a tuple list, or the JSON fragment
        when ``wire``.

        Warm keys are answered straight from the cache (no file access
        at all); cold keys stat-check the file first
        (:meth:`_check_fresh`) and decode on a borrowed engine, so a
        concurrent eviction cannot close the mapping under the decode.
        The cache coalesces concurrent cold requests for one key."""
        engine = self._session._engines.get(entry.path)
        if engine is not None:
            cached = (
                engine.cached_traces_json(name)
                if wire
                else engine.cached_traces(name)
            )
            if cached is not None:
                return cached
        entry = self._check_fresh(entry)
        with self._corrupt_evicts(entry), self._session.borrow(
            entry.path
        ) as engine:
            return engine.traces_json(name) if wire else engine.traces(name)

    @contextmanager
    def _corrupt_evicts(self, entry: IndexedTrace) -> Iterator[None]:
        """Turn a section decode failure into :class:`CorruptTrace`,
        evicting the file's engine (``store.corrupt`` counts them)."""
        try:
            yield
        except CorruptSection as exc:
            self._session.evict(entry.path)
            self.metrics.inc("store.corrupt")
            raise CorruptTrace(
                f"trace {entry.trace!r} is corrupt: function "
                f"{exc.function!r} failed to decode: {exc}"
            ) from exc

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
        return self._session.engine(self._entry(trace).path)


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


