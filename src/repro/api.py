"""The ``repro`` facade: one Session, four verbs.

The library grew one entry point per module (``repro.interp.run_program``,
``repro.trace.collect_wpp``, ``repro.compact.compact_wpp``, ...); this
module fronts them with a single coherent surface:

>>> import repro
>>> wpp = repro.trace(program)                    # run + collect the WPP
>>> result = repro.compact(wpp)                   # TWPP compaction
>>> result.save("run.twpp")
>>> repro.query("run.twpp", "main")               # indexed extraction
>>> repro.stats(wpp).overall_factor               # Table 1-3 accounting

Each top-level verb builds a throwaway :class:`Session`; construct one
yourself to share defaults (worker count, cache budget) and accumulate
metrics across calls:

>>> s = repro.Session(jobs=4, cache_bytes=64 << 20)
>>> s.compact(s.trace(program)).save("run.twpp")
>>> s.query("run.twpp", "main")                   # cold: opens an engine
>>> s.query("run.twpp", "main")                   # warm: cache hit
>>> s.query("run.twpp", names=["f", "g"])         # batch, one engine
>>> s.analyze("run.twpp", program, "def:i")       # 4 analysis processes
>>> s.metrics.to_json()                           # stage timers, cache hits

``jobs`` fans out exactly one thing: the per-call analysis process
pool of :mod:`repro.analysis.parallel`.

Inputs are polymorphic the way a CLI is: ``trace`` accepts a
:class:`~repro.ir.module.Program` or a path to textual IR; ``compact``
and ``stats`` accept a :class:`~repro.trace.wpp.WppTrace`, an
already-partitioned WPP, or a ``.wpp`` path; ``query`` accepts a
``.twpp`` path (served by a per-file
:class:`~repro.compact.qserve.QueryEngine` the session keeps warm, all
of them caching into the session's one byte-budgeted LRU), a
``.wpp`` path (linear scan baseline) or an in-memory
:class:`CompactedWpp`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .compact.format import write_twpp
from .compact.pipeline import CompactedWpp, CompactionStats, compact_wpp
from .compact.qserve import DEFAULT_CACHE_BYTES, LruByteCache, QueryEngine
from .compact.query import read_twpp
from .compact.stream import StreamResult, stream_compact as _stream_compact
from .ir.module import Program
from .obs import MetricsRegistry
from .trace.format import read_wpp, scan_function_traces, write_wpp
from .trace.partition import PartitionedWpp, PathTrace, partition_wpp
from .trace.wpp import WppTrace, collect_wpp
from .util import read_magic

PathLike = Union[str, "os.PathLike[str]"]
WppSource = Union[WppTrace, PartitionedWpp, PathLike]
TwppSource = Union[CompactedWpp, PathLike]

__all__ = [
    "CompactResult",
    "Session",
    "StreamResult",
    "analyze",
    "compact",
    "query",
    "stats",
    "stream_compact",
    "trace",
]

#: Parsed programs one session's ``analyze`` keeps, least recently used
#: first out.  The analyze benchmark interleaves requests over five IR
#: programs, so a bound below five would miss on nearly every request.
#: A held program costs about seven times its IR text: 0.13-0.89 MB
#: for the five scale-1 workload analogues, 2.0 MB for all five.
PROGRAM_CACHE_SIZE = 8


@dataclass
class CompactResult:
    """What :meth:`Session.compact` returns: artifact plus accounting.

    Unpacks like the classic ``(compacted, stats)`` tuple, so existing
    call sites keep working: ``compacted, stats = session.compact(wpp)``.
    """

    compacted: CompactedWpp
    stats: CompactionStats
    session: "Session"

    def __iter__(self) -> Iterator:
        return iter((self.compacted, self.stats))

    def save(self, path: PathLike) -> int:
        """Write the indexed ``.twpp`` file; returns bytes written."""
        return write_twpp(
            self.compacted, path, metrics=self.session.metrics
        )


class Session:
    """Shared defaults and metrics for a sequence of pipeline calls.

    ``jobs`` is the default analysis process count (1 = serial,
    0/None = one per CPU); ``metrics`` is the :class:`~repro.obs.MetricsRegistry`
    every stage reports into (a fresh one is created when not
    supplied).  ``cache_bytes`` budgets :attr:`cache`, the one
    :class:`~repro.compact.qserve.LruByteCache` that every query engine
    and every corpus of the session decodes into (0 disables caching);
    the session never holds more decoded bytes than that.  Query engines are
    created lazily, one per queried ``.twpp`` path, and reused for the
    session's lifetime so repeat queries are served warm; ``close()``
    (or using the session as a context manager) releases them.
    """

    def __init__(
        self,
        jobs: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        self.jobs = jobs
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache_bytes = cache_bytes
        self.cache = LruByteCache(cache_bytes, metrics=self.metrics)
        self._engines: Dict[str, QueryEngine] = {}
        self._engines_lock = threading.Lock()
        self._programs: "OrderedDict[Tuple[str, int, int], Program]" = (
            OrderedDict()
        )
        self._programs_lock = threading.Lock()

    # ---- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Close every query engine the session opened and empty the
        cache."""
        with self._programs_lock:
            self._programs.clear()
        self.cache.clear()
        with self._engines_lock:
            engines, self._engines = list(self._engines.values()), {}
        for engine in engines:
            engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- verbs --------------------------------------------------------

    def trace(
        self,
        program: Union[Program, PathLike],
        args: Tuple[int, ...] = (),
        inputs: Tuple[int, ...] = (),
        max_events: Optional[int] = None,
        stream: bool = False,
        output: Optional[PathLike] = None,
        verify: bool = False,
    ) -> Union[WppTrace, StreamResult]:
        """Run a program (object or textual-IR path), collect its WPP.

        With ``stream=True`` the run is partitioned *while executing*
        (:mod:`repro.compact.stream`), then compacted and written to
        ``output`` as a ``.twpp`` -- no raw WPP is ever materialized.
        Returns a :class:`StreamResult` instead of a
        :class:`~repro.trace.wpp.WppTrace` in that mode.  ``verify``
        read-checks the written file before returning.  ``output`` and
        ``verify`` belong to stream mode: passing either without
        ``stream=True`` raises :class:`TypeError`.
        """
        if stream:
            if output is None:
                raise TypeError("trace(stream=True) requires output=<path>")
            return self.stream_compact(
                program,
                output,
                args=args,
                inputs=inputs,
                max_events=max_events,
                verify=verify,
            )
        if output is not None or verify:
            raise TypeError("trace(output=, verify=) require stream=True")
        with self.metrics.timer("trace"):
            wpp = collect_wpp(
                self._load_program(program),
                args=args,
                inputs=inputs,
                max_events=max_events,
                metrics=self.metrics,
            )
        self.metrics.inc("trace.events", len(wpp))
        return wpp

    def stream_compact(
        self,
        program: Union[Program, PathLike],
        path: PathLike,
        args: Tuple[int, ...] = (),
        inputs: Tuple[int, ...] = (),
        max_events: Optional[int] = None,
        verify: bool = False,
    ) -> StreamResult:
        """Trace + compact + write a ``.twpp`` without a raw WPP.

        Byte-identical to ``session.compact(session.trace(p)).save(path)``
        but the run is partitioned as it executes, so no raw WPP is
        held.  ``verify=True``
        reads the finished file back and checks every function's
        traces against the in-memory compaction.
        """
        return _stream_compact(
            self._load_program(program),
            path,
            args=args,
            inputs=inputs,
            max_events=max_events,
            metrics=self.metrics,
            verify=verify,
        )

    def partition(self, wpp: WppSource) -> PartitionedWpp:
        """Partition a WPP into per-call path traces plus a DCG."""
        if isinstance(wpp, PartitionedWpp):
            return wpp
        return partition_wpp(self._load_wpp(wpp), metrics=self.metrics)

    def compact(self, wpp: WppSource) -> CompactResult:
        """Run the compaction pipeline."""
        compacted, stats = compact_wpp(self.partition(wpp), metrics=self.metrics)
        return CompactResult(compacted=compacted, stats=stats, session=self)

    def engine(self, twpp: PathLike) -> QueryEngine:
        """The session's cached query engine for one ``.twpp`` path.

        Created on first use, caching into the session's :attr:`cache`,
        and reused afterwards, so repeated queries against the same
        file share one mmap and stay warm.  The engine is not leased:
        callers that read sections while the file may be evicted use
        :meth:`borrow`.
        """
        key = os.fspath(twpp)
        # Lock-free fast path: dict reads are atomic.
        engine = self._engines.get(key)
        if engine is None:
            engine = self._open_engine(key, lease=False)
        return engine

    @contextmanager
    def borrow(self, twpp: PathLike) -> Iterator[QueryEngine]:
        """The session's engine for one ``.twpp`` path, leased for the
        ``with`` block.

        An :meth:`evict` meanwhile drops the engine from the session at
        once, but its source stays open until the block exits, so a
        decode in progress never reads a closed mapping.
        """
        key = os.fspath(twpp)
        # The lease is taken under the lock that evict pops under, so
        # an engine found here has not been closed yet.
        with self._engines_lock:
            engine = self._engines.get(key)
            if engine is not None:
                engine.acquire()
        if engine is None:
            engine = self._open_engine(key, lease=True)
        try:
            yield engine
        finally:
            engine.release()

    def _open_engine(self, key: str, lease: bool) -> QueryEngine:
        engine = QueryEngine(key, cache=self.cache, metrics=self.metrics)
        with self._engines_lock:
            # Another thread may have raced us here; keep the first.
            winner = self._engines.setdefault(key, engine)
            if lease:
                winner.acquire()
        if winner is not engine:
            engine.close()
        return winner

    def evict(self, twpp: PathLike) -> bool:
        """Release one path's warm engine (its cached entries and its
        mmap) without closing the whole session.

        :class:`~repro.store.store.TraceStore` evicts through this when
        a file goes stale, leaves its index or fails to decode; it is
        also the manual valve when one file's entries should leave the
        cache before :meth:`close`.  Returns True when an engine was
        actually open.
        The next :meth:`query` against the path transparently opens a
        fresh (cold) engine.  An engine still held through
        :meth:`borrow` keeps its mapping open until the last borrower
        lets go.
        """
        key = os.fspath(twpp)
        with self._engines_lock:
            engine = self._engines.pop(key, None)
        if engine is None:
            return False
        engine.close()
        self.metrics.inc("session.evictions")
        return True

    def store(
        self,
        root: PathLike,
        catalog_path: Optional[PathLike] = None,
        corpus: Optional[PathLike] = None,
    ):
        """Open a :class:`~repro.store.store.TraceStore` over a directory
        of ``.twpp`` files, backed by this session's warm engines and
        held to its :attr:`cache` budget.

        ``catalog_path`` is accepted and ignored, for callers that
        still pass it: the store keeps its index in memory and writes
        no file.  ``corpus`` attaches a multi-run corpus directory so
        the store's ``corpus_stats``/``corpus_hot``/``corpus_diff``
        verbs (and the HTTP daemon's ``/corpus/*`` endpoints) can serve
        it.
        """
        from .store.store import TraceStore

        return TraceStore(root, session=self, corpus=corpus)

    def corpus(self, root: PathLike):
        """Open (or create) a content-addressed multi-run corpus at
        ``root``, backed by this session's warm engines.

        Runs ingested through the corpus are scanned with the
        session's cached :class:`QueryEngine` per file; cross-run
        queries are served from the corpus's shared blobs, their
        expanded pairs cached in the session's :attr:`cache`.  See
        :class:`repro.corpus.TraceCorpus`.
        """
        from .corpus import TraceCorpus

        return TraceCorpus(root, session=self)

    def ingest_run(
        self,
        root: PathLike,
        twpp: PathLike,
        run: Optional[str] = None,
    ):
        """Ingest one ``.twpp`` into the corpus at ``root`` and return
        its :class:`~repro.corpus.IngestResult`.

        Convenience for one-shot ingestion; hold :meth:`corpus` open
        yourself to ingest batches or query across runs afterwards.
        """
        corpus = self.corpus(root)
        try:
            return corpus.ingest(twpp, run=run)
        finally:
            corpus.close()

    def query(
        self,
        twpp: TwppSource,
        func: Optional[Union[str, Sequence[str]]] = None,
        *,
        names: Optional[Sequence[str]] = None,
    ):
        """Path traces from a compacted WPP or trace file.

        ``func`` may be one function name (returns its trace list) or a
        sequence of names -- equivalently passed as ``names=[...]`` --
        which returns an ordered ``{name: traces}`` dict.

        A ``.twpp`` path is served by the session's cached
        :class:`QueryEngine` (first query cold, repeats warm); an
        in-memory :class:`CompactedWpp` reads its tables directly; a
        ``.wpp`` path falls back to the linear scan baseline.
        """
        if names is not None:
            if func is not None:
                raise TypeError("pass either func or names=, not both")
            batch: Optional[List[str]] = list(names)
        elif isinstance(func, (list, tuple)):
            batch = list(func)
        elif func is None:
            raise TypeError("query() needs a function name or names=[...]")
        else:
            batch = None

        if batch is not None:
            self.metrics.inc("query.calls", len(batch))
            return self._query_many(twpp, batch)
        self.metrics.inc("query.calls")
        return self._query_one(twpp, func)

    def _query_one(self, twpp: TwppSource, func: str) -> List[PathTrace]:
        if isinstance(twpp, CompactedWpp):
            fc = twpp.function(func)
            return fc.traces()
        with self.metrics.timer("query"):
            magic = read_magic(twpp)
            if magic == b"WPP1":
                return scan_function_traces(twpp, func)
            if magic == b"SQWP":
                from .sequitur.wpp_codec import (
                    extract_function_traces_sequitur,
                )

                return extract_function_traces_sequitur(twpp, func)
            with self.borrow(twpp) as engine:
                return engine.traces(func)

    def _query_many(
        self, twpp: TwppSource, names: List[str]
    ) -> Dict[str, List[PathTrace]]:
        if isinstance(twpp, CompactedWpp):
            return {name: self._query_one(twpp, name) for name in names}
        with self.metrics.timer("query"):
            magic = read_magic(twpp)
            if magic == b"TWPP":
                with self.borrow(twpp) as engine:
                    return engine.traces_many(names)
        return {name: self._query_one(twpp, name) for name in names}

    def stats(self, wpp: WppSource) -> CompactionStats:
        """Per-stage size accounting (Tables 1-3) for a WPP."""
        return self.compact(wpp).stats

    def analyze(
        self,
        twpp: TwppSource,
        program: Union[Program, PathLike],
        fact,
        functions: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
    ):
        """Data-flow fact frequencies over every path trace of a TWPP.

        ``fact`` is a :class:`~repro.analysis.facts.Fact` or a spec
        string (``load:100``, ``expr:a,b``, ``def:x``); ``functions``
        defaults to every function with at least one trace.  Traces are
        pulled through the session's warm query engine (one batch
        :meth:`~repro.compact.qserve.QueryEngine.traces_many` call for
        ``.twpp`` paths), then one frequency task per (function, path
        trace) runs serially or -- when ``jobs`` (or the session
        default) resolves to more than one worker -- across a per-call
        process pool (:mod:`repro.analysis.parallel`).  Returns an
        ordered ``{name: [FrequencyReport, ...]}`` dict, one report per
        path trace, identical for every ``jobs``.

        A ``program`` given as a path is parsed once and kept (see
        :meth:`_analysis_program`), so repeated analyses of one trace's
        program skip the parse.
        """
        from .analysis.facts import parse_fact
        from .analysis.frequency import fact_frequencies_many

        if isinstance(fact, str):
            fact = parse_fact(fact)
        prog = self._analysis_program(program)
        names = list(functions) if functions is not None else None
        with self.metrics.timer("analyze"):
            if isinstance(twpp, CompactedWpp):
                if names is None:
                    names = [fc.name for fc in twpp.functions]
                traces = {name: self._query_one(twpp, name) for name in names}
            else:
                with self.borrow(twpp) as engine:
                    if names is None:
                        names = engine.function_names()
                    traces = engine.traces_many(names)

            tasks = []
            owners: List[str] = []
            for name in names:
                func = prog.function(name)
                for trace in traces[name]:
                    tasks.append((func, trace, fact))
                    owners.append(name)
            reports = fact_frequencies_many(
                tasks,
                jobs=self.jobs if jobs is None else jobs,
                metrics=self.metrics,
            )
        self.metrics.inc("analysis.session_tasks", len(tasks))
        out: Dict[str, list] = {name: [] for name in names}
        for name, report in zip(owners, reports):
            out[name].append(report)
        return out

    # ---- persistence --------------------------------------------------

    def save_wpp(self, wpp: WppTrace, path: PathLike) -> int:
        """Write an uncompacted ``.wpp`` file; returns bytes written."""
        return write_wpp(wpp, path)

    def load(self, path: PathLike) -> CompactedWpp:
        """Read a ``.twpp`` file back into memory."""
        return read_twpp(path)

    # ---- helpers ------------------------------------------------------

    def _analysis_program(self, program: Union[Program, PathLike]) -> Program:
        """The parsed program behind an ``analyze`` call, cached.

        Entries are keyed by ``(realpath, st_mtime_ns, st_size)`` -- the
        freshness rule the store applies to ``.twpp`` files -- so an
        edited file is parsed again.  The file is stat'ed before and
        after it is read; when the two differ it changed mid-read, and
        the parse is returned without being kept.  At most
        :data:`PROGRAM_CACHE_SIZE` programs are held, evicted least
        recently used first.  Parsing runs outside the lock, so two
        threads missing on one file may both parse it.  Only
        ``analyze`` uses this cache: a hit here skips reading and
        splitting the file, which the parser's per-function cache
        (:data:`~repro.ir.parser.PARSE_CACHE_SIZE`) does not; trace verbs
        parse every time and share only the parsed functions.
        """
        if isinstance(program, Program):
            return program
        from .ir.parser import parse_program

        path = os.path.realpath(program)
        key = _stat_key(path)
        with self._programs_lock:
            prog = self._programs.get(key)
            if prog is not None:
                self._programs.move_to_end(key)
                self.metrics.inc("analysis.program_hits")
                return prog
        with open(path) as fh:
            text = fh.read()
        stable = _stat_key(path) == key
        prog = parse_program(text, metrics=self.metrics)
        with self._programs_lock:
            self.metrics.inc("analysis.program_parses")
            if stable:
                for old in [k for k in self._programs if k[0] == path]:
                    del self._programs[old]
                self._programs[key] = prog
                while len(self._programs) > PROGRAM_CACHE_SIZE:
                    self._programs.popitem(last=False)
        return prog

    def _load_program(self, program: Union[Program, PathLike]) -> Program:
        """The program a trace verb runs: parsed under the ``ir.parse``
        timer, each function through the parser's cache."""
        if isinstance(program, Program):
            return program
        from .ir.parser import parse_program

        with open(program) as fh:
            text = fh.read()
        with self.metrics.timer("ir.parse"):
            return parse_program(text, metrics=self.metrics)

    @staticmethod
    def _load_wpp(wpp: WppSource) -> WppTrace:
        if isinstance(wpp, WppTrace):
            return wpp
        return read_wpp(wpp)


def _stat_key(path: str) -> Tuple[str, int, int]:
    st = os.stat(path)
    return (path, st.st_mtime_ns, st.st_size)


def trace(
    program: Union[Program, PathLike],
    args: Tuple[int, ...] = (),
    inputs: Tuple[int, ...] = (),
    max_events: Optional[int] = None,
) -> WppTrace:
    """Run a program and collect its whole program path."""
    return Session().trace(
        program, args=args, inputs=inputs, max_events=max_events
    )


def compact(
    wpp: WppSource,
    metrics: Optional[MetricsRegistry] = None,
) -> CompactResult:
    """Compact a WPP into its TWPP form plus size accounting."""
    return Session(metrics=metrics).compact(wpp)


def stream_compact(
    program: Union[Program, PathLike],
    path: PathLike,
    args: Tuple[int, ...] = (),
    inputs: Tuple[int, ...] = (),
    max_events: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    verify: bool = False,
) -> StreamResult:
    """Run a program and stream its compacted ``.twpp`` straight to disk.

    ``verify=True`` read-checks the written file before returning (see
    :meth:`Session.stream_compact`).
    """
    with Session(metrics=metrics) as session:
        return session.stream_compact(
            program,
            path,
            args=args,
            inputs=inputs,
            max_events=max_events,
            verify=verify,
        )


def query(
    twpp: TwppSource,
    func: Optional[Union[str, Sequence[str]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
):
    """Extract path traces from a compacted (or raw) WPP.

    One name returns its trace list; a sequence (or ``names=[...]``)
    returns an ordered ``{name: traces}`` dict.  Each call builds a
    throwaway :class:`Session`; hold one yourself (or a
    :class:`~repro.compact.qserve.QueryEngine`) to serve repeats warm.
    """
    with Session() as session:
        return session.query(twpp, func, names=names)


def stats(
    wpp: WppSource,
    metrics: Optional[MetricsRegistry] = None,
) -> CompactionStats:
    """Compaction stage-size accounting for a WPP."""
    return Session(metrics=metrics).stats(wpp)


def analyze(
    twpp: TwppSource,
    program: Union[Program, PathLike],
    fact,
    functions: Optional[Sequence[str]] = None,
    jobs: int = 1,
    metrics: Optional[MetricsRegistry] = None,
):
    """Fact frequencies over a compacted WPP's path traces.

    ``fact`` accepts a :class:`~repro.analysis.facts.Fact` or a spec
    string (``load:100``, ``expr:a,b``, ``def:x``).  Returns an ordered
    ``{function: [FrequencyReport, ...]}`` dict; ``jobs > 1`` fans the
    per-trace analysis tasks across a per-call process pool.
    """
    with Session(jobs=jobs, metrics=metrics) as session:
        return session.analyze(twpp, program, fact, functions=functions)
