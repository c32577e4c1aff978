"""Streaming ingestion: trace -> compact -> write in one pass.

The two-phase pipeline runs the program to completion, holds the full
partitioned WPP, then compacts it and writes the ``.twpp``.  Most of
that compaction work can happen while the program runs: a unique path
trace can be dictionary-compacted and converted to TWPP form the moment
the activation that produced it returns.  This module does exactly
that, on the interpreter thread:

* the program runs under a :class:`_StreamingTracer` (an
  :class:`~repro.trace.online.OnlinePartitioner` whose new-trace hook
  feeds each newly interned unique trace to its function's
  :class:`~repro.compact.pipeline.FunctionCompactor` inline);
* after the run finishes, the DCG is compressed once and
  :func:`~repro.compact.format.twpp_chunks` lays the file out.

Each compactor sees its function's unique traces in first-seen order,
the order the two-phase route's trace tables hold them in, so the
tables it builds are element-for-element identical to
:func:`~repro.compact.pipeline.compact_function`'s and the file is
**byte-identical** to the two-phase ``compact_wpp`` + ``write_twpp``
output -- the tests ``cmp`` them.  Only unique traces reach the
compactor, so after the warm-up phase of a run (when most traces are
repeats) compaction is a small share of the run; the paper's
redundancy observation is what makes compacting inline cheap.  No
thread is started: Python threads cannot overlap this work with the
pure-Python interpreter anyway.

All pipeline activity reports ``ingest.*`` metrics on the shared
registry: counters (events, unique traces, run flushes, bytes written)
and per-stage timers, with the producer's ``ingest.execute`` split into
``ingest.compact`` (inline compaction) and ``ingest.interp`` (the rest).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..interp.interpreter import DEFAULT_MAX_EVENTS, RunResult, run_program
from ..obs import MetricsRegistry
from ..trace.online import OnlinePartitioner
from ..trace.partition import PathTrace
from .format import twpp_chunks
from .lzw import lzw_compress
from .pipeline import (
    CompactedWpp,
    CompactionStats,
    FunctionCompact,
    FunctionCompactor,
)

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class StreamResult:
    """Outcome of one :func:`stream_compact` run."""

    path: str
    bytes_written: int
    compacted: CompactedWpp
    stats: CompactionStats
    run: RunResult
    events: int
    events_per_sec: float

    def __iter__(self):
        # Unpacks like compact()'s (compacted, stats) for symmetry.
        return iter((self.compacted, self.stats))


class _StreamingTracer(OnlinePartitioner):
    """Online partitioner that compacts each unique trace as it is interned.

    ``compactors`` maps a function index to its compactor, created with
    the function's first trace (trace id 0); pair ``k`` of a compactor
    is therefore the function's trace ``k``.  ``compact_ms`` is the
    wall time spent compacting.
    """

    def __init__(self) -> None:
        super().__init__()
        self.compactors: Dict[int, FunctionCompactor] = {}
        self.compact_ms = 0.0
        self.run_flushes = 0

    def block_run(self, buf, n: Optional[int] = None) -> None:
        self.run_flushes += 1
        super().block_run(buf, n)

    def _on_new_trace(
        self, func_idx: int, trace_id: int, trace: PathTrace
    ) -> None:
        started = time.perf_counter()
        if trace_id == 0:
            self.compactors[func_idx] = FunctionCompactor(
                self._func_names[func_idx]
            )
        self.compactors[func_idx].add(trace)
        self.compact_ms += (time.perf_counter() - started) * 1000.0


def stream_compact(
    program,
    path: PathLike,
    args: Sequence[int] = (),
    inputs: Sequence[int] = (),
    max_events: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    interp: Optional[str] = None,
    verify: bool = False,
) -> StreamResult:
    """Run a program and write its compacted ``.twpp`` in one pass.

    Each unique trace is compacted as it is first seen; the output file
    is byte-identical to the two-phase
    ``write_twpp(compact_wpp(partition)...)`` route.  ``interp`` selects
    the execution engine (``"tree"``/``"compiled"``, see
    :func:`repro.interp.run_program`).  The producer's
    ``ingest.execute`` time splits into ``ingest.compact`` (inline
    compaction) and ``ingest.interp`` (interpreter and tracer work).

    ``verify=True`` reads the written file back through a fresh
    :class:`~repro.compact.qserve.QueryEngine` and checks every
    function's expanded traces against the in-memory compaction
    (``ingest.verify`` timer).
    """
    if metrics is None:
        metrics = MetricsRegistry()
    tracer = _StreamingTracer()

    with metrics.timer("ingest.total"):
        execute_started = time.perf_counter()
        with metrics.timer("ingest.execute"):
            run = run_program(
                program,
                args=args,
                inputs=inputs,
                tracer=tracer,
                max_events=(
                    DEFAULT_MAX_EVENTS if max_events is None else max_events
                ),
                interp=interp,
                metrics=metrics,
            )
        execute_ms = (time.perf_counter() - execute_started) * 1000.0
        metrics.add_ms("ingest.compact", tracer.compact_ms)
        metrics.add_ms("ingest.interp", max(0.0, execute_ms - tracer.compact_ms))

        partitioned = tracer.finish()
        events = tracer.events_seen
        n_funcs = len(partitioned.func_names)
        call_counts = partitioned.dcg.calls_per_function(n_funcs)

        with metrics.timer("ingest.finalize"):
            stats = CompactionStats(
                owpp_trace_bytes=partitioned.trace_bytes_with_redundancy(),
                dcg_raw_bytes=partitioned.dcg_bytes(),
                dedup_trace_bytes=partitioned.trace_bytes_deduped(),
            )
            # Every entered function has returned (finish() checked), so
            # every function has a compactor.
            functions: List[FunctionCompact] = []
            for idx in range(n_funcs):
                compactor = tracer.compactors[idx]
                compactor.function.call_count = call_counts[idx]
                functions.append(compactor.function)
                compactor.account(stats)
            # Pair ids coincide with raw trace ids (one pair per unique
            # raw trace), so the DCG already references pairs.
            dcg = partitioned.dcg
            dcg_raw = dcg.serialize()
            dcg_comp = lzw_compress(dcg_raw)
            stats.dcg_lzw_bytes = len(dcg_comp)

        with metrics.timer("ingest.write"):
            with open(path, "wb") as fh:
                bytes_written = sum(
                    fh.write(chunk)
                    for chunk in twpp_chunks(functions, dcg_raw, dcg_comp)
                )

        if verify:
            with metrics.timer("ingest.verify"):
                _verify_readback(path, functions, metrics)

    metrics.inc("ingest.events", events)
    metrics.inc("ingest.activations", len(dcg.node_func))
    metrics.inc("ingest.functions", n_funcs)
    metrics.inc("ingest.unique_traces", sum(len(fc.pairs) for fc in functions))
    metrics.inc("ingest.run_flushes", tracer.run_flushes)
    metrics.inc("ingest.bytes_written", bytes_written)
    # Throughput over this call's own execute span (the accumulated
    # ingest.execute timer can span several runs on a shared registry).
    execute_s = execute_ms / 1000.0
    events_per_sec = events / execute_s if execute_s > 0 else float("inf")

    compacted = CompactedWpp(
        func_names=list(partitioned.func_names),
        functions=functions,
        dcg=dcg,
    )
    return StreamResult(
        path=os.fspath(path),
        bytes_written=bytes_written,
        compacted=compacted,
        stats=stats,
        run=run,
        events=events,
        events_per_sec=events_per_sec,
    )


def _verify_readback(
    path: PathLike,
    functions: List[FunctionCompact],
    metrics: MetricsRegistry,
) -> None:
    """Check the written file serves the traces we just compacted.

    Expectations come from the in-memory tables (no file access); the
    read side goes through a throwaway engine over the file on disk.
    """
    from .qserve import QueryEngine

    expected = {
        fc.name: fc.traces()
        for fc in functions
    }
    names = list(expected)
    with QueryEngine(path, cache_bytes=0, metrics=metrics) as engine:
        got = engine.traces_many(names)
    for name in names:
        if got[name] != expected[name]:
            raise ValueError(
                f"stream verify failed: function {name!r} reads back"
                " differently than it was compacted"
            )
    metrics.inc("ingest.verified_functions", len(names))
