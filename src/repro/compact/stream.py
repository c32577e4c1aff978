"""Streaming ingestion: run a program straight to its ``.twpp``.

The program runs under the one partitioner
(:class:`~repro.trace.partition.OnlinePartitioner`), which interns each
activation's path trace as the activation returns, so no raw WPP is
ever built: memory tracks the unique traces plus the open call stack.
When the run ends, :func:`~repro.compact.pipeline.compact_wpp` compacts
the partition and :func:`~repro.compact.format.write_twpp` writes the
file -- the same finalize and the same writer as the two-phase
``write_twpp(compact_wpp(partition_wpp(collect_wpp(p))))`` route, so
the two files are byte-identical by construction.  Compaction sees only
unique traces, so it is a small share of a run (the paper's redundancy
observation); no thread is started.

All pipeline activity reports ``ingest.*`` metrics on the shared
registry: counters (events, activations, functions, unique traces,
bytes written) and the stage timers ``ingest.execute`` (interpreter and
partitioner), ``ingest.finalize`` (compaction), ``ingest.write`` and
``ingest.verify`` inside ``ingest.total``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..interp.interpreter import DEFAULT_MAX_EVENTS, RunResult, run_program
from ..obs import MetricsRegistry
from ..trace.partition import OnlinePartitioner
from .format import write_twpp
from .pipeline import (
    CompactedWpp,
    CompactionStats,
    FunctionCompact,
    compact_wpp,
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


def stream_compact(
    program,
    path: PathLike,
    args: Sequence[int] = (),
    inputs: Sequence[int] = (),
    max_events: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    verify: bool = False,
) -> StreamResult:
    """Run a program and write its compacted ``.twpp``, holding no raw WPP.

    The output file is byte-identical to the two-phase
    ``write_twpp(compact_wpp(partition_wpp(collect_wpp(program))))``
    route.

    ``verify=True`` reads the written file back through a fresh
    :class:`~repro.compact.qserve.QueryEngine` and checks every
    function's expanded traces against the in-memory compaction
    (``ingest.verify`` timer).
    """
    if metrics is None:
        metrics = MetricsRegistry()
    tracer = OnlinePartitioner()

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
                metrics=metrics,
            )
        execute_s = time.perf_counter() - execute_started

        with metrics.timer("ingest.finalize"):
            compacted, stats = compact_wpp(tracer.finish())

        with metrics.timer("ingest.write"):
            bytes_written = write_twpp(compacted, path)

        if verify:
            with metrics.timer("ingest.verify"):
                _verify_readback(path, compacted.functions, metrics)

    events = tracer.events_seen
    functions = compacted.functions
    metrics.inc("ingest.events", events)
    metrics.inc("ingest.activations", len(compacted.dcg))
    metrics.inc("ingest.functions", len(functions))
    metrics.inc("ingest.unique_traces", sum(len(fc.pairs) for fc in functions))
    metrics.inc("ingest.bytes_written", bytes_written)
    # Throughput over this call's own execute span (the accumulated
    # ingest.execute timer can span several runs on a shared registry).
    events_per_sec = events / execute_s if execute_s > 0 else float("inf")

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
