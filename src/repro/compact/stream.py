"""Overlapped streaming ingestion: trace -> compact -> write in one pass.

The two-phase pipeline runs the program to completion, holds the full
partitioned WPP, then compacts it and writes the ``.twpp``.  For large
runs most of that compaction work is ready long before the program
exits: a unique path trace can be dictionary-compacted and converted to
TWPP form the moment the activation that produced it returns.  This
module overlaps the three stages:

* the **producer** is the interpreter thread itself, running the
  program under a :class:`_StreamingTracer` (an
  :class:`~repro.trace.online.OnlinePartitioner` that hands each newly
  interned unique trace to a bounded queue);
* one or more **consumer** threads drain the queues and run pipeline
  stages 3-4 (:func:`~repro.compact.dbb.compact_trace`, body/dictionary
  interning, TWPP conversion) incrementally, in first-seen order, so
  the per-function tables they build are element-for-element identical
  to :func:`~repro.compact.pipeline.compact_function`'s;
* after the run finishes, consumers serialize their functions' sections
  in parallel and the producer streams the header plus sections to the
  output file one section at a time.

Because interning order is first-seen order regardless of ``jobs``
(each function is owned by exactly one consumer, and a queue preserves
enqueue order), the resulting file is **byte-identical** to the
two-phase ``compact_wpp`` + ``write_twpp`` output -- the tests ``cmp``
them.  Only unique traces cross the queue, so after the warm-up phase
of a run (when most traces are repeats) the queue traffic is a tiny
fraction of the event volume; the paper's redundancy observation is
what makes the overlap cheap.

Backpressure: queues are bounded (``STREAM_QUEUE_CAP``); when a put
would block, the producer records an ``ingest.queue_stalls`` tick and
waits, so a slow consumer throttles the interpreter instead of growing
memory without bound.  All pipeline activity reports ``ingest.*``
metrics (events, unique traces, queue depth, run flushes, stalls,
section bytes, per-stage timers) on the shared registry.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..interp.interpreter import DEFAULT_MAX_EVENTS, RunResult, run_program
from ..obs import MetricsRegistry
from ..trace.encoding import write_string, write_uvarint
from ..trace.online import OnlinePartitioner
from ..trace.partition import PathTrace
from .dbb import DbbDictionary, compact_trace
from .format import MAGIC, _serialize_section
from .lzw import lzw_compress
from .pipeline import (
    CompactedWpp,
    CompactionStats,
    FunctionCompact,
    _trace_bytes,
    dictionary_bytes,
    twpp_bytes,
)
from .twpp import trace_to_twpp

PathLike = Union[str, "os.PathLike[str]"]

#: Bound on each consumer queue (unique traces in flight).  Small enough
#: to cap memory, large enough that stalls are rare in practice.
STREAM_QUEUE_CAP = 256

_SENTINEL = None


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


class _FuncState:
    """One function's incrementally built compaction state."""

    __slots__ = (
        "fc",
        "body_intern",
        "dict_intern",
        "section",
        "body_sizes",
        "dict_sizes",
        "twpp_sizes",
    )

    def __init__(self, name: str) -> None:
        self.fc = FunctionCompact(name=name)
        self.body_intern: Dict[PathTrace, int] = {}
        self.dict_intern: Dict[DbbDictionary, int] = {}
        self.section: bytes = b""
        self.body_sizes: List[int] = []
        self.dict_sizes: List[int] = []
        self.twpp_sizes: List[int] = []


class _StreamingTracer(OnlinePartitioner):
    """Online partitioner that feeds unique traces to consumer queues.

    Function ``i`` is owned by consumer ``i % n_consumers``; since one
    consumer sees all of a function's unique traces in enqueue (==
    first-seen) order, its interning replicates the serial pipeline's
    exactly, for any number of consumers.
    """

    def __init__(
        self, queues: List["queue.Queue"], metrics: MetricsRegistry
    ) -> None:
        super().__init__()
        self._queues = queues
        self._n_queues = len(queues)
        self._metrics = metrics
        self.run_flushes = 0

    def block_run(self, buf, n: Optional[int] = None) -> None:
        self.run_flushes += 1
        super().block_run(buf, n)

    def _on_new_trace(
        self, func_idx: int, trace_id: int, trace: PathTrace
    ) -> None:
        q = self._queues[func_idx % self._n_queues]
        item = (func_idx, self._func_names[func_idx], trace)
        try:
            q.put_nowait(item)
        except queue.Full:
            self._metrics.inc("ingest.queue_stalls")
            stall_start = time.perf_counter()
            q.put(item)
            self._metrics.add_ms(
                "ingest.stall", (time.perf_counter() - stall_start) * 1000.0
            )
        self._metrics.observe("ingest.queue_depth", q.qsize())


def _consume(
    q: "queue.Queue",
    states: Dict[int, _FuncState],
    metrics: MetricsRegistry,
    errors: List[BaseException],
) -> None:
    """Drain one queue: compact each unique trace as it arrives.

    On the shutdown sentinel, serialize the sections of every owned
    function (this runs in parallel across consumers) and exit.
    """
    try:
        while True:
            item = q.get()
            if item is _SENTINEL:
                break
            func_idx, name, trace = item
            st = states.get(func_idx)
            if st is None:
                st = states[func_idx] = _FuncState(name)
            with metrics.timer("ingest.compact"):
                fc = st.fc
                body, dictionary = compact_trace(trace)
                body_id = st.body_intern.get(body)
                if body_id is None:
                    body_id = len(fc.trace_table)
                    st.body_intern[body] = body_id
                    fc.trace_table.append(body)
                    fc.twpp_table.append(trace_to_twpp(body))
                    st.body_sizes.append(_trace_bytes(body))
                    st.twpp_sizes.append(twpp_bytes(fc.twpp_table[-1]))
                dict_id = st.dict_intern.get(dictionary)
                if dict_id is None:
                    dict_id = len(fc.dict_table)
                    st.dict_intern[dictionary] = dict_id
                    fc.dict_table.append(dictionary)
                    st.dict_sizes.append(dictionary_bytes(dictionary))
                fc.pairs.append((body_id, dict_id))
            metrics.inc("ingest.traces_compacted")
        with metrics.timer("ingest.serialize"):
            for st in states.values():
                st.section = _serialize_section(st.fc)
                metrics.observe("ingest.section_bytes", len(st.section))
    except BaseException as exc:  # surfaced by the producer after join
        errors.append(exc)


def stream_compact(
    program,
    path: PathLike,
    args: Sequence[int] = (),
    inputs: Sequence[int] = (),
    jobs: int = 1,
    max_events: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    interp: Optional[str] = None,
    verify: bool = False,
) -> StreamResult:
    """Run a program and write its compacted ``.twpp`` in one pass.

    Execution, per-function compaction and section serialization are
    overlapped; the output file is byte-identical to the two-phase
    ``write_twpp(compact_wpp(partition)...)`` route for any ``jobs``.
    ``jobs`` is the number of consumer threads (``0`` = one per CPU).
    ``interp`` selects the execution engine (``"tree"``/``"compiled"``,
    see :func:`repro.interp.run_program`); the producer's time splits
    into ``ingest.interp`` (pure interpreter + tracer work) and
    ``ingest.stall`` (blocked on consumer backpressure), alongside the
    consumer-side ``ingest.compact`` timer.

    ``verify=True`` reads the written file back through a fresh
    :class:`~repro.compact.qserve.QueryEngine` and checks every
    function's expanded traces against the in-memory compaction
    (``ingest.verify`` timer).
    """
    from ..analysis.parallel import resolve_jobs

    if metrics is None:
        metrics = MetricsRegistry()
    n_consumers = resolve_jobs(jobs)

    queues: List["queue.Queue"] = [
        queue.Queue(maxsize=STREAM_QUEUE_CAP) for _ in range(n_consumers)
    ]
    states: List[Dict[int, _FuncState]] = [{} for _ in range(n_consumers)]
    consumer_metrics = [MetricsRegistry() for _ in range(n_consumers)]
    errors: List[BaseException] = []
    tracer = _StreamingTracer(queues, metrics)

    threads = [
        threading.Thread(
            target=_consume,
            args=(queues[i], states[i], consumer_metrics[i], errors),
            name=f"twpp-stream-{i}",
            daemon=True,
        )
        for i in range(n_consumers)
    ]

    with metrics.timer("ingest.total"):
        for t in threads:
            t.start()
        stalled_before = metrics.timers_ms.get("ingest.stall", 0.0)
        execute_started = time.perf_counter()
        try:
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
            # Producer wall time minus backpressure blocking = time the
            # interpreter (and tracer hooks) actually ran.
            execute_ms = (time.perf_counter() - execute_started) * 1000.0
            stalled_ms = metrics.timers_ms.get("ingest.stall", 0.0) - stalled_before
            metrics.add_ms("ingest.interp", max(0.0, execute_ms - stalled_ms))
        finally:
            with metrics.timer("ingest.drain"):
                for q in queues:
                    q.put(_SENTINEL)
                for t in threads:
                    t.join()
        for m in consumer_metrics:
            metrics.merge(m)
        if errors:
            raise errors[0]

        partitioned = tracer.finish()
        events = tracer.events_seen
        n_funcs = len(partitioned.func_names)
        call_counts = partitioned.dcg.calls_per_function(n_funcs)

        with metrics.timer("ingest.finalize"):
            merged: Dict[int, _FuncState] = {}
            for owned in states:
                merged.update(owned)
            functions: List[FunctionCompact] = []
            sections: List[bytes] = []
            stats = CompactionStats(
                owpp_trace_bytes=partitioned.trace_bytes_with_redundancy(),
                dcg_raw_bytes=partitioned.dcg_bytes(),
                dedup_trace_bytes=partitioned.trace_bytes_deduped(),
            )
            for idx in range(n_funcs):
                st = merged.get(idx)
                if st is None:  # function entered but produced no traces
                    st = _FuncState(partitioned.func_names[idx])
                    st.section = _serialize_section(st.fc)
                st.fc.call_count = call_counts[idx]
                functions.append(st.fc)
                sections.append(st.section)
                stats.dict_stage_trace_bytes += sum(st.body_sizes)
                stats.dictionary_bytes += sum(st.dict_sizes)
                stats.ctwpp_trace_bytes += sum(st.twpp_sizes)

            # DCG trace refs are already pair ids: pairs append once per
            # unique raw trace, so the id spaces coincide (the two-phase
            # pipeline's pair_map is the identity for the same reason).
            dcg = partitioned.dcg
            dcg_raw = dcg.serialize()
            dcg_comp = lzw_compress(dcg_raw)
            stats.dcg_lzw_bytes = len(dcg_comp)

        with metrics.timer("ingest.write"):
            bytes_written = _write_incremental(
                path, functions, sections, dcg_raw, dcg_comp
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
        fc.name: [fc.expand_pair(p) for p in range(len(fc.pairs))]
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


def _write_incremental(
    path: PathLike,
    functions: List[FunctionCompact],
    sections: List[bytes],
    dcg_raw: bytes,
    dcg_comp: bytes,
) -> int:
    """Write header + sections to ``path`` one piece at a time.

    Mirrors :func:`repro.compact.format.serialize_twpp` byte for byte
    (storage order, header fields, DCG, sections) but never assembles
    the whole file in memory: sections were serialized by the consumers
    and are streamed out individually.
    """
    order = sorted(
        range(len(functions)),
        key=lambda i: (-functions[i].call_count, i),
    )
    header = bytearray()
    header.extend(MAGIC)
    write_uvarint(header, len(order))
    cursor = 0
    for idx in order:
        fc = functions[idx]
        write_string(header, fc.name)
        write_uvarint(header, fc.call_count)
        write_uvarint(header, idx)
        write_uvarint(header, cursor)
        write_uvarint(header, len(sections[idx]))
        cursor += len(sections[idx])
    write_uvarint(header, len(dcg_raw))
    write_uvarint(header, len(dcg_comp))

    total = 0
    with open(path, "wb") as fh:
        total += fh.write(header)
        total += fh.write(dcg_comp)
        for idx in order:
            total += fh.write(sections[idx])
    return total
