"""Partitioning a WPP into per-call path traces plus a DCG.

This is the first transformation of the paper's compaction pipeline
(Figure 2): break the linear WPP into one *path trace* per function
activation and keep a dynamic call graph linking them so the WPP remains
reconstructible.  Redundant-trace elimination (Figure 3) falls out of
the same pass: identical traces of the same function share one entry in
the function's unique-trace table, and both the pre- and post-dedup
sizes are recoverable from the result.

One partitioner, :class:`OnlinePartitioner`, does this work on both
routes: as the interpreter's tracer while a program runs (streaming
ingest, :func:`repro.compact.stream.stream_compact`), and over a
recorded WPP's events (:func:`partition_wpp`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import MetricsRegistry
from .dcg import DynamicCallGraph
from .encoding import uvarint_size
from .wpp import BLOCK, ENTER, LEAVE, WppTrace

PathTrace = Tuple[int, ...]


@dataclass
class PartitionedWpp:
    """A WPP broken into unique path traces linked by a DCG.

    ``traces[f]`` is the unique-trace table of function index ``f``;
    DCG nodes reference entries of their function's table.
    """

    func_names: List[str]
    dcg: DynamicCallGraph
    traces: List[List[PathTrace]] = field(default_factory=list)

    def func_index(self, name: str) -> int:
        """Function-name -> index lookup."""
        try:
            return self.func_names.index(name)
        except ValueError:
            raise KeyError(f"function {name!r} not in partitioned WPP") from None

    def unique_traces(self, name: str) -> List[PathTrace]:
        """The unique path traces of a function, in first-seen order."""
        return self.traces[self.func_index(name)]

    def call_counts(self) -> Dict[str, int]:
        """Activation counts per function name."""
        per_index = self.dcg.calls_per_function(len(self.func_names))
        return {name: per_index[i] for i, name in enumerate(self.func_names)}

    def unique_trace_counts(self) -> Dict[str, int]:
        """Number of *unique* traces per function name (Figure 8 input)."""
        return {
            name: len(self.traces[i]) for i, name in enumerate(self.func_names)
        }

    # ---- size accounting (Tables 1 and 2) -----------------------------

    def trace_bytes_with_redundancy(self) -> int:
        """Serialized size of all per-activation traces *before* dedup.

        This is the "WPP traces" column of Table 1: every activation
        pays for its own copy of its path trace.
        """
        per_trace_size = [
            [trace_size(t) for t in table] for table in self.traces
        ]
        total = 0
        for func_idx, trace_id in zip(self.dcg.node_func, self.dcg.node_trace):
            total += per_trace_size[func_idx][trace_id]
        return total

    def trace_bytes_deduped(self) -> int:
        """Serialized size of the unique-trace tables (after dedup).

        This is the "after redundancy removal" column of Table 2.
        """
        return sum(
            trace_size(t) for table in self.traces for t in table
        )

    def dcg_bytes(self) -> int:
        """Serialized size of the dynamic call graph."""
        return len(self.dcg.serialize())


def trace_size(trace: PathTrace) -> int:
    """Bytes to store one path trace as length-prefixed varints."""
    return uvarint_size(len(trace)) + sum(uvarint_size(b) for b in trace)


class OnlinePartitioner:
    """Tracer that builds a :class:`PartitionedWpp` as events arrive.

    The one partitioner: the interpreter drives it directly (so a run
    is partitioned while it executes and no raw WPP is ever held --
    peak memory tracks the unique traces plus the open call stack), and
    :func:`partition_wpp` replays a recorded WPP's events into it.
    Function indices are assigned in first-entered order.
    """

    def __init__(self) -> None:
        self._func_names: List[str] = []
        self._func_index: Dict[str, int] = {}
        self._dcg = DynamicCallGraph()
        self._traces: List[List[PathTrace]] = []
        self._intern: List[Dict[PathTrace, int]] = []
        # Open activations: (node index, block list).
        self._stack: List[Tuple[int, List[int]]] = []
        self._events = 0

    def _add_function(self, name: str) -> int:
        idx = len(self._func_names)
        self._func_index[name] = idx
        self._func_names.append(name)
        self._traces.append([])
        self._intern.append({})
        return idx

    # ---- tracer interface ------------------------------------------------

    def enter(self, func_name: str) -> None:
        idx = self._func_index.get(func_name)
        if idx is None:
            idx = self._add_function(func_name)
        node = self._dcg.add_node(idx)
        self._stack.append((node, []))
        self._events += 1

    def block_run(self, ids: List[int]) -> None:
        """Append a run of block ids to the open activation's trace."""
        if not self._stack:
            raise ValueError("block event outside any activation")
        self._stack[-1][1].extend(ids)
        self._events += len(ids)

    def leave(self) -> None:
        if not self._stack:
            raise ValueError("unbalanced leave event")
        node, blocks = self._stack.pop()
        func_idx = self._dcg.node_func[node]
        trace = tuple(blocks)
        trace_id = self._intern[func_idx].get(trace)
        if trace_id is None:
            trace_id = len(self._traces[func_idx])
            self._traces[func_idx].append(trace)
            self._intern[func_idx][trace] = trace_id
        self._dcg.set_trace(node, trace_id)
        self._events += 1

    # ---- results -----------------------------------------------------------

    @property
    def events_seen(self) -> int:
        """Total trace events observed (what the raw WPP's length would be)."""
        return self._events

    @property
    def open_activations(self) -> int:
        """Current call-stack depth (activations not yet finalized)."""
        return len(self._stack)

    def finish(self) -> PartitionedWpp:
        """Return the partitioned WPP; all activations must be closed."""
        if self._stack:
            raise ValueError(
                f"{len(self._stack)} activation(s) still open (never closed);"
                " run the program to completion first"
            )
        return PartitionedWpp(
            func_names=list(self._func_names),
            dcg=self._dcg,
            traces=self._traces,
        )


def partition_wpp(
    wpp: WppTrace, metrics: Optional[MetricsRegistry] = None
) -> PartitionedWpp:
    """Break a recorded WPP into unique path traces linked by a DCG.

    Replays the event stream into an :class:`OnlinePartitioner`, each
    run of consecutive BLOCK events as one ``block_run``.  The result
    keeps ``wpp.func_names`` as given, never-entered names included.
    ``metrics`` (optional) records the stage timer and
    event/activation counters.
    """
    if metrics is None:
        metrics = MetricsRegistry()
    names = wpp.func_names
    part = OnlinePartitioner()
    for name in names:
        part._add_function(name)
    if len(part._func_index) != len(names):
        raise ValueError("WPP names one function twice")
    enter, leave, block_run = part.enter, part.leave, part.block_run

    with metrics.timer("partition"):
        run: List[int] = []
        for packed in wpp.events:
            kind = packed & 3  # the low two bits (see pack_event)
            if kind == BLOCK:
                run.append(packed >> 2)
                continue
            if run:
                block_run(run)
                run = []
            if kind == ENTER:
                func = packed >> 2
                if func >= len(names):
                    raise ValueError(
                        f"ENTER of function {func}, past the WPP's"
                        f" {len(names)} names"
                    )
                enter(names[func])
            elif kind == LEAVE:
                leave()
            else:
                raise ValueError(f"unknown event kind {kind}")
        if run:
            block_run(run)
        partitioned = part.finish()

    metrics.inc("partition.events", len(wpp))
    metrics.inc("partition.activations", len(partitioned.dcg.node_func))
    metrics.inc("partition.functions", len(names))
    metrics.inc(
        "partition.unique_traces", sum(len(t) for t in partitioned.traces)
    )
    return partitioned

