"""Online partitioning: compact the WPP while the program runs.

The paper's motivation for compression/compaction is that raw WPPs are
enormous (hundreds of MB).  Materializing the raw event stream just to
partition it re-creates that problem in memory; this tracer instead
builds the partitioned form *during execution* -- per-function
unique-trace tables fill in as activations return, and the DCG grows
one node per call -- so peak memory tracks the compacted size plus the
current call stack's open traces, never the full WPP.

``OnlinePartitioner`` plugs into the interpreter exactly like any other
tracer; :func:`collect_partitioned` is the drop-in replacement for
``partition_wpp(collect_wpp(program))``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .dcg import DynamicCallGraph
from .partition import PartitionedWpp, PathTrace


class OnlinePartitioner:
    """Interpreter tracer that produces a :class:`PartitionedWpp` directly."""

    def __init__(self) -> None:
        self._func_names: List[str] = []
        self._func_index: Dict[str, int] = {}
        self._dcg = DynamicCallGraph()
        self._traces: List[List[PathTrace]] = []
        self._intern: List[Dict[PathTrace, int]] = []
        # Open activations: (node index, block list).
        self._stack: List[Tuple[int, List[int]]] = []
        self._events = 0

    # ---- tracer interface ------------------------------------------------

    def enter(self, func_name: str) -> None:
        idx = self._func_index.get(func_name)
        if idx is None:
            idx = len(self._func_names)
            self._func_index[func_name] = idx
            self._func_names.append(func_name)
            self._traces.append([])
            self._intern.append({})
        parent = self._stack[-1][0] if self._stack else -1
        node = self._dcg.add_node(idx, parent)
        self._stack.append((node, []))
        self._events += 1

    def block(self, block_id: int) -> None:
        if not self._stack:
            raise ValueError("block event outside any activation")
        self._stack[-1][1].append(block_id)
        self._events += 1

    def block_run(self, buf, n: Optional[int] = None) -> None:
        """Ingest a straight-line run of BLOCK ids in one call.

        Equivalent to ``n`` :meth:`block` calls but a single
        ``list.extend`` onto the open activation's block list.  ``buf``
        is any sequence of block ids; ``n`` bounds how many of its
        leading entries are valid (default: all).
        """
        if not self._stack:
            raise ValueError("block event outside any activation")
        if n is None:
            n = len(buf)
        self._stack[-1][1].extend(buf if n == len(buf) else buf[:n])
        self._events += n

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
            self._on_new_trace(func_idx, trace_id, trace)
        self._dcg.set_trace(node, trace_id)
        self._events += 1

    def _on_new_trace(
        self, func_idx: int, trace_id: int, trace: PathTrace
    ) -> None:
        """Hook: called once per newly interned unique trace.

        The streaming compactor (:mod:`repro.compact.stream`) overrides
        this to compact each fresh trace inline, on the interpreter
        thread, while the program is still running.  ``trace_id`` 0 is
        a function's first trace.
        """

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
                f"{len(self._stack)} activation(s) still open; "
                "run the program to completion first"
            )
        return PartitionedWpp(
            func_names=list(self._func_names),
            dcg=self._dcg,
            traces=self._traces,
        )


def collect_partitioned(
    program, args=(), inputs=(), max_events=None
) -> PartitionedWpp:
    """Run a program and partition its WPP on the fly (no raw stream).

    Equivalent to ``partition_wpp(collect_wpp(program, ...))`` with peak
    memory proportional to the *compacted* representation.
    """
    from ..interp.interpreter import DEFAULT_MAX_EVENTS, run_program

    tracer = OnlinePartitioner()
    run_program(
        program,
        args=args,
        inputs=inputs,
        tracer=tracer,
        max_events=DEFAULT_MAX_EVENTS if max_events is None else max_events,
    )
    return tracer.finish()
