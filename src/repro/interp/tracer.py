"""Trace sinks for the interpreter.

Both engines report a run to a tracer through three methods, matching
the structure of a whole program path:

* ``enter(func_name)`` -- a function activation begins;
* ``block_run(ids)``   -- the listed basic blocks of the current
  activation ran, in order;
* ``leave()``          -- the current activation returns.

``ids`` is a fresh, non-empty ``list`` of block ids that the engine
never touches again, so a tracer may keep it.  An engine hands its
pending ids over before every ``enter`` and ``leave``, whenever it holds
:data:`~repro.interp.interpreter.RUN_BUFFER_CAP` of them, and before an
exception leaves its ``run`` (a block past the event budget is never
traced, so after :class:`~repro.interp.errors.FuelExhausted` that last
hand-over is empty).  Both engines split a run into the same lists.

The real WPP collectors are :class:`~repro.trace.wpp.WppBuilder` and
:class:`~repro.trace.partition.OnlinePartitioner`; the tracers here are
the trivial sinks used by tests and by runs that do not need a trace.
"""

from __future__ import annotations

from typing import List, Tuple


class NullTracer:
    """Discards all events (run the program, keep no trace)."""

    def enter(self, func_name: str) -> None:
        pass

    def block_run(self, ids: List[int]) -> None:
        pass

    def leave(self) -> None:
        pass


class ListTracer:
    """Records events as a list of tuples -- convenient in tests.

    Events are ``("enter", name)``, ``("block", id)`` and ``("leave",)``.
    """

    def __init__(self) -> None:
        self.events: List[Tuple] = []

    def enter(self, func_name: str) -> None:
        self.events.append(("enter", func_name))

    def block_run(self, ids: List[int]) -> None:
        self.events.extend([("block", block_id) for block_id in ids])

    def leave(self) -> None:
        self.events.append(("leave",))


class CountingTracer:
    """Counts events without storing them (cheap sanity checks)."""

    def __init__(self) -> None:
        self.enters = 0
        self.blocks = 0
        self.leaves = 0

    def enter(self, func_name: str) -> None:
        self.enters += 1

    def block_run(self, ids: List[int]) -> None:
        self.blocks += len(ids)

    def leave(self) -> None:
        self.leaves += 1
