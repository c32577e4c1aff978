"""Trace sinks for the interpreter.

The interpreter reports three kinds of control-flow events, matching the
structure of a whole program path:

* ``enter(func_name)`` -- a function activation begins;
* ``block(block_id)``  -- a basic block of the current activation runs;
* ``leave()``          -- the current activation returns.

Any object with those three methods can be passed as a tracer.  The real
WPP collector lives in :mod:`repro.trace.wpp` (``WppBuilder``); the
tracers here are the trivial sinks used by tests and by runs that do not
need a trace.

Tracers may additionally implement the **batched protocol**::

    block_run(buf, n)   -- the next n entries of buf are BLOCK events

where ``buf`` is an ``array('q')`` run buffer owned by the interpreter
(valid only for the duration of the call -- copy, don't keep).  When a
tracer exposes ``block_run``, the interpreter accumulates straight-line
block ids and flushes them in one call per run instead of dispatching
one Python method call per block, which is what makes high-volume
ingestion cheap.  ``block`` remains the per-event compatibility path
for tracers that don't implement runs; the event order either way is
identical.

The compiled engine (:mod:`repro.interp.compile`) always buffers runs.
It feeds a tracer without ``block_run`` through :func:`per_event_runs`,
an adapter that makes one ``block`` call per buffered id.  Runs are
flushed before every ``enter``/``leave``, so the tracer sees the events
in the tree-walker's order; before an error other than
:class:`~repro.interp.errors.FuelExhausted` leaves the run, the pending
ids are delivered too, so a per-event stream ends where the
tree-walker's does.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple


def per_event_runs(tracer) -> Callable[[Sequence[int], int], None]:
    """A ``block_run`` for ``tracer`` that calls ``tracer.block`` once per
    id, in order."""
    block = tracer.block

    def block_run(buf: Sequence[int], n: int) -> None:
        for i in range(n):
            block(buf[i])

    return block_run


class NullTracer:
    """Discards all events (run the program, keep no trace)."""

    def enter(self, func_name: str) -> None:
        pass

    def block(self, block_id: int) -> None:
        pass

    def block_run(self, buf, n: int) -> None:
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

    def block(self, block_id: int) -> None:
        self.events.append(("block", block_id))

    def block_run(self, buf, n: int) -> None:
        self.events.extend(("block", buf[i]) for i in range(n))

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

    def block(self, block_id: int) -> None:
        self.blocks += 1

    def block_run(self, buf, n: int) -> None:
        self.blocks += n

    def leave(self) -> None:
        self.leaves += 1
