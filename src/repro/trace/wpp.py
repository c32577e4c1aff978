"""The whole program path (WPP) event model.

A WPP is the complete control-flow trace of one execution: for every
function activation, the sequence of basic blocks it ran, with nested
activations bracketed inline (paper, Figure 1).  Three event kinds
capture this:

* ``ENTER f`` -- an activation of function ``f`` begins,
* ``BLOCK b`` -- block ``b`` of the current activation executes,
* ``LEAVE``   -- the current activation returns.

In memory each event is packed into a single unsigned integer with the
kind in the low two bits, so a multi-million-event trace is one flat
``array('Q')`` rather than millions of tuples.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from ..interp.interpreter import RunResult

ENTER = 0
BLOCK = 1
LEAVE = 2

_KIND_MASK = 0x3


def pack_event(kind: int, arg: int = 0) -> int:
    """Pack (kind, arg) into one integer."""
    return (arg << 2) | kind


def unpack_event(packed: int) -> Tuple[int, int]:
    """Unpack one event integer into (kind, arg)."""
    return packed & _KIND_MASK, packed >> 2


@dataclass
class WppTrace:
    """An in-memory WPP: a function-name table plus a flat event stream.

    ``func_names[i]`` is the name of function index ``i``; ENTER events
    carry function indices, BLOCK events carry block ids.
    """

    func_names: List[str]
    events: array  # array('Q') of packed events
    #: The execution that recorded this trace; set by :func:`collect_wpp`,
    #: None for a trace read from a file or built otherwise.
    run: Optional[RunResult] = field(
        default=None, init=False, repr=False, compare=False
    )
    _name_index: Optional[Dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.events)

    def func_index(self, name: str) -> int:
        """Index of a function name (lazily built name->index map)."""
        index = self._name_index
        if index is None:
            index = {n: i for i, n in enumerate(self.func_names)}
            self._name_index = index
        try:
            return index[name]
        except KeyError:
            raise KeyError(f"function {name!r} not in trace") from None

    def iter_events(self) -> Iterator[Tuple[int, int]]:
        """Yield (kind, arg) pairs in execution order."""
        mask = _KIND_MASK
        for packed in self.events:
            yield packed & mask, packed >> 2

    def to_tuples(self) -> List[Tuple]:
        """Expand to human-readable tuples (tests and small traces only)."""
        out: List[Tuple] = []
        for kind, arg in self.iter_events():
            if kind == ENTER:
                out.append(("enter", self.func_names[arg]))
            elif kind == BLOCK:
                out.append(("block", arg))
            else:
                out.append(("leave",))
        return out

    def call_counts(self) -> Dict[str, int]:
        """Number of activations of each function in this WPP."""
        counts: Dict[str, int] = {name: 0 for name in self.func_names}
        for kind, arg in self.iter_events():
            if kind == ENTER:
                counts[self.func_names[arg]] += 1
        return counts

    def validate(self) -> None:
        """Check bracket balance: every LEAVE closes an ENTER, stream ends closed."""
        depth = 0
        for i, (kind, _arg) in enumerate(self.iter_events()):
            if kind == ENTER:
                depth += 1
            elif kind == LEAVE:
                depth -= 1
                if depth < 0:
                    raise ValueError(f"unbalanced LEAVE at event {i}")
            elif kind == BLOCK and depth == 0:
                raise ValueError(f"BLOCK outside any activation at event {i}")
        if depth != 0:
            raise ValueError(f"{depth} activations never closed")


class WppBuilder:
    """Interpreter tracer that accumulates a :class:`WppTrace`.

    Pass an instance as the ``tracer`` argument of
    :func:`repro.interp.run_program`, then call :meth:`finish`.
    """

    def __init__(self) -> None:
        self._func_names: List[str] = []
        self._func_index: Dict[str, int] = {}
        self._events = array("Q")

    def enter(self, func_name: str) -> None:
        idx = self._func_index.get(func_name)
        if idx is None:
            idx = len(self._func_names)
            self._func_index[func_name] = idx
            self._func_names.append(func_name)
        self._events.append(pack_event(ENTER, idx))

    def block_run(self, ids: Sequence[int]) -> None:
        """Append a run of BLOCK events, one per id, in order."""
        self._events.extend([(block_id << 2) | BLOCK for block_id in ids])

    def leave(self) -> None:
        self._events.append(pack_event(LEAVE))

    def finish(self) -> WppTrace:
        """Return the collected trace (builder may be reused afterwards)."""
        return WppTrace(func_names=list(self._func_names), events=self._events)


def trace_from_tuples(tuples: Iterable[Tuple]) -> WppTrace:
    """Build a WppTrace from ("enter", name)/("block", id)/("leave",) tuples.

    Test helper: lets expected traces be written out literally.
    """
    builder = WppBuilder()
    for item in tuples:
        if item[0] == "enter":
            builder.enter(item[1])
        elif item[0] == "block":
            builder.block_run([item[1]])
        elif item[0] == "leave":
            builder.leave()
        else:
            raise ValueError(f"unknown event tuple {item!r}")
    return builder.finish()


def collect_wpp(
    program, args=(), inputs=(), max_events=None, metrics=None
) -> WppTrace:
    """Run a program and return its WPP in one call (its ``run`` is the
    execution's :class:`~repro.interp.interpreter.RunResult`).

    ``metrics`` receives the ``interp.*`` counters; see
    :func:`repro.interp.run_program`.
    """
    from ..interp.interpreter import DEFAULT_MAX_EVENTS, run_program

    builder = WppBuilder()
    run = run_program(
        program,
        args=args,
        inputs=inputs,
        tracer=builder,
        max_events=DEFAULT_MAX_EVENTS if max_events is None else max_events,
        metrics=metrics,
    )
    wpp = builder.finish()
    wpp.run = run
    return wpp
