"""Basic blocks, functions and programs.

This is the static program representation whose executions produce whole
program paths.  Block ids are small integers unique *within* a function
(the paper numbers blocks per function, e.g. ``f``'s blocks 1..10 in
Figure 1); functions are identified by name.

:class:`BasicBlock` and :class:`Function` are frozen once built: a
block's statements are a tuple and a function's block map is read-only.
The parser and the builders collect the parts and construct each object
once, so one parsed function can be shared by every :class:`Program`
that contains it (:mod:`repro.ir.parser` keeps a cache of them).  A
:class:`Program` is a per-parse container: its function map and ``main``
may be changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

from .expr import Expr, slotted
from .stmt import Call, Stmt, Terminator


class IRError(Exception):
    """Raised for structurally invalid IR."""


@slotted
@dataclass(frozen=True)
class BasicBlock:
    """A straight-line sequence of statements ending in one terminator."""

    block_id: int
    statements: Tuple[Stmt, ...] = ()
    terminator: Optional[Terminator] = None
    label: str = ""

    def __post_init__(self) -> None:
        if type(self.statements) is not tuple:
            object.__setattr__(self, "statements", tuple(self.statements))

    def successors(self) -> Tuple[int, ...]:
        """Static successor block ids (empty for returning blocks)."""
        if self.terminator is None:
            raise IRError(f"block B{self.block_id} has no terminator")
        return self.terminator.targets()

    def calls(self) -> List[Call]:
        """The call statements in this block, in execution order.

        WPP reconstruction walks these: the k-th call executed by an
        activation matches the k-th child of its dynamic call graph node.
        """
        return [s for s in self.statements if isinstance(s, Call)]

    def defs(self) -> FrozenSet[str]:
        """Union of variables defined by statements in this block."""
        out: FrozenSet[str] = frozenset()
        for stmt in self.statements:
            out |= stmt.defs()
        return out

    def uses(self) -> FrozenSet[str]:
        """Union of variables used by statements and the terminator."""
        out: FrozenSet[str] = frozenset()
        for stmt in self.statements:
            out |= stmt.uses()
        if self.terminator is not None:
            out |= self.terminator.uses()
        return out

    def upward_exposed_uses(self) -> FrozenSet[str]:
        """Variables read before any write within this block.

        This is the block-local "use" set for live-variable style
        problems; slicing at block granularity relies on it.
        """
        exposed: set = set()
        defined: set = set()
        for stmt in self.statements:
            exposed.update(v for v in stmt.uses() if v not in defined)
            defined.update(stmt.defs())
        if self.terminator is not None:
            exposed.update(v for v in self.terminator.uses() if v not in defined)
        return frozenset(exposed)

    def __str__(self) -> str:
        header = f"B{self.block_id}" + (f" ({self.label})" if self.label else "")
        lines = [header + ":"]
        lines.extend(f"  {s}" for s in self.statements)
        lines.append(f"  {self.terminator}")
        return "\n".join(lines)


@slotted
@dataclass(frozen=True)
class Function:
    """A named function: parameters plus a CFG of basic blocks.

    ``blocks`` is a read-only view of a private copy of the mapping
    given to the constructor.
    """

    name: str
    params: Tuple[str, ...] = ()
    blocks: Mapping[int, BasicBlock] = field(default_factory=dict)
    entry: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "blocks", MappingProxyType(dict(self.blocks)))

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from a plain dict.
        return (type(self), (self.name, self.params, dict(self.blocks), self.entry))

    def block(self, block_id: int) -> BasicBlock:
        """Return the block with the given id, raising :class:`IRError` if absent."""
        try:
            return self.blocks[block_id]
        except KeyError:
            raise IRError(f"{self.name}: no block B{block_id}") from None

    def block_ids(self) -> List[int]:
        """All block ids in ascending order."""
        return sorted(self.blocks)

    def successors(self, block_id: int) -> Tuple[int, ...]:
        return self.block(block_id).successors()

    def predecessors(self) -> Dict[int, List[int]]:
        """Map each block id to its static predecessors (sorted)."""
        preds: Dict[int, List[int]] = {b: [] for b in self.blocks}
        for bid in self.block_ids():
            for succ in self.successors(bid):
                if succ not in preds:
                    raise IRError(
                        f"{self.name}: B{bid} targets missing block B{succ}"
                    )
                preds[succ].append(bid)
        for lst in preds.values():
            lst.sort()
        return preds

    def exit_blocks(self) -> List[int]:
        """Blocks whose terminator is a return."""
        return [b for b in self.block_ids() if not self.successors(b)]

    def edges(self) -> List[Tuple[int, int]]:
        """All static CFG edges as (src, dst) pairs, sorted."""
        out = []
        for bid in self.block_ids():
            for succ in self.successors(bid):
                out.append((bid, succ))
        out.sort()
        return out

    def callees(self) -> FrozenSet[str]:
        """Names of all functions this function may call."""
        names = set()
        for block in self.blocks.values():
            for call in block.calls():
                names.add(call.callee)
        return frozenset(names)

    def __str__(self) -> str:
        header = f"func {self.name}({', '.join(self.params)}) entry=B{self.entry}"
        parts = [header]
        parts.extend(str(self.blocks[b]) for b in self.block_ids())
        return "\n".join(parts)


@dataclass
class Program:
    """A whole program: a set of functions and a designated main."""

    functions: Dict[str, Function] = field(default_factory=dict)
    main: str = "main"

    def function(self, name: str) -> Function:
        """Return a function by name, raising :class:`IRError` if absent."""
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function named {name!r}") from None

    def add(self, func: Function) -> None:
        """Insert a function, rejecting duplicate names."""
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func

    def function_names(self) -> List[str]:
        """All function names in definition order."""
        return list(self.functions)

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __str__(self) -> str:
        return "\n\n".join(str(f) for f in self.functions.values())


def verify_program(program: Program) -> None:
    """Check structural invariants; raise :class:`IRError` on violation.

    Verified properties:

    * a main function exists;
    * every block has a terminator and all branch targets exist;
    * each function's entry block exists;
    * every called function exists and is called with the right arity;
    * block ids are positive (the compacted trace encoding reserves
      non-positive values for series boundaries);
    * all blocks are reachable from the entry (unreachable blocks would
      silently never appear in any WPP, which usually indicates a
      builder bug in workload generation).
    """
    if program.main not in program.functions:
        raise IRError(f"program has no main function {program.main!r}")
    for func in program:
        if func.entry not in func.blocks:
            raise IRError(f"{func.name}: entry B{func.entry} does not exist")
        if len(set(func.params)) != len(func.params):
            raise IRError(f"{func.name}: duplicate parameter names")
        for bid, block in func.blocks.items():
            if bid != block.block_id:
                raise IRError(
                    f"{func.name}: block keyed B{bid} has id B{block.block_id}"
                )
            if bid <= 0:
                raise IRError(f"{func.name}: block id B{bid} must be positive")
            if block.terminator is None:
                raise IRError(f"{func.name}: B{bid} lacks a terminator")
            for target in block.successors():
                if target not in func.blocks:
                    raise IRError(
                        f"{func.name}: B{bid} branches to missing B{target}"
                    )
            for call in block.calls():
                callee = program.functions.get(call.callee)
                if callee is None:
                    raise IRError(
                        f"{func.name}: B{bid} calls unknown function "
                        f"{call.callee!r}"
                    )
                if len(call.args) != len(callee.params):
                    raise IRError(
                        f"{func.name}: B{bid} calls {call.callee} with "
                        f"{len(call.args)} args, expected {len(callee.params)}"
                    )
        unreachable = set(func.blocks) - _reachable(func)
        if unreachable:
            pretty = ", ".join(f"B{b}" for b in sorted(unreachable))
            raise IRError(f"{func.name}: unreachable blocks {pretty}")


def _reachable(func: Function) -> set:
    seen = {func.entry}
    stack = [func.entry]
    while stack:
        bid = stack.pop()
        for succ in func.block(bid).successors():
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def call_graph(program: Program) -> Dict[str, FrozenSet[str]]:
    """Static call graph: function name -> callee names."""
    return {func.name: func.callees() for func in program}


def iter_statements(func: Function) -> Iterable[Tuple[int, int, Stmt]]:
    """Yield (block_id, index, statement) over a function in block order."""
    for bid in func.block_ids():
        for idx, stmt in enumerate(func.blocks[bid].statements):
            yield bid, idx, stmt
