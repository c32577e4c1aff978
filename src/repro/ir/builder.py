"""Fluent builders for constructing IR programs.

The builders keep workload construction readable::

    pb = ProgramBuilder()
    f = pb.function("main")
    b1 = f.block()          # B1
    b2 = f.block()          # B2
    b1.assign("i", 0).jump(b2)
    b2.ret()
    program = pb.build()    # verified Program

Blocks are numbered in creation order starting at 1, matching the
per-function numbering used throughout the paper's figures.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .expr import Expr, coerce
from .module import BasicBlock, Function, IRError, Program, verify_program
from .stmt import (
    Assign,
    Breakpoint,
    Call,
    CondJump,
    Jump,
    Load,
    Read,
    Return,
    Stmt,
    Store,
    Switch,
    Terminator,
    Write,
)

ExprLike = Union[Expr, int, str]


class BlockBuilder:
    """Builds one basic block; statement methods chain, terminator methods end.

    The block's parts are collected here; :meth:`FunctionBuilder.build`
    constructs the frozen :class:`~repro.ir.module.BasicBlock`.
    """

    __slots__ = ("_block_id", "_label", "_statements", "_terminator")

    def __init__(self, block_id: int, label: str = ""):
        self._block_id = block_id
        self._label = label
        self._statements: List[Stmt] = []
        self._terminator: Optional[Terminator] = None

    @property
    def block_id(self) -> int:
        """The id this block will have in the built function."""
        return self._block_id

    def build(self) -> BasicBlock:
        """The frozen block as collected so far."""
        return BasicBlock(
            self._block_id, tuple(self._statements), self._terminator, self._label
        )

    def _require_open(self) -> None:
        if self._terminator is not None:
            raise IRError(
                f"B{self._block_id} already terminated; "
                "cannot append more statements"
            )

    # ---- statements ------------------------------------------------------

    def assign(self, dest: str, expr: ExprLike) -> "BlockBuilder":
        """Append ``dest = expr``."""
        self._require_open()
        self._statements.append(Assign(dest, coerce(expr)))
        return self

    def read(self, dest: str) -> "BlockBuilder":
        """Append ``dest = read()``."""
        self._require_open()
        self._statements.append(Read(dest))
        return self

    def load(self, dest: str, addr: ExprLike) -> "BlockBuilder":
        """Append ``dest = load addr``."""
        self._require_open()
        self._statements.append(Load(dest, coerce(addr)))
        return self

    def store(self, addr: ExprLike, value: ExprLike) -> "BlockBuilder":
        """Append ``store addr = value``."""
        self._require_open()
        self._statements.append(Store(coerce(addr), coerce(value)))
        return self

    def call(
        self,
        callee: str,
        args: Sequence[ExprLike] = (),
        dest: Optional[str] = None,
    ) -> "BlockBuilder":
        """Append a call statement."""
        self._require_open()
        self._statements.append(
            Call(callee, tuple(coerce(a) for a in args), dest)
        )
        return self

    def write(self, expr: ExprLike) -> "BlockBuilder":
        """Append ``write expr``."""
        self._require_open()
        self._statements.append(Write(coerce(expr)))
        return self

    def breakpoint(self, name: str = "bp") -> "BlockBuilder":
        """Append a named breakpoint marker."""
        self._require_open()
        self._statements.append(Breakpoint(name))
        return self

    # ---- terminators -----------------------------------------------------

    def jump(self, target: "BlockBuilder | int") -> None:
        """Terminate with an unconditional jump."""
        self._require_open()
        self._terminator = Jump(_block_id(target))

    def branch(
        self,
        cond: ExprLike,
        then_target: "BlockBuilder | int",
        else_target: "BlockBuilder | int",
    ) -> None:
        """Terminate with a conditional branch."""
        self._require_open()
        self._terminator = CondJump(
            coerce(cond), _block_id(then_target), _block_id(else_target)
        )

    def switch(
        self,
        selector: ExprLike,
        cases: Sequence["BlockBuilder | int"],
        default: "BlockBuilder | int",
    ) -> None:
        """Terminate with an N-way switch."""
        self._require_open()
        self._terminator = Switch(
            coerce(selector),
            tuple(_block_id(c) for c in cases),
            _block_id(default),
        )

    def ret(self, value: Optional[ExprLike] = None) -> None:
        """Terminate with a return."""
        self._require_open()
        self._terminator = Return(None if value is None else coerce(value))


def _block_id(target: "BlockBuilder | int") -> int:
    if isinstance(target, BlockBuilder):
        return target.block_id
    return int(target)


class FunctionBuilder:
    """Builds one function; create blocks, fill them, then the program builder assembles."""

    def __init__(self, name: str, params: Sequence[str] = ()):
        self.name = name
        self.params = tuple(params)
        self._blocks: List[BlockBuilder] = []
        self._entry: Optional[int] = None

    def block(self, label: str = "") -> BlockBuilder:
        """Create the next basic block (ids are 1, 2, 3, ... in creation order)."""
        block = BlockBuilder(len(self._blocks) + 1, label)
        self._blocks.append(block)
        return block

    def set_entry(self, target: "BlockBuilder | int") -> None:
        """Override the entry block (defaults to the first created block)."""
        self._entry = _block_id(target)

    def build(self) -> Function:
        """Assemble the function (no program-level checks)."""
        if not self._blocks:
            raise IRError(f"{self.name}: function has no blocks")
        blocks = {b.block_id: b.build() for b in self._blocks}
        entry = self._entry if self._entry is not None else self._blocks[0].block_id
        return Function(self.name, self.params, blocks, entry)


class ProgramBuilder:
    """Builds a whole program out of function builders."""

    def __init__(self, main: str = "main"):
        self.main = main
        self._functions: List[FunctionBuilder] = []

    def function(self, name: str, params: Sequence[str] = ()) -> FunctionBuilder:
        """Create a function builder registered with this program."""
        fb = FunctionBuilder(name, params)
        self._functions.append(fb)
        return fb

    def build(self, verify: bool = True) -> Program:
        """Assemble and (by default) verify the program."""
        program = Program(main=self.main)
        for fb in self._functions:
            program.add(fb.build())
        if verify:
            verify_program(program)
        return program
