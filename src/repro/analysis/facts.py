"""Data-flow facts for GEN-KILL problems.

A fact is a predicate over program state whose truth a statement can
*generate* or *kill*; profile-limited analysis asks at which trace
positions a fact holds (Section 4).  Facts here are deliberately
statement-syntactic -- GEN/KILL is decided by looking at one statement
-- which is all the paper's applications need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..ir.expr import Const
from ..ir.stmt import Assign, Load, Stmt, Store

#: Effect labels used throughout the analysis package.
GEN = "gen"
KILL = "kill"
TRANSPARENT = "transparent"


class Fact:
    """Base class: a GEN-KILL data-flow fact.

    ``crosses_calls`` says whether a callee can change the fact.  Most
    facts range over a frame's own variables, which a call changes only
    through its ``dest`` -- :meth:`gens`/:meth:`kills` of the call
    statement itself; memory facts set it true, and the call-aware
    analysis then resolves each call to its callee's net effect.
    """

    crosses_calls = False

    def gens(self, stmt: Stmt) -> bool:
        """Does executing ``stmt`` make the fact true?"""
        raise NotImplementedError

    def kills(self, stmt: Stmt) -> bool:
        """Does executing ``stmt`` make the fact false?"""
        raise NotImplementedError


@dataclass(frozen=True)
class LoadAvailable(Fact):
    """"The value of MEM[addr] is available in a register."

    Generated by a load from the (constant) address; killed by any store
    that may write it -- a store to the same constant address, or any
    store with a non-constant address (conservative).  This is the fact
    behind the paper's dynamic load-redundancy example (Figure 9): a
    later load is redundant at exactly the instances where the fact
    holds on entry.
    """

    addr: int
    crosses_calls = True

    def gens(self, stmt: Stmt) -> bool:
        return (
            isinstance(stmt, Load)
            and isinstance(stmt.addr, Const)
            and stmt.addr.value == self.addr
        )

    def kills(self, stmt: Stmt) -> bool:
        if not isinstance(stmt, Store):
            return False
        if isinstance(stmt.addr, Const):
            return stmt.addr.value == self.addr
        return True  # unknown address may alias


@dataclass(frozen=True)
class ExpressionAvailable(Fact):
    """"The value of an expression over ``operands`` is available."

    Generated by any assignment whose right-hand side mentions exactly
    the tracked operand set and whose destination is not an operand
    (recomputing the expression); killed by any statement defining one
    of the operands.  This is the availability fact behind partial
    redundancy elimination, the paper's other profile-guided
    optimization citation (Bodik-Gupta-Soffa, Gupta-Berson-Fang).
    """

    operands: tuple  # sorted tuple of variable names

    def gens(self, stmt: Stmt) -> bool:
        if not isinstance(stmt, Assign):
            return False
        if stmt.dest in self.operands:
            return False
        return tuple(sorted(stmt.expr.variables())) == self.operands

    def kills(self, stmt: Stmt) -> bool:
        return any(v in stmt.defs() for v in self.operands)


@dataclass(frozen=True)
class VarHasDefinition(Fact):
    """"Variable ``name`` has been assigned" (a reachability-style fact).

    Generated by any statement defining the variable; never killed.
    Useful for liveness/defined-before-use style queries over traces.
    """

    name: str

    def gens(self, stmt: Stmt) -> bool:
        return self.name in stmt.defs()

    def kills(self, stmt: Stmt) -> bool:
        return False


def classify_statements(statements: Sequence[Stmt], fact: Fact) -> str:
    """Net effect of a straight-line statement sequence on ``fact``.

    Scanning *backward*, the first decisive statement wins (the last
    writer in execution order).  Returns :data:`GEN`, :data:`KILL` or
    :data:`TRANSPARENT`.  A call counts only through its own ``dest``,
    never through what the callee did, so this is exact when the fact
    does not cross calls (``fact.crosses_calls`` false) or the sequence
    is call-free; :class:`repro.analysis.interproc.CallEffects` resolves
    callees for the rest.
    """
    for stmt in reversed(list(statements)):
        if fact.gens(stmt):
            return GEN
        if fact.kills(stmt):
            return KILL
    return TRANSPARENT


def fact_to_spec(fact: Fact) -> "str | None":
    """The :func:`parse_fact` spelling of a fact, or ``None``.

    Only facts that survive a parse round-trip get a spelling --
    :func:`~repro.analysis.frequency.fact_frequencies_many` uses this
    to decide whether a batch may leave the process (a caller's own
    :class:`Fact` subclass, which may not pickle, and any fact whose
    arguments collide with the spec syntax stay serial).
    """
    if isinstance(fact, LoadAvailable):
        spec = f"load:{fact.addr}"
    elif isinstance(fact, ExpressionAvailable):
        spec = "expr:" + ",".join(fact.operands)
    elif isinstance(fact, VarHasDefinition):
        spec = f"def:{fact.name}"
    else:
        return None
    try:
        if parse_fact(spec) != fact:
            return None
    except ValueError:
        return None
    return spec


def parse_fact(spec: str) -> Fact:
    """Build a fact from a CLI-style spec string.

    Three picklable fact families are addressable by name:

    * ``load:ADDR`` -> :class:`LoadAvailable` at the constant address;
    * ``expr:a,b`` -> :class:`ExpressionAvailable` over the operands;
    * ``def:x`` -> :class:`VarHasDefinition` for the variable.
    """
    kind, sep, arg = spec.partition(":")
    if not sep or not arg:
        raise ValueError(
            f"fact spec {spec!r} is not of the form kind:arg "
            "(load:ADDR, expr:a,b or def:x)"
        )
    if kind == "load":
        try:
            addr = int(arg, 0)
        except ValueError:
            raise ValueError(f"load fact needs an integer address: {spec!r}")
        return LoadAvailable(addr)
    if kind == "expr":
        operands = tuple(sorted(v.strip() for v in arg.split(",") if v.strip()))
        if not operands:
            raise ValueError(f"expr fact needs at least one operand: {spec!r}")
        return ExpressionAvailable(operands)
    if kind == "def":
        return VarHasDefinition(arg.strip())
    raise ValueError(
        f"unknown fact kind {kind!r} (expected load, expr or def)"
    )
