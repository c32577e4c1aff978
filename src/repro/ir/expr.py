"""Expression trees for the repro IR.

Expressions are small, immutable, side-effect free value computations.
They appear inside statements (:mod:`repro.ir.stmt`) and terminators and
are evaluated by the interpreter (:mod:`repro.interp.interpreter`).

The expression language is intentionally tiny -- integers only -- because
the paper's algorithms consume *control-flow traces*; the value language
exists solely so synthetic workloads can steer control flow
deterministically and so the data-flow applications (Section 4 of the
paper) have defs/uses to reason about.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, FrozenSet, Sequence, Tuple


def slotted(cls):
    """Rebuild a dataclass with ``__slots__`` for its fields.

    ``dataclass(slots=True)`` needs Python 3.10; this does the same on
    3.9.  A program held parsed keeps one node per expression and
    statement, and a per-instance ``__dict__`` would roughly double its
    size.  Field defaults live in the generated ``__init__``, so they
    leave the class body without changing construction.  The class
    gets a ``__getstate__``/``__setstate__`` pair that bypasses a
    frozen ``__setattr__``, so instances pickle under every protocol
    (the analysis process pool ships parsed functions).
    """
    names = tuple(f.name for f in fields(cls))
    body = dict(cls.__dict__)
    for name in names:
        body.pop(name, None)
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body["__slots__"] = names
    body["__getstate__"] = _slotted_getstate
    body["__setstate__"] = _slotted_setstate
    new = type(cls)(cls.__name__, cls.__bases__, body)
    new.__qualname__ = cls.__qualname__
    return new


def _slotted_getstate(self) -> tuple:
    return tuple(getattr(self, f.name) for f in fields(self))


def _slotted_setstate(self, state: tuple) -> None:
    for f, value in zip(fields(self), state):
        object.__setattr__(self, f.name, value)


class Expr:
    """Base class for all expressions.

    Subclasses are frozen dataclasses; expressions compare by structure
    and are hashable, which the workload generator relies on for
    common-subexpression bookkeeping.
    """

    __slots__ = ()

    def variables(self) -> FrozenSet[str]:
        """Return the set of variable names read by this expression."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Return direct sub-expressions (empty for leaves)."""
        raise NotImplementedError


@slotted
@dataclass(frozen=True)
class Const(Expr):
    """An integer literal."""

    value: int

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def __str__(self) -> str:
        return str(self.value)


@slotted
@dataclass(frozen=True)
class Var(Expr):
    """A read of a local variable."""

    name: str

    def variables(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def __str__(self) -> str:
        return self.name


#: Binary operators understood by the interpreter.  Comparison operators
#: evaluate to 0/1 so the IR needs no separate boolean type.
BINARY_OPS: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: _checked_div(a, b),
    "%": lambda a, b: _checked_mod(a, b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    ">>": lambda a, b: a >> b,
    "<<": lambda a, b: _checked_lshift(a, b),
}

UNARY_OPS: Dict[str, Callable[[int], int]] = {
    "-": lambda a: -a,
    "!": lambda a: int(a == 0),
}


#: Binary operators whose native Python operator has *exactly* the
#: semantics of its :data:`BINARY_OPS` entry on arbitrary ints -- same
#: result, same exception type and message -- so the compiled engine
#: (:mod:`repro.interp.compile`) may emit them as plain bytecode.
PY_NATIVE_BINOPS = frozenset({"+", "-", "*", "&", "|", "^", ">>"})

#: Comparison operators: natively emittable too, but their
#: :data:`BINARY_OPS` entries coerce to int, so value-context emission
#: wraps them in ``int(...)`` (branch conditions skip the wrap).
PY_COMPARISON_BINOPS = frozenset({"<", "<=", ">", ">=", "==", "!="})


def _checked_div(a: int, b: int) -> int:
    if b == 0:
        # Imported here: repro.interp imports this module.
        from ..interp.errors import DivisionByZero

        raise DivisionByZero("IR integer division by zero")
    return a // b


def _checked_mod(a: int, b: int) -> int:
    if b == 0:
        from ..interp.errors import DivisionByZero

        raise DivisionByZero("IR integer modulo by zero")
    return a % b


#: Largest count an IR left shift accepts.  IR integers are unbounded,
#: so ``x << n`` holds at least ``n`` bits; a larger count is the traced
#: program's fault (:class:`~repro.interp.errors.ShiftTooLarge`), not a
#: reason to exhaust the tracer's memory.
MAX_SHIFT = 1 << 16


def _checked_lshift(a: int, b: int) -> int:
    if b > MAX_SHIFT:
        from ..interp.errors import ShiftTooLarge

        raise ShiftTooLarge(f"IR left shift count {b} exceeds {MAX_SHIFT}")
    return a << b


#: Binary operators whose :data:`BINARY_OPS` entry checks its right
#: operand first, each with that checked helper.  The compiled engine
#: emits the native operator when the right operand is a constant that
#: :func:`native_when` accepts, and calls the helper otherwise.
CHECKED_BINOPS: Dict[str, Callable[[int, int], int]] = {
    "//": _checked_div,
    "%": _checked_mod,
    "<<": _checked_lshift,
}


def native_when(op: str, right: int) -> bool:
    """Whether the native ``op`` with the constant right operand
    ``right`` behaves exactly like its :data:`CHECKED_BINOPS` helper."""
    if op == "<<":
        return right <= MAX_SHIFT
    return right != 0


@slotted
@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation ``left op right``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@slotted
@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operation ``op operand``."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


#: Pure intrinsic functions usable in expressions, each defined once as a
#: Python expression template over its named parameters.  The paper's
#: examples use opaque functions f1/f2/f3 (Figure 10); we give them
#: concrete, deterministic integer definitions so traces are
#: reproducible.  :data:`INTRINSICS` (the tree-walker's callables) and
#: the compiled engine's inline form are both built from these templates
#: by :func:`expand_intrinsic`.  A template may use a parameter more than
#: once, so only side-effect-free atoms (names, literals) are substituted
#: into one; no template applies ``**``, a subscript or an attribute to a
#: parameter, so a negative literal substitutes without parentheses.
INTRINSIC_TEMPLATES: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "f1": (("x",), "2 * {x} + 1"),
    "f2": (("x",), "3 * {x} - 1"),
    "f3": (("x",), "{x} * {x} + {x}"),
    "abs": (("x",), "abs({x})"),
    "min": (("a", "b"), "min({a}, {b})"),
    "max": (("a", "b"), "max({a}, {b})"),
    # Linear congruential step used by synthetic workloads to evolve
    # their path-selector state entirely inside the IR.
    "lcg": (("x",), "({x} * 1103515245 + 12345) % 2147483648"),
}


def expand_intrinsic(name: str, args: Sequence[str]) -> str:
    """Intrinsic ``name`` as one parenthesized Python expression over the
    atom expressions ``args``, one per parameter."""
    params, template = INTRINSIC_TEMPLATES[name]
    return "(" + template.format(**dict(zip(params, args))) + ")"


def _intrinsic_function(name: str) -> Callable[..., int]:
    params = INTRINSIC_TEMPLATES[name][0]
    return eval(f"lambda {', '.join(params)}: {expand_intrinsic(name, params)}", {})


INTRINSICS: Dict[str, Callable[..., int]] = {
    name: _intrinsic_function(name) for name in INTRINSIC_TEMPLATES
}


@slotted
@dataclass(frozen=True)
class Intrinsic(Expr):
    """A call to a pure, built-in integer function.

    Unlike :class:`repro.ir.stmt.Call`, an intrinsic never transfers
    control to IR code and therefore never appears in the WPP.
    """

    name: str
    args: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.name not in INTRINSICS:
            raise ValueError(f"unknown intrinsic {self.name!r}")

    def variables(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def const(value: int) -> Const:
    """Shorthand constructor for :class:`Const`."""
    return Const(value)


def var(name: str) -> Var:
    """Shorthand constructor for :class:`Var`."""
    return Var(name)


def binop(op: str, left: "Expr | int | str", right: "Expr | int | str") -> BinOp:
    """Shorthand constructor for :class:`BinOp` with auto-coercion.

    Plain ints become :class:`Const` and plain strings become
    :class:`Var`, which keeps builder code readable::

        binop("+", "i", 1)     # i + 1
    """
    return BinOp(op, coerce(left), coerce(right))


def intrinsic(name: str, *args: "Expr | int | str") -> Intrinsic:
    """Shorthand constructor for :class:`Intrinsic` with auto-coercion."""
    return Intrinsic(name, tuple(coerce(a) for a in args))


def coerce(value: "Expr | int | str") -> Expr:
    """Coerce ``value`` into an expression.

    ints become :class:`Const`, strs become :class:`Var`, and existing
    expressions pass through unchanged.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):  # bool is an int subclass; normalize
        return Const(int(value))
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, str):
        return Var(value)
    raise TypeError(f"cannot coerce {value!r} to an expression")
