"""Static program representation (the IR substrate).

The paper traces SPECint95 binaries built with Trimaran; this package is
the reproduction's stand-in compiler IR: programs made of functions,
basic blocks, statements and terminators, plus the standard static
analyses (dominators, control dependence, reaching definitions) that the
dynamic applications in :mod:`repro.analysis` build on.
"""

from .builder import BlockBuilder, FunctionBuilder, ProgramBuilder
from .control_dependence import control_dependence
from .dataflow import (
    ReachingDefinitions,
    reaching_definitions,
)
from .dominators import (
    VIRTUAL_EXIT,
    function_postdominators,
    immediate_dominators,
)
from .expr import (
    BINARY_OPS,
    INTRINSICS,
    UNARY_OPS,
    BinOp,
    Const,
    Expr,
    Intrinsic,
    UnaryOp,
    Var,
    binop,
    coerce,
    const,
    intrinsic,
    var,
)
from .parser import ParseError, parse_program
from .module import (
    BasicBlock,
    Function,
    IRError,
    Program,
    verify_program,
)
from .printer import format_function, format_program
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

__all__ = [
    "BINARY_OPS",
    "INTRINSICS",
    "UNARY_OPS",
    "Assign",
    "BasicBlock",
    "BinOp",
    "BlockBuilder",
    "Breakpoint",
    "Call",
    "CondJump",
    "Const",
    "Expr",
    "Function",
    "FunctionBuilder",
    "IRError",
    "Intrinsic",
    "ParseError",
    "Jump",
    "Load",
    "Program",
    "ProgramBuilder",
    "Read",
    "ReachingDefinitions",
    "Return",
    "Stmt",
    "Store",
    "Switch",
    "Terminator",
    "UnaryOp",
    "VIRTUAL_EXIT",
    "Var",
    "Write",
    "binop",
    "coerce",
    "const",
    "control_dependence",
    "format_function",
    "format_program",
    "function_postdominators",
    "immediate_dominators",
    "intrinsic",
    "parse_program",
    "reaching_definitions",
    "var",
    "verify_program",
]
