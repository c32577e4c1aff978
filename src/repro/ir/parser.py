"""A parser for the textual IR form emitted by :mod:`repro.ir.printer`.

``parse_program(format_program(p))`` reproduces ``p`` exactly, which
makes the textual form a real interchange format: programs can be
dumped, hand-edited and reloaded (the CLI's ``parse``/``trace`` path),
and the printer gets a precise round-trip test.

The grammar is what the printer produces:

* expressions are fully parenthesised, so no precedence is needed --
  ``(a + (b * 2))``, unary ``(-x)`` / ``(!x)``, intrinsics ``f1(x)``,
  integers (possibly negative), identifiers;
* one statement per line; block headers ``B<n>:``; ``//`` comments;
* functions as ``func name(params) entry=B<k> { ... }``.

Successive versions of one program mostly repeat their functions, so
:func:`parse_program` parses each distinct function text once per
process and shares the frozen result (see :data:`PARSE_CACHE_SIZE`).
"""

from __future__ import annotations

import re
import sys
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Union

from ..util.lru import lru_lookup
from .expr import BINARY_OPS, INTRINSICS, UNARY_OPS, BinOp, Const, Expr, Intrinsic, UnaryOp, Var
from .module import BasicBlock, Function, Program, verify_program
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


class ParseError(Exception):
    """Raised on malformed textual IR, with a line hint where possible."""


_TOKEN_RE = re.compile(
    r"""
    (?P<num>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9.]*)
  | (?P<op><<|>>|<=|>=|==|!=|//|[-+*%&|^<>!=])
  | (?P<punct>[(),\[\]{}:])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)
#: A token that ends an operand, so a "-" glued to the digits after it
#: is the binary operator, not a sign.
_OPERAND_RE = re.compile(r"-?\d+|[A-Za-z_][A-Za-z_0-9.]*")
_INT_RE = re.compile(r"-?\d+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_BLOCK_REF_RE = re.compile(r"B(\d+)")


def _tokenize(text: str, line_no: int) -> List[str]:
    tokens: List[str] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            pos = m.start()
            raise ParseError(
                f"line {line_no}: cannot tokenize at {text[pos:pos + 10]!r}"
            )
        value = m.group()
        # "-" directly attached to digits is a negative literal only
        # when it cannot be a binary operator: the tokenizer regex
        # already grabbed it greedily; split back if the previous token
        # is an operand (ident/num/")").
        if (
            kind == "num"
            and value.startswith("-")
            and tokens
            and (tokens[-1] == ")" or _OPERAND_RE.fullmatch(tokens[-1]))
        ):
            tokens.append("-")
            tokens.append(value[1:])
            continue
        tokens.append(value)
    return tokens


class _ExprParser:
    """Recursive-descent over the printer's fully parenthesised form.

    Every expression node comes from :func:`_shared`, so the parsed
    functions hold each distinct expression once however often it
    appears.
    """

    def __init__(self, tokens: List[str], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no

    def error(self, message: str) -> ParseError:
        return ParseError(f"line {self.line_no}: {message}")

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of line")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise self.error(f"expected {token!r}, got {got!r}")

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # -- expression grammar --------------------------------------------

    def parse_expr(self) -> Expr:
        token = self.next()
        if token == "(":
            return self._parse_parenthesised()
        if _INT_RE.fullmatch(token):
            value = int(token)
            return _shared((Const, value), Const, value)
        if _NAME_RE.fullmatch(token):
            if self.peek() == "(" and token in INTRINSICS:
                return self._parse_intrinsic(token)
            return _shared((Var, token), Var, token)
        raise self.error(f"unexpected token {token!r} in expression")

    def _parse_parenthesised(self) -> Expr:
        head = self.peek()
        if head in UNARY_OPS and head is not None:
            # Unary form "(-x)" / "(!x)": operator immediately after "(".
            # Disambiguate from a negative literal "( -3 + ...)" -- the
            # tokenizer never produces that (printer writes "(-3 + x)"
            # with -3 as one token), so an operator here is unary.
            op = self.next()
            operand = self.parse_expr()
            self.expect(")")
            return _shared((UnaryOp, op, id(operand)), UnaryOp, op, operand)
        left = self.parse_expr()
        op = self.next()
        if op not in BINARY_OPS:
            raise self.error(f"unknown binary operator {op!r}")
        right = self.parse_expr()
        self.expect(")")
        return _shared((BinOp, op, id(left), id(right)), BinOp, op, left, right)

    def _parse_intrinsic(self, name: str) -> Intrinsic:
        self.expect("(")
        args: List[Expr] = []
        if self.peek() != ")":
            args.append(self.parse_expr())
            while self.peek() == ",":
                self.next()
                args.append(self.parse_expr())
        self.expect(")")
        key = (Intrinsic, name, *map(id, args))
        return _shared(key, Intrinsic, name, tuple(args))


def _parse_block_ref(parser: _ExprParser) -> int:
    token = parser.next()
    m = _BLOCK_REF_RE.fullmatch(token)
    if not m:
        raise parser.error(f"expected a block reference, got {token!r}")
    return int(m.group(1))


def _parse_call(parser: _ExprParser, dest: Optional[str]) -> Call:
    callee = sys.intern(parser.next())
    parser.expect("(")
    args: List[Expr] = []
    if parser.peek() != ")":
        args.append(parser.parse_expr())
        while parser.peek() == ",":
            parser.next()
            args.append(parser.parse_expr())
    parser.expect(")")
    return Call(callee, tuple(args), dest)


def _parse_line(text: str, line_no: int) -> Union[Stmt, Terminator]:
    """Parse one statement or terminator line."""
    # Breakpoint names are free-form (may contain '-' etc.): take the
    # rest of the line verbatim rather than tokenizing it.
    if text.startswith("breakpoint"):
        name = text[len("breakpoint") :].strip()
        if not name:
            raise ParseError(f"line {line_no}: breakpoint needs a name")
        return Breakpoint(name)
    # ``text`` is stripped and not empty, so it has at least one token.
    tokens = _tokenize(text, line_no)
    parser = _ExprParser(tokens, line_no)
    head = parser.next()

    if head == "jump":
        target = _parse_block_ref(parser)
        parsed = _shared((Jump, target), Jump, target)
    elif head == "if":
        cond = parser.parse_expr()
        parser.expect("then")
        then_target = _parse_block_ref(parser)
        parser.expect("else")
        else_target = _parse_block_ref(parser)
        parsed = CondJump(cond, then_target, else_target)
    elif head == "switch":
        selector = parser.parse_expr()
        parser.expect("[")
        cases: List[int] = []
        while parser.peek() != "]":
            parser.next()  # case index (informational)
            parser.expect(":")
            cases.append(_parse_block_ref(parser))
            if parser.peek() == ",":
                parser.next()
        parser.expect("]")
        parser.expect("default")
        default = _parse_block_ref(parser)
        parsed = Switch(selector, tuple(cases), default)
    elif head == "return":
        value = None if parser.at_end() else parser.parse_expr()
        parsed = Return(value)
    elif head == "store":
        addr = parser.parse_expr()
        parser.expect("=")
        parsed = Store(addr, parser.parse_expr())
    elif head == "write":
        parsed = Write(parser.parse_expr())
    elif head == "breakpoint":
        parsed = Breakpoint(parser.next())
    elif head == "call":
        parsed = _parse_call(parser, dest=None)
    else:
        # "<dest> = <rhs>" forms.
        dest = sys.intern(head)
        parser.expect("=")
        nxt = parser.peek()
        if nxt == "read":
            parser.next()
            parser.expect("(")
            parser.expect(")")
            parsed = Read(dest)
        elif nxt == "load":
            parser.next()
            parsed = Load(dest, parser.parse_expr())
        elif nxt == "call":
            parser.next()
            parsed = _parse_call(parser, dest=dest)
        else:
            parsed = Assign(dest, parser.parse_expr())
    if not parser.at_end():
        raise parser.error(f"trailing tokens: {tokens[parser.pos:]}")
    return parsed


_FUNC_RE = re.compile(
    r"func\s+([A-Za-z_][A-Za-z_0-9]*)\s*\(([^)]*)\)\s*entry=B(\d+)\s*\{"
)
#: What every function header starts with; a line that does but fails
#: :data:`_FUNC_RE` is a malformed header, not a stray statement.
_FUNC_HEAD_RE = re.compile(r"func\s+[A-Za-z_][A-Za-z_0-9]*\s*\(")
_BLOCK_RE = re.compile(r"B(\d+):\s*$")
#: A block header, possibly followed by a label comment.
_BLOCK_HEAD_RE = re.compile(r"B\d+:")


#: Parsed functions the parse cache keeps.  One pass of the e2e ingest
#: programs (15 texts, 795 functions) has 275 distinct function texts;
#: the bound is about four times that.
PARSE_CACHE_SIZE = 1024
#: Shared nodes :data:`_nodes` holds before it starts over.  The e2e
#: ingest programs need about 400.
NODE_TABLE_SIZE = 1 << 16

_parse_lock = threading.Lock()
# A function's source lines, header through closing "}" joined by "\n"
# -> its parsed Function, least recently used first.
_parse_cache: "OrderedDict[str, Function]" = OrderedDict()
# The one node every parse shares, keyed by its kind and fields: Var
# and Const leaves by value, operators by the identities of their
# (already shared) operands, jumps by target.  An entry's node holds its
# operands, so their ids cannot be reused while the entry exists.
# Statements are never shared.  Only single dict operations touch the
# table, so it needs no lock: two threads may each make an equal node,
# and a clear only ends the sharing.
_nodes: Dict[tuple, object] = {}


def _shared(key: tuple, make: type, *fields):
    """The shared node for ``key``; ``make(*fields)`` on a miss."""
    node = _nodes.get(key)
    if node is None:
        if len(_nodes) >= NODE_TABLE_SIZE:
            _nodes.clear()
        node = _nodes[key] = make(*fields)
    return node


def parse_program(
    text: str,
    main: Optional[str] = None,
    verify: bool = True,
    metrics=None,
) -> Program:
    """Parse a whole textual program.

    ``main`` defaults to a function named ``main`` when present,
    otherwise the first function.

    Each function is looked up in a bounded, thread-safe LRU keyed by
    its exact source lines, from its ``func`` header through its closing
    ``}`` (:data:`PARSE_CACHE_SIZE` functions).  A hit skips the span
    and shares the frozen :class:`~repro.ir.module.Function` with every
    program that holds it; only functions that parsed are stored, and a
    function's parse depends on its lines alone, so line numbers and
    every :class:`ParseError` are those of a parse without the cache.
    The program-level checks (``duplicate function``,
    :func:`~repro.ir.module.verify_program`) run on every call.  With a
    metrics registry, ``ir.parse.hits`` and ``ir.parse.misses`` count
    the function texts found in and added to the cache.
    """
    program = Program(main="__pending__")
    lines = text.splitlines()
    stripped = [raw.strip() for raw in lines]
    hits = misses = 0
    i = 0
    while i < len(lines):
        line = stripped[i]
        if not line or line.startswith("//"):
            i += 1
            continue
        if not _FUNC_RE.match(line):
            if _FUNC_HEAD_RE.match(line):
                raise ParseError(
                    f"line {i + 1}: malformed function header: {line!r}"
                )
            if line == "}":
                raise ParseError(f"line {i + 1}: stray '}}'")
            raise ParseError(f"line {i + 1}: statement outside a function")
        try:
            close = stripped.index("}", i + 1)
        except ValueError:
            close = len(lines)  # no closing line: the parse raises
        func, missed = lru_lookup(
            _parse_cache,
            _parse_lock,
            PARSE_CACHE_SIZE,
            "\n".join(lines[i : close + 1]),
            lambda: _parse_function(stripped, i, close),
        )
        misses += missed
        hits += not missed
        program.add(func)
        i = close + 1

    if metrics is not None:
        if hits:
            metrics.inc("ir.parse.hits", hits)
        if misses:
            metrics.inc("ir.parse.misses", misses)
    if not program.functions:
        raise ParseError("no functions found")

    if main is not None:
        program.main = main
    elif "main" in program.functions:
        program.main = "main"
    else:
        program.main = next(iter(program.functions))

    if verify:
        verify_program(program)
    return program


def _parse_function(stripped: List[str], start: int, close: int) -> Function:
    """Parse the function whose header is ``stripped[start]`` and whose
    closing ``}`` is ``stripped[close]`` (``len(stripped)`` if none)."""
    name, params_text, entry = _FUNC_RE.match(stripped[start]).groups()
    params = tuple(p.strip() for p in params_text.split(",") if p.strip())
    blocks: Dict[int, BasicBlock] = {}
    block_id: Optional[int] = None
    statements: List[Stmt] = []
    terminator: Optional[Terminator] = None
    for index in range(start + 1, close):
        line = stripped[index]
        line_no = index + 1
        # "//" is also the floor-division operator, so comments are only
        # recognised where the printer emits them: whole-line comments
        # and trailing label comments on block-header lines.
        if line.startswith("//"):
            continue
        if _BLOCK_HEAD_RE.match(line):
            line = line.split("//", 1)[0].strip()
        if not line:
            continue
        if _FUNC_RE.match(line):
            raise ParseError(f"line {line_no}: nested function")
        if _FUNC_HEAD_RE.match(line):
            raise ParseError(
                f"line {line_no}: malformed function header: {line!r}"
            )
        m = _BLOCK_RE.match(line)
        if m:
            if block_id is not None:
                blocks[block_id] = BasicBlock(block_id, tuple(statements), terminator)
            block_id = int(m.group(1))
            if block_id in blocks:
                raise ParseError(f"line {line_no}: duplicate block B{block_id}")
            statements = []
            terminator = None
            continue
        if block_id is None:
            raise ParseError(f"line {line_no}: statement outside a block")
        if terminator is not None:
            raise ParseError(
                f"line {line_no}: statement after terminator in B{block_id}"
            )
        parsed = _parse_line(line, line_no)
        if isinstance(parsed, Terminator):
            terminator = parsed
        else:
            statements.append(parsed)
    if close == len(stripped):
        raise ParseError("unterminated function (missing '}')")
    if block_id is not None:
        blocks[block_id] = BasicBlock(block_id, tuple(statements), terminator)
    return Function(name, params, blocks, int(entry))
