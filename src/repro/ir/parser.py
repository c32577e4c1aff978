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
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .expr import BINARY_OPS, INTRINSICS, UNARY_OPS, BinOp, Const, Expr, Intrinsic, UnaryOp, Var
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
    Store,
    Switch,
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
    """,
    re.VERBOSE,
)


def _tokenize(text: str, line_no: int) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"line {line_no}: cannot tokenize at {text[pos:pos + 10]!r}"
            )
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "num":
            # "-" directly attached to digits is a negative literal only
            # when it cannot be a binary operator: the tokenizer regex
            # already grabbed it greedily; split back if the previous
            # token is an operand (ident/num/")").
            value = m.group()
            if (
                value.startswith("-")
                and tokens
                and (
                    tokens[-1] == ")"
                    or re.fullmatch(r"-?\d+|[A-Za-z_][A-Za-z_0-9.]*", tokens[-1])
                )
            ):
                tokens.append("-")
                tokens.append(value[1:])
                continue
        tokens.append(m.group())
    return tokens


class _ExprParser:
    """Recursive-descent over the printer's fully parenthesised form.

    ``leaves`` interns :class:`Var`/:class:`Const` nodes across one
    :func:`parse_program` call, so a program names each distinct leaf
    once however often it appears.  Statements are never shared:
    :class:`~repro.analysis.facts.DefinitionFrom` matches them by
    identity.
    """

    def __init__(
        self, tokens: List[str], line_no: int, leaves: Dict[tuple, Expr]
    ):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.leaves = leaves

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
        if re.fullmatch(r"-?\d+", token):
            return self._leaf(Const, int(token))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token):
            if self.peek() == "(" and token in INTRINSICS:
                return self._parse_intrinsic(token)
            return self._leaf(Var, token)
        raise self.error(f"unexpected token {token!r} in expression")

    def _leaf(self, kind: type, value) -> Expr:
        key = (kind, value)
        leaf = self.leaves.get(key)
        if leaf is None:
            leaf = self.leaves[key] = kind(value)
        return leaf

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
            return UnaryOp(op, operand)
        left = self.parse_expr()
        op = self.next()
        if op not in BINARY_OPS:
            raise self.error(f"unknown binary operator {op!r}")
        right = self.parse_expr()
        self.expect(")")
        return BinOp(op, left, right)

    def _parse_intrinsic(self, name: str) -> Intrinsic:
        self.expect("(")
        args: List[Expr] = []
        if self.peek() != ")":
            args.append(self.parse_expr())
            while self.peek() == ",":
                self.next()
                args.append(self.parse_expr())
        self.expect(")")
        return Intrinsic(name, tuple(args))


def _parse_block_ref(parser: _ExprParser) -> int:
    token = parser.next()
    m = re.fullmatch(r"B(\d+)", token)
    if not m:
        raise parser.error(f"expected a block reference, got {token!r}")
    return int(m.group(1))


def _parse_call(parser: _ExprParser, dest: Optional[str]) -> Call:
    callee = parser.next()
    parser.expect("(")
    args: List[Expr] = []
    if parser.peek() != ")":
        args.append(parser.parse_expr())
        while parser.peek() == ",":
            parser.next()
            args.append(parser.parse_expr())
    parser.expect(")")
    return Call(callee, tuple(args), dest)


def _parse_line(
    block: BasicBlock, text: str, line_no: int, leaves: Dict[tuple, Expr]
) -> None:
    """Parse one statement or terminator line into ``block``."""
    # Breakpoint names are free-form (may contain '-' etc.): take the
    # rest of the line verbatim rather than tokenizing it.
    if text.startswith("breakpoint"):
        name = text[len("breakpoint") :].strip()
        if not name:
            raise ParseError(f"line {line_no}: breakpoint needs a name")
        block.statements.append(Breakpoint(name))
        return
    tokens = _tokenize(text, line_no)
    if not tokens:
        return
    parser = _ExprParser(tokens, line_no, leaves)
    head = parser.next()

    if head == "jump":
        block.terminator = Jump(_parse_block_ref(parser))
    elif head == "if":
        cond = parser.parse_expr()
        parser.expect("then")
        then_target = _parse_block_ref(parser)
        parser.expect("else")
        else_target = _parse_block_ref(parser)
        block.terminator = CondJump(cond, then_target, else_target)
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
        block.terminator = Switch(selector, tuple(cases), default)
    elif head == "return":
        value = None if parser.at_end() else parser.parse_expr()
        block.terminator = Return(value)
    elif head == "store":
        addr = parser.parse_expr()
        parser.expect("=")
        block.statements.append(Store(addr, parser.parse_expr()))
    elif head == "write":
        block.statements.append(Write(parser.parse_expr()))
    elif head == "breakpoint":
        block.statements.append(Breakpoint(parser.next()))
    elif head == "call":
        block.statements.append(_parse_call(parser, dest=None))
    else:
        # "<dest> = <rhs>" forms.
        dest = head
        parser.expect("=")
        nxt = parser.peek()
        if nxt == "read":
            parser.next()
            parser.expect("(")
            parser.expect(")")
            block.statements.append(Read(dest))
        elif nxt == "load":
            parser.next()
            block.statements.append(Load(dest, parser.parse_expr()))
        elif nxt == "call":
            parser.next()
            block.statements.append(_parse_call(parser, dest=dest))
        else:
            block.statements.append(Assign(dest, parser.parse_expr()))
    if not parser.at_end():
        raise parser.error(f"trailing tokens: {tokens[parser.pos:]}")


_FUNC_RE = re.compile(
    r"func\s+([A-Za-z_][A-Za-z_0-9]*)\s*\(([^)]*)\)\s*entry=B(\d+)\s*\{"
)
_BLOCK_RE = re.compile(r"B(\d+):\s*$")


def parse_program(
    text: str, main: Optional[str] = None, verify: bool = True
) -> Program:
    """Parse a whole textual program.

    ``main`` defaults to a function named ``main`` when present,
    otherwise the first function.
    """
    program = Program(main="__pending__")
    current_func: Optional[Function] = None
    current_block: Optional[BasicBlock] = None
    first_name: Optional[str] = None
    leaves: Dict[tuple, Expr] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        # "//" is also the floor-division operator, so comments are only
        # recognised where the printer emits them: whole-line comments
        # and trailing label comments on block-header lines.
        if line.startswith("//"):
            continue
        if re.match(r"B\d+:", line):
            line = line.split("//", 1)[0].strip()
        if not line:
            continue
        m = _FUNC_RE.match(line)
        if m:
            if current_func is not None:
                raise ParseError(f"line {line_no}: nested function")
            name, params_text, entry = m.groups()
            params = tuple(
                p.strip() for p in params_text.split(",") if p.strip()
            )
            current_func = Function(name, params, {}, int(entry))
            if first_name is None:
                first_name = name
            continue
        if line == "}":
            if current_func is None:
                raise ParseError(f"line {line_no}: stray '}}'")
            program.add(current_func)
            current_func = None
            current_block = None
            continue
        if current_func is None:
            raise ParseError(f"line {line_no}: statement outside a function")
        m = _BLOCK_RE.match(line)
        if m:
            block_id = int(m.group(1))
            if block_id in current_func.blocks:
                raise ParseError(f"line {line_no}: duplicate block B{block_id}")
            current_block = BasicBlock(block_id=block_id)
            current_func.blocks[block_id] = current_block
            continue
        if current_block is None:
            raise ParseError(f"line {line_no}: statement outside a block")
        if current_block.terminator is not None:
            raise ParseError(
                f"line {line_no}: statement after terminator in "
                f"B{current_block.block_id}"
            )
        _parse_line(current_block, line, line_no, leaves)

    if current_func is not None:
        raise ParseError("unterminated function (missing '}')")
    if not program.functions:
        raise ParseError("no functions found")

    if main is not None:
        program.main = main
    elif "main" in program.functions:
        program.main = "main"
    else:
        assert first_name is not None
        program.main = first_name

    if verify:
        verify_program(program)
    return program


def parse_function(text: str) -> Function:
    """Parse a single function (convenience for tests and snippets)."""
    program = parse_program(text, verify=False)
    if len(program.functions) != 1:
        raise ParseError("expected exactly one function")
    return next(iter(program.functions.values()))
