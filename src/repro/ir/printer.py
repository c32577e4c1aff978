"""Textual rendering of IR programs.

The text is the format :func:`~repro.ir.parser.parse_program` reads
back; examples and debugging print programs in this compact form.
"""

from __future__ import annotations

from typing import List

from .module import Function, Program


def format_function(func: Function) -> str:
    """Render one function as indented text."""
    lines: List[str] = [
        f"func {func.name}({', '.join(func.params)}) entry=B{func.entry} {{"
    ]
    for bid in func.block_ids():
        block = func.blocks[bid]
        label = f"  // {block.label}" if block.label else ""
        lines.append(f"  B{bid}:{label}")
        for stmt in block.statements:
            lines.append(f"    {stmt}")
        lines.append(f"    {block.terminator}")
    lines.append("}")
    return "\n".join(lines)


def format_program(program: Program) -> str:
    """Render a whole program as text, main first."""
    names = [program.main] + [
        n for n in program.function_names() if n != program.main
    ]
    return "\n\n".join(format_function(program.function(n)) for n in names)
