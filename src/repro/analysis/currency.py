"""Dynamic currency determination for debugging optimized code.

Section 4.3.2 / Figure 12: an optimizer (here, partial dead code
elimination) moved an assignment of variable ``v`` to a later block.
The user debugs at source level; at a breakpoint, the runtime value of
``v`` is *current* only if it equals what the unoptimized program would
have computed.  "As shown in [Dhamdhere & Sankaranarayanan],
timestamping of basic block executions is needed for dynamic currency
determination" -- the timestamp-annotated dynamic CFG supplies exactly
that: walk the executed path backward from the breakpoint instance and
compare the definition of ``v`` that actually reached it (optimized
placement) against the one that would have (original placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..compact.series import TimestampSet
from .dyncfg import TimestampedCfg


@dataclass(frozen=True)
class CodeMotion:
    """Record of one assignment the optimizer relocated.

    ``label`` names the logical assignment; ``original_block`` is where
    the source program defines it; ``optimized_block`` is where the
    optimized program executes it (None when deleted outright).
    """

    label: str
    original_block: int
    optimized_block: Optional[int]


@dataclass(frozen=True)
class DefPlacement:
    """Where a variable's definitions live in one program version.

    Maps block id -> label of the (last) assignment to the variable in
    that block.  Two placements describing the same ``label`` denote the
    same source-level assignment.
    """

    by_block: Tuple[Tuple[int, str], ...]

    @classmethod
    def of(cls, mapping: Dict[int, str]) -> "DefPlacement":
        return cls(by_block=tuple(sorted(mapping.items())))

    def as_map(self) -> Dict[int, str]:
        return dict(self.by_block)


@dataclass(frozen=True)
class CurrencyResult:
    """Verdict for one breakpoint instance."""

    variable: str
    breakpoint_block: int
    breakpoint_ts: int
    current: bool
    actual_def: Optional[str]  # label reaching in the optimized program
    expected_def: Optional[str]  # label that would reach in the original

    def explanation(self) -> str:
        """Human-readable verdict, as a debugger would print it."""
        if self.current:
            return (
                f"{self.variable} is current at B{self.breakpoint_block} "
                f"(t={self.breakpoint_ts}): definition "
                f"{self.actual_def!r} matches the source program."
            )
        return (
            f"{self.variable} is NOT current at B{self.breakpoint_block} "
            f"(t={self.breakpoint_ts}): memory holds {self.actual_def!r} "
            f"but the source program would have {self.expected_def!r}."
        )


def last_definition_before(
    cfg: TimestampedCfg, placement: DefPlacement, ts: int
) -> Optional[Tuple[int, int, str]]:
    """Latest execution of any defining block strictly before ``ts``.

    Returns ``(block, time, label)`` or None when no definition executed
    before the breakpoint.
    """
    best: Optional[Tuple[int, int, str]] = None
    for block, label in placement.by_block:
        block_ts = cfg.ts(block)
        latest = None
        for t in block_ts:
            if t < ts:
                latest = t
            else:
                break
        if latest is not None and (best is None or latest > best[1]):
            best = (block, latest, label)
    return best


def determine_currency(
    cfg: TimestampedCfg,
    variable: str,
    breakpoint_block: int,
    breakpoint_ts: int,
    original: DefPlacement,
    optimized: DefPlacement,
) -> CurrencyResult:
    """Decide whether ``variable`` is current at one breakpoint instance.

    Both placements are evaluated against the *same* trace: the code
    motions considered (hoisting/sinking of assignments) do not change
    control flow, so the executed path is shared and the question
    reduces to comparing the labels of the two reaching definitions.
    """
    if breakpoint_ts not in cfg.ts(breakpoint_block):
        raise ValueError(
            f"breakpoint block B{breakpoint_block} did not execute at "
            f"t={breakpoint_ts}"
        )
    actual = last_definition_before(cfg, optimized, breakpoint_ts)
    expected = last_definition_before(cfg, original, breakpoint_ts)
    actual_label = actual[2] if actual else None
    expected_label = expected[2] if expected else None
    return CurrencyResult(
        variable=variable,
        breakpoint_block=breakpoint_block,
        breakpoint_ts=breakpoint_ts,
        current=actual_label == expected_label,
        actual_def=actual_label,
        expected_def=expected_label,
    )


def placements_from_motion(
    base: Dict[int, str], motions: Tuple[CodeMotion, ...]
) -> Tuple[DefPlacement, DefPlacement]:
    """Derive (original, optimized) placements from motion records.

    ``base`` maps block -> label for assignments the optimizer left
    untouched; each motion contributes its original and optimized
    locations to the respective placements.
    """
    original = dict(base)
    optimized = dict(base)
    for motion in motions:
        original[motion.original_block] = motion.label
        if motion.optimized_block is not None:
            optimized[motion.optimized_block] = motion.label
    return DefPlacement.of(original), DefPlacement.of(optimized)
