"""Classic static (iterative) data-flow analyses over function CFGs.

These are the *static* counterparts of the paper's profile-limited
analyses: Section 4 contrasts "traditional static analysis" on the
static flow graph with profile-limited analysis on the timestamped
dynamic flow graph (Table 6).  The static program dependence graph used
by dynamic slicing Approach 1 (Figure 11) is built from the reaching
definitions computed here.

Definitions are identified by ``(block_id, statement_index)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .module import Function

DefSite = Tuple[int, int]  # (block_id, statement_index)


@dataclass(frozen=True)
class ReachingDefinitions:
    """Result of reaching-definitions analysis.

    ``in_sets``/``out_sets`` map block id to the set of
    ``(variable, def_site)`` pairs reaching block entry/exit.
    """

    in_sets: Dict[int, FrozenSet[Tuple[str, DefSite]]]
    out_sets: Dict[int, FrozenSet[Tuple[str, DefSite]]]

    def defs_of(self, block_id: int, variable: str) -> FrozenSet[DefSite]:
        """Definition sites of ``variable`` reaching ``block_id``'s entry."""
        return frozenset(
            site for var, site in self.in_sets[block_id] if var == variable
        )

    def def_blocks_of(self, block_id: int, variable: str) -> FrozenSet[int]:
        """Blocks holding definitions of ``variable`` reaching ``block_id``.

        Block-granularity view used by the static-PDG side of dynamic
        slicing (Approach 1).
        """
        return frozenset(site[0] for site in self.defs_of(block_id, variable))


def reaching_definitions(func: Function) -> ReachingDefinitions:
    """Iterative forward may-analysis of reaching definitions."""
    # Per-block GEN (last def of each variable) and KILL (variables defined).
    gen: Dict[int, Set[Tuple[str, DefSite]]] = {}
    killed_vars: Dict[int, Set[str]] = {}
    for bid in func.block_ids():
        block = func.blocks[bid]
        last_def: Dict[str, DefSite] = {}
        for idx, stmt in enumerate(block.statements):
            for var in stmt.defs():
                last_def[var] = (bid, idx)
        gen[bid] = {(var, site) for var, site in last_def.items()}
        killed_vars[bid] = set(last_def)

    preds = func.predecessors()
    in_sets: Dict[int, Set[Tuple[str, DefSite]]] = {b: set() for b in func.blocks}
    out_sets: Dict[int, Set[Tuple[str, DefSite]]] = {b: set() for b in func.blocks}

    worklist: List[int] = func.block_ids()
    while worklist:
        bid = worklist.pop(0)
        new_in: Set[Tuple[str, DefSite]] = set()
        for p in preds[bid]:
            new_in |= out_sets[p]
        survivors = {
            (var, site) for var, site in new_in if var not in killed_vars[bid]
        }
        new_out = survivors | gen[bid]
        in_sets[bid] = new_in
        if new_out != out_sets[bid]:
            out_sets[bid] = new_out
            for succ in func.successors(bid):
                if succ not in worklist:
                    worklist.append(succ)

    return ReachingDefinitions(
        in_sets={b: frozenset(s) for b, s in in_sets.items()},
        out_sets={b: frozenset(s) for b, s in out_sets.items()},
    )
