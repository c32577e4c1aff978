"""Dynamic basic blocks (DBBs) and per-trace dictionaries.

A *dynamic basic block* of a path trace is a chain of static basic
blocks that, within that trace, is always entered at its first block and
left at its last (paper, Section 2, Figure 4).  Because DBBs typically
sit inside loops and repeat many times, replacing each occurrence by the
chain head's id shrinks the trace; a per-trace *dictionary* maps head
ids back to full chains so the original trace is recoverable.

Chain discovery builds the trace's dynamic control flow graph -- nodes
are the static blocks that occur, edges the consecutive pairs -- with
virtual entry/exit markers so a trace that starts or ends mid-loop can
never be folded incorrectly.  Block ``b`` merges into ``c`` exactly when
``c`` is ``b``'s only dynamic successor and ``b`` is ``c``'s only
dynamic predecessor; maximal merge paths are the DBBs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

#: Virtual node marking "before the first block" in the dynamic CFG.
ENTRY_MARK = -1
#: Virtual node marking "after the last block" in the dynamic CFG.
EXIT_MARK = -2

PathTrace = Tuple[int, ...]


@dataclass(frozen=True)
class DbbDictionary:
    """Map from chain-head block id to the full static block chain.

    Only genuine chains (length >= 2) are stored; a block absent from
    ``chains`` expands to itself.  The dictionary is hashable so that
    duplicate dictionaries across traces can be eliminated, as the paper
    prescribes ("duplicate path traces and dictionaries are also
    eliminated").
    """

    chains: Tuple[Tuple[int, ...], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for chain in self.chains:
            if len(chain) < 2:
                raise ValueError(f"chain {chain} shorter than 2 blocks")

    def as_map(self) -> Dict[int, Tuple[int, ...]]:
        """head block id -> chain tuple."""
        return {chain[0]: chain for chain in self.chains}

    def member_blocks(self) -> Set[int]:
        """All non-head blocks folded away by this dictionary."""
        out: Set[int] = set()
        for chain in self.chains:
            out.update(chain[1:])
        return out

    def __len__(self) -> int:
        return len(self.chains)


def dynamic_cfg(
    trace: Sequence[int],
) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
    """Build the dynamic control flow graph of one path trace.

    Returns ``(successors, predecessors)`` keyed by static block id.
    The first block gets :data:`ENTRY_MARK` as an extra predecessor and
    the last block :data:`EXIT_MARK` as an extra successor; these
    virtual edges stop chains from swallowing a block whose final
    occurrence ends the trace mid-chain.
    """
    succs: Dict[int, Set[int]] = {}
    preds: Dict[int, Set[int]] = {}
    for b in trace:
        succs.setdefault(b, set())
        preds.setdefault(b, set())
    if not trace:
        return succs, preds
    preds[trace[0]].add(ENTRY_MARK)
    for a, b in zip(trace, trace[1:]):
        succs[a].add(b)
        preds[b].add(a)
    succs[trace[-1]].add(EXIT_MARK)
    return succs, preds


def find_dbb_chains(trace: Sequence[int]) -> DbbDictionary:
    """Discover the maximal DBB chains of one path trace."""
    succs, preds = dynamic_cfg(trace)

    # b -> c is a merge edge when the two blocks always occur as a pair.
    merge_next: Dict[int, int] = {}
    merge_prev: Dict[int, int] = {}
    for b, out in succs.items():
        if len(out) != 1:
            continue
        (c,) = out
        if c in (ENTRY_MARK, EXIT_MARK) or c == b:
            continue
        if preds[c] == {b}:
            merge_next[b] = c
            merge_prev[c] = b

    chains: List[Tuple[int, ...]] = []
    for head in merge_next:
        if head in merge_prev:
            continue  # interior of some chain, not a head
        chain = [head]
        cur = head
        while cur in merge_next:
            cur = merge_next[cur]
            chain.append(cur)
        chains.append(tuple(chain))

    chains.sort(key=lambda c: c[0])
    return DbbDictionary(chains=tuple(chains))


def compact_trace(trace: Sequence[int]) -> Tuple[PathTrace, DbbDictionary]:
    """Replace each DBB occurrence by its head id.

    Returns ``(compacted trace, dictionary)``.  Every non-head member of
    a chain is dropped: by the merge-edge conditions its occurrences are
    always preceded by its chain predecessor, so nothing is lost.
    """
    dictionary = find_dbb_chains(trace)
    members = dictionary.member_blocks()
    compacted = tuple(b for b in trace if b not in members)
    return compacted, dictionary


def expand_trace(
    compacted: Sequence[int], dictionary: DbbDictionary
) -> PathTrace:
    """Inverse of :func:`compact_trace`."""
    chain_map = dictionary.as_map()
    out: List[int] = []
    for b in compacted:
        chain = chain_map.get(b)
        if chain is None:
            out.append(b)
        else:
            out.extend(chain)
    return tuple(out)


def verify_dictionary(trace: Sequence[int], dictionary: DbbDictionary) -> None:
    """Assert a dictionary is sound for ``trace`` (round-trips exactly).

    Used by tests and by the pipeline's optional self-check mode.
    """
    members = dictionary.member_blocks()
    heads = {chain[0] for chain in dictionary.chains}
    if heads & members:
        raise ValueError("a chain head is also a chain member")
    compacted = tuple(b for b in trace if b not in members)
    expanded = expand_trace(compacted, dictionary)
    if expanded != tuple(trace):
        raise ValueError("dictionary does not round-trip the trace")
