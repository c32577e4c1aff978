"""Static control dependence.

Uses the classic Ferrante–Ottenstein–Warren construction: block ``b`` is
control dependent on block ``a`` (with branch edge ``a -> s``) when ``b``
postdominates ``s`` but does not postdominate ``a``.  Equivalently, ``a``
is in the postdominance frontier of ``b``.

The dynamic slicing algorithms (paper Section 4.3.2, Figure 11) add a
statement to a slice via *control* dependence exactly when its governing
predicate instance is in the slice; this module provides the static
control-dependence parents that those traversals follow.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from .dominators import VIRTUAL_EXIT, function_postdominators
from .module import Function


def control_dependence(func: Function) -> Dict[int, FrozenSet[int]]:
    """Map each block to the set of blocks it is control dependent on.

    Entry blocks and blocks executed on every path depend on nothing
    (the virtual exit/entry is dropped from the result).
    """
    ipdom = function_postdominators(func)
    deps: Dict[int, set] = {bid: set() for bid in func.block_ids()}

    for a in func.block_ids():
        succs = func.successors(a)
        if len(succs) < 2:
            continue  # only branch points create control dependences
        for s in succs:
            # Walk the postdominator tree from s up to (but excluding)
            # ipdom(a); everything on the way is control dependent on a.
            runner = s
            stop = ipdom.get(a, VIRTUAL_EXIT)
            while runner != stop and runner != VIRTUAL_EXIT:
                # Note runner == a is possible and meaningful: a loop
                # header is control dependent on itself.
                deps[runner].add(a)
                nxt = ipdom.get(runner)
                if nxt is None or nxt == runner:
                    break
                runner = nxt

    return {bid: frozenset(parents) for bid, parents in deps.items()}
