"""Interprocedural effects: accounting for calls inside path traces.

Section 4.2: when a node contains a call, its dynamic GEN/KILL sets for
a fact depend on what the *specific callee activations* did --
``GEN_f(T(n))`` is the subset of timestamps whose call generated the
fact.  Every interprocedural analysis here runs on one
:class:`ActivationTree`, derived once from the DCG's preorder and the
traces' call counts (:func:`~repro.trace.dcg.dcg_children`), so a
``.twpp`` read from disk works as the in-memory form does.  It serves
one :class:`Activation` view per DCG node, and :class:`CallEffects`
holds the one backward statement scan that resolves each call to the
net effect of the child activation it ran.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..compact.pipeline import CompactedWpp
from ..compact.series import TimestampSet
from ..ir.module import Function, Program
from ..ir.stmt import Call, Stmt
from ..trace.dcg import dcg_children
from ..trace.reconstruct import block_call_counts, pair_call_counts
from .dyncfg import TimestampedCfg
from .engine import DemandDrivenEngine
from .facts import GEN, KILL, TRANSPARENT, Fact


class Activation(NamedTuple):
    """One DCG activation: its function, expanded trace and call layout.

    ``calls_before[t]`` is the number of calls executed at trace
    positions before ``t`` (1-based; index 0 unused), so the calls of
    the block at position ``t`` ran ``children[calls_before[t]:]`` in
    order.  Activations following the same ``(function, pair)`` share
    the trace, the :class:`TimestampedCfg` and ``calls_before``.
    """

    node: int
    function: Function
    trace: Tuple[int, ...]
    cfg: TimestampedCfg
    calls_before: List[int]
    children: List[int]

    def statements(self, position: int) -> Tuple[Stmt, ...]:
        """The statements of the block run at trace ``position``."""
        return self.function.block(self.trace[position - 1]).statements

    def call_site(self, k: int) -> Tuple[int, int, Call]:
        """The ``k``-th call this activation executes (its ``k``-th child).

        Returns ``(trace position, statement index, Call)``.
        """
        position = bisect_right(self.calls_before, k, 1) - 1
        rank = k - self.calls_before[position]
        for index, stmt in enumerate(self.statements(position)):
            if isinstance(stmt, Call):
                if not rank:
                    return position, index, stmt
                rank -= 1
        raise IndexError(f"activation {self.node}: no call #{k}")


class ActivationTree:
    """A run's activation tree, derived once from its DCG's preorder.

    Raises ``ValueError`` (from :func:`~repro.trace.dcg.dcg_children`)
    when the traces' call counts and the DCG's nodes disagree.
    """

    def __init__(self, compacted: CompactedWpp, program: Program):
        self.dcg = compacted.dcg
        names = compacted.func_names
        self.functions = [program.function(name) for name in names]
        self.traces = [fc.traces() for fc in compacted.functions]
        counts = block_call_counts(program)
        self.block_calls = [counts[name] for name in names]
        self.children = dcg_children(
            self.dcg, pair_call_counts(names, self.traces, program)
        )
        #: Per node: ``(caller node, k)`` -- the node is its caller's
        #: ``k``-th child -- or ``None`` for the root.
        self.caller: List[Optional[Tuple[int, int]]] = [None] * len(self.dcg)
        for parent, kids in enumerate(self.children):
            for k, child in enumerate(kids):
                self.caller[child] = (parent, k)
        self._layouts: Dict[Tuple[int, int], tuple] = {}
        self._views: Dict[int, Activation] = {}

    def activation(self, node: int) -> Activation:
        """The view of DCG node ``node`` (built once per node)."""
        view = self._views.get(node)
        if view is None:
            key = (self.dcg.node_func[node], self.dcg.node_trace[node])
            layout = self._layouts.get(key)
            if layout is None:
                layout = self._layouts[key] = self._layout(*key)
            view = self._views[node] = Activation(
                node, self.functions[key[0]], *layout, self.children[node]
            )
        return view

    def _layout(self, func_idx: int, trace_id: int) -> tuple:
        trace = self.traces[func_idx][trace_id]
        counts = self.block_calls[func_idx]
        calls_before = [0] * (len(trace) + 1)
        running = 0
        for position, block_id in enumerate(trace, start=1):
            calls_before[position] = running
            running += counts[block_id]
        return trace, TimestampedCfg.from_trace(trace), calls_before


class CallEffects:
    """One fact over one activation tree: the backward statement scan.

    A call's own ``dest`` (``fact.gens/kills(call)``) decides first; the
    callee activation's net effect counts only for facts that callees
    can change (``fact.crosses_calls``).  Frame-local facts never look
    at a child.
    """

    def __init__(self, tree: ActivationTree, fact: Fact):
        self.tree = tree
        self.fact = fact
        self._net: Optional[List[str]] = None

    def scan(self, statements, children: List[int], end: int) -> str:
        """Net effect of ``statements``, newest first.

        The last call among them ran ``children[end - 1]``, the one
        before it ``children[end - 2]``, and so on.
        """
        fact = self.fact
        for stmt in reversed(statements):
            if fact.gens(stmt):
                return GEN
            if fact.kills(stmt):
                return KILL
            if isinstance(stmt, Call):
                end -= 1
                if fact.crosses_calls:
                    effect = self.net_effects()[children[end]]
                    if effect != TRANSPARENT:
                        return effect
        return TRANSPARENT

    def net_effects(self) -> List[str]:
        """Net effect of every DCG activation, computed once.

        Reverse preorder resolves children before their callers; an
        activation's effect is the first decisive result of scanning its
        trace backward block by block.
        """
        if self._net is None:
            tree = self.tree
            dcg = tree.dcg
            self._net = net = [TRANSPARENT] * len(dcg)
            for node in range(len(dcg) - 1, -1, -1):
                func_idx = dcg.node_func[node]
                blocks = tree.functions[func_idx].blocks
                counts = tree.block_calls[func_idx]
                kids = tree.children[node]
                end = len(kids)
                for block_id in reversed(
                    tree.traces[func_idx][dcg.node_trace[node]]
                ):
                    effect = self.scan(blocks[block_id].statements, kids, end)
                    if effect != TRANSPARENT:
                        net[node] = effect
                        break
                    end -= counts[block_id]
        return self._net


def activation_effects(
    compacted: CompactedWpp, program: Program, fact: Fact
) -> List[str]:
    """Net effect (``gen``/``kill``/``transparent``) of every DCG
    activation on ``fact``: the last decisive event of its execution."""
    return CallEffects(ActivationTree(compacted, program), fact).net_effects()


class ActivationAnalysis:
    """Profile-limited analysis bound to one specific DCG activation.

    Runs the demand-driven engine over the activation's timestamped
    dynamic CFG with an effect function in which call statements
    resolve to the net effect of the precise child activation executed
    at each timestamp (the k-th call executed by the activation is its
    k-th DCG child).  ``effects`` shares a :class:`CallEffects` (its
    tree and per-node effects) between analyses of one run and fact.
    """

    def __init__(
        self,
        compacted: CompactedWpp,
        program: Program,
        fact: Fact,
        node: int,
        effects: Optional[CallEffects] = None,
    ):
        if effects is None:
            effects = CallEffects(ActivationTree(compacted, program), fact)
        self.fact = fact
        self.node = node
        self.effects = effects
        self.activation = effects.tree.activation(node)
        # Per-block (gen, kill, transparent) partition of the block's
        # full timestamp set; computed once, served by intersection.
        self._block_partition: Dict[
            int, Tuple[TimestampSet, TimestampSet, TimestampSet]
        ] = {}
        self._engine: Optional[DemandDrivenEngine] = None

    def engine(self) -> DemandDrivenEngine:
        """The activation's demand-driven engine with call-aware effects.

        One engine is kept per activation so its verdict memo
        accumulates across queries (interprocedural propagation re-enters
        the same activations repeatedly).
        """
        if self._engine is None:
            self._engine = DemandDrivenEngine(
                self.activation.cfg, self._effect
            )
        return self._engine

    def query(self, block_id: int, ts: Optional[TimestampSet] = None):
        """Convenience: evaluate ``<T, block>`` on this activation."""
        return self.engine().query(block_id, ts)

    # ------------------------------------------------------------------

    def _effect(
        self, block_id: int, ts: TimestampSet
    ) -> Tuple[TimestampSet, TimestampSet, TimestampSet]:
        gen_full, kill_full, trans_full = self._partition(block_id)
        # Common timestamp-invariant cases: no per-call intersection.
        if not gen_full and not kill_full:
            return gen_full, kill_full, ts
        if not kill_full and not trans_full:
            return ts, kill_full, trans_full
        if not gen_full and not trans_full:
            return gen_full, ts, trans_full
        return (
            ts.intersect(gen_full),
            ts.intersect(kill_full),
            ts.intersect(trans_full),
        )

    def _partition(
        self, block_id: int
    ) -> Tuple[TimestampSet, TimestampSet, TimestampSet]:
        """(gen, kill, transparent) split of the block's full timestamp set.

        Computed once per block -- per-instance call resolution is the
        expensive part of interprocedural effects -- then every query
        classifies its vector by intersecting against the cached split.
        """
        cached = self._block_partition.get(block_id)
        if cached is not None:
            return cached
        act = self.activation
        statements = act.function.block(block_id).statements
        calls = sum(isinstance(stmt, Call) for stmt in statements)
        full = act.cfg.ts(block_id)
        if calls and self.fact.crosses_calls:
            # Call-bearing block: resolve each instance once, here.
            split: Dict[str, list] = {GEN: [], KILL: [], TRANSPARENT: []}
            for t in full:
                verdict = self.effects.scan(
                    statements, act.children, act.calls_before[t] + calls
                )
                split[verdict].append(t)
            cached = tuple(
                TimestampSet.from_values(split[k])
                for k in (GEN, KILL, TRANSPARENT)
            )
        else:
            # Timestamp-invariant: no child is consulted.
            verdict = self.effects.scan(statements, act.children, 0)
            cached = tuple(
                full if verdict == k else TimestampSet()
                for k in (GEN, KILL, TRANSPARENT)
            )
        self._block_partition[block_id] = cached
        return cached


def analyze_activation(
    compacted: CompactedWpp,
    program: Program,
    fact: Fact,
    node: int = 0,
) -> ActivationAnalysis:
    """Build an :class:`ActivationAnalysis` (default: the root activation)."""
    return ActivationAnalysis(compacted, program, fact, node)
