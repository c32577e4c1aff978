"""Unit tests for interprocedural (call-aware) effects."""

import pytest

from repro.analysis import (
    GEN,
    KILL,
    ActivationAnalysis,
    ActivationTree,
    CallEffects,
    ExpressionAvailable,
    LoadAvailable,
    TRANSPARENT,
    VarHasDefinition,
)
from repro.compact import compact_wpp
from repro.ir import ProgramBuilder, binop
from repro.trace import collect_wpp, partition_wpp


def build_program(kill_in_callee: bool):
    """main loops: load MEM[7]; call child; load MEM[7] again.

    The second load's redundancy depends entirely on whether the callee
    stores to MEM[7].
    """
    pb = ProgramBuilder()
    child = pb.function("child", params=("sel",))
    c1 = child.block()
    c2 = child.block()
    c3 = child.block()
    c1.branch("sel", c2, c3)
    if kill_in_callee:
        c2.store(7, 1).jump(c3)
    else:
        c2.assign("t", 1).jump(c3)
    c3.ret(0)

    main = pb.function("main")
    m1 = main.block()
    m2 = main.block()  # head
    m3 = main.block()  # body: load, call, load
    m4 = main.block()  # exit
    m1.assign("i", 0).jump(m2)
    m2.branch(binop("<", "i", 4), m3, m4)
    m3.load("a", 7).call("child", [binop("%", "i", 2)], dest="r").load(
        "b", 7
    ).assign("i", binop("+", "i", 1)).jump(m2)
    m4.ret(0)
    return pb.build()


def compacted_for(program):
    wpp = collect_wpp(program)
    compacted, _stats = compact_wpp(partition_wpp(wpp))
    return compacted


def activation_effects(compacted, program, fact):
    return CallEffects(ActivationTree(compacted, program), fact).net_effects()


class TestActivationEffects:
    def test_killing_callee_marked_kill(self):
        program = build_program(kill_in_callee=True)
        compacted = compacted_for(program)
        effects = activation_effects(compacted, program, LoadAvailable(7))
        dcg = compacted.dcg
        child_idx = compacted.func_names.index("child")
        # child activations with sel=1 (trace through c2) kill; sel=0
        # (straight to c3) are transparent.
        kinds = set()
        for node in range(len(dcg)):
            if dcg.node_func[node] == child_idx:
                kinds.add(effects[node])
        assert kinds == {KILL, TRANSPARENT}

    def test_root_effect_summarizes_whole_run(self):
        program = build_program(kill_in_callee=True)
        compacted = compacted_for(program)
        effects = activation_effects(compacted, program, LoadAvailable(7))
        # main's last decisive event is the final load in m3 -> GEN.
        assert effects[0] == GEN

    def test_transparent_callee(self):
        program = build_program(kill_in_callee=False)
        compacted = compacted_for(program)
        effects = activation_effects(compacted, program, LoadAvailable(7))
        child_idx = compacted.func_names.index("child")
        for node in range(len(compacted.dcg)):
            if compacted.dcg.node_func[node] == child_idx:
                assert effects[node] == TRANSPARENT


class TestActivationAnalysis:
    def test_call_aware_redundancy(self):
        """With a killing callee on odd iterations, the loop-carried
        availability at the head alternates."""
        program = build_program(kill_in_callee=True)
        compacted = compacted_for(program)
        analysis = ActivationAnalysis(compacted, program, LoadAvailable(7), 0)
        # Query availability before each execution of the loop head m2.
        result = analysis.query(2)
        # Head runs 5 times (i=0..4).  Before the first, nothing; before
        # the others, iteration i just ran m3 whose last op is a GEN
        # (the trailing load b) -- but the call sits *before* that load,
        # so m3 always ends generating.
        assert len(result.holds) == 4
        assert len(result.unresolved) == 1

    def test_call_aware_split_between_instances(self):
        """Query availability before the *call* requires per-instance
        resolution through the call statement itself: block m3 is GEN
        regardless, but querying m3's instances sees prior-iteration
        effects through the callee."""
        program = build_program(kill_in_callee=True)
        compacted = compacted_for(program)
        analysis = ActivationAnalysis(compacted, program, LoadAvailable(7), 0)
        result = analysis.query(3)  # before each body execution
        # Body instance i>0 is preceded by head (transparent) then the
        # previous body, which ends with load b (GEN).  Instance 0 is
        # unresolved at entry.
        assert len(result.requested) == 4
        assert len(result.holds) == 3
        assert len(result.unresolved) == 1

    def test_child_count_mismatch_detected(self):
        program = build_program(kill_in_callee=False)
        compacted = compacted_for(program)
        # Corrupt the DCG: the last child activation becomes another run
        # of main, whose trace executes calls the DCG has no nodes for.
        compacted.dcg.node_func[-1] = compacted.func_names.index("main")
        compacted.dcg.node_trace[-1] = 0
        with pytest.raises(ValueError, match="children"):
            ActivationAnalysis(compacted, program, LoadAvailable(7), 0)


def frame_program(case):
    """``f`` and ``main`` with one variable ``x`` each (probes a-c).

    a: only ``f`` assigns its own ``x``; main does ``r = call f()``.
    b: main does ``x = call f()``.
    c: only main assigns ``x``, before ``r = call f()``.
    """
    pb = ProgramBuilder()
    f = pb.function("f")
    f.block().assign("x" if case == "a" else "y", 1).ret(0)
    main = pb.function("main")
    m1 = main.block()
    m2 = main.block()
    if case == "c":
        m1.assign("x", 1)
    m1.call("f", [], dest="x" if case == "b" else "r").jump(m2)
    m2.ret(0)
    return pb.build()


class TestFrameLocalFacts:
    """``def:x`` names a frame's own variable: a callee's ``x`` is
    another variable, and a call defines only its ``dest``."""

    def counts(self, case, node, block):
        program = frame_program(case)
        compacted = compacted_for(program)
        fact = VarHasDefinition("x")
        result = ActivationAnalysis(compacted, program, fact, node).query(block)
        return len(result.holds), len(result.fails), len(result.unresolved)

    def test_callee_variable_stays_in_the_callee(self):
        assert self.counts("a", 0, 2) == (0, 0, 1)

    def test_call_dest_defines(self):
        assert self.counts("b", 0, 2) == (1, 0, 0)

    def test_caller_variable_does_not_reach_the_callee(self):
        # Activation 1 is f; its entry block is B1.
        assert self.counts("c", 1, 1) == (0, 0, 1)
        assert self.counts("c", 0, 2) == (1, 0, 0)

    def test_only_memory_facts_cross_calls(self):
        assert LoadAvailable(7).crosses_calls
        assert not VarHasDefinition("x").crosses_calls
        assert not ExpressionAvailable(("x",)).crosses_calls
