"""Forward-replay oracle for the call-aware analyses.

The WPP is replayed forward over the static program: the k-th ``Call``
of the current block pairs with the k-th ENTER, and each fact's truth
is tracked per open activation.  A fact that crosses calls is changed
by callee subtrees; a frame-local fact only by the frame's own
statements and its calls' ``dest``.  The truth at every block entry is
recorded two ways -- per activation, starting unknown at the
activation's entry (what :class:`ActivationAnalysis` answers), and
program-wide, starting unknown at program start (what
:class:`InterproceduralEngine` answers for facts that cross calls) --
and the analyses must agree with it on every ``(activation, block)``.
The same answers must come back from a ``.twpp`` read from disk.
"""

from collections import Counter, defaultdict

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import (
    ActivationAnalysis,
    ActivationTree,
    CallEffects,
    ExpressionAvailable,
    InterproceduralEngine,
    InterproceduralSlicer,
    LoadAvailable,
    VarHasDefinition,
)
from repro.compact import compact_wpp, read_twpp, write_twpp
from repro.ir.expr import Const
from repro.ir.stmt import Call, Load
from repro.trace import BLOCK, ENTER, collect_wpp, partition_wpp, unpack_event
from repro.workloads import WORKLOAD_NAMES, generate_program, workload

from .conftest import tiny_specs
from .test_analysis_interproc import build_program
from .test_analysis_interproc_paths import chain_program, siblings_program

HOLDS, FAILS, UNKNOWN = 0, 1, 2
VERDICT = {True: HOLDS, False: FAILS, None: UNKNOWN}


def replay(program, wpp, fact):
    """Per ``(activation, block)``: [holds, fails, unknown] counts at
    block entry, in the activation's own view and program-wide."""
    names = wpp.func_names
    # Only memory is shared between frames; the oracle decides that
    # itself rather than trusting ``fact.crosses_calls``.
    memory = isinstance(fact, LoadAvailable)
    frame_view = defaultdict(lambda: [0, 0, 0])
    program_view = defaultdict(lambda: [0, 0, 0])
    # Open activations: [node, function, block statements, cursor, truth].
    stack = []
    truth = None  # program-wide
    nodes = 0

    def step(frame, stmt):
        nonlocal truth
        if fact.gens(stmt):
            frame[4] = truth = True
        elif fact.kills(stmt):
            frame[4] = truth = False

    def run_to_call(frame):
        statements, cursor = frame[2], frame[3]
        while cursor < len(statements) and not isinstance(
            statements[cursor], Call
        ):
            step(frame, statements[cursor])
            cursor += 1
        frame[3] = cursor

    for packed in wpp.events:
        kind, arg = unpack_event(packed)
        if kind == ENTER:
            if stack:
                caller = stack[-1]
                assert isinstance(caller[2][caller[3]], Call)
            stack.append([nodes, program.function(names[arg]), (), 0, None])
            nodes += 1
        elif kind == BLOCK:
            frame = stack[-1]
            assert frame[3] == len(frame[2]), "calls left in the last block"
            frame_view[frame[0], arg][VERDICT[frame[4]]] += 1
            program_view[frame[0], arg][VERDICT[truth]] += 1
            frame[2], frame[3] = frame[1].block(arg).statements, 0
            run_to_call(frame)
        else:
            callee = stack.pop()
            if stack:
                frame = stack[-1]
                if memory and callee[4] is not None:
                    frame[4] = callee[4]
                step(frame, frame[2][frame[3]])  # the call's own dest
                frame[3] += 1
                run_to_call(frame)
    return frame_view, program_view


def most_loaded_address(program, wpp):
    """The constant address loaded most often in the run."""
    names, loads, stack = wpp.func_names, Counter(), []
    for packed in wpp.events:
        kind, arg = unpack_event(packed)
        if kind == ENTER:
            stack.append(program.function(names[arg]))
        elif kind == BLOCK:
            for stmt in stack[-1].block(arg).statements:
                if isinstance(stmt, Load) and isinstance(stmt.addr, Const):
                    loads[stmt.addr.value] += 1
        else:
            stack.pop()
    return min(loads, key=lambda addr: (-loads[addr], addr), default=0)


def facts_for(program, wpp):
    return [
        LoadAvailable(most_loaded_address(program, wpp)),
        VarHasDefinition("i"),
        ExpressionAvailable(("x",)),
    ]


def activation_answers(compacted, program, fact):
    """``ActivationAnalysis`` counts for every executed (node, block)."""
    effects = CallEffects(ActivationTree(compacted, program), fact)
    out = {}
    for node in range(len(compacted.dcg)):
        analysis = ActivationAnalysis(compacted, program, fact, node, effects)
        for block in analysis.activation.cfg.node_ts:
            r = analysis.query(block)
            out[node, block] = [len(r.holds), len(r.fails), len(r.unresolved)]
    return out


def engine_answers(compacted, program, fact):
    """``InterproceduralEngine`` counts for every executed (node, block)."""
    engine = InterproceduralEngine(compacted, program, fact)
    tree = engine.effects.tree
    out = {}
    for node in range(len(compacted.dcg)):
        for block in tree.activation(node).cfg.node_ts:
            r = engine.query(node, block)
            out[node, block] = [r.holds, r.fails, r.unresolved_at_start]
    return out


def slice_answers(compacted, program):
    """Slices at each activation's last block, on its terminator's uses."""
    slicer = InterproceduralSlicer(compacted, program)
    out = []
    for node in range(0, len(compacted.dcg), 7):
        act = slicer.tree.activation(node)
        block = act.trace[-1]
        term = act.function.block(block).terminator
        variables = sorted(term.uses()) or ["x"]
        r = slicer.slice(node, block, variables)
        out.append((r.slice_nodes, r.activations_visited, r.queries_issued))
    return out


def all_answers(compacted, program, facts):
    """Per fact: (ActivationAnalysis answers, InterproceduralEngine
    answers or None for a frame-local fact)."""
    return {
        fact: (
            activation_answers(compacted, program, fact),
            engine_answers(compacted, program, fact)
            if isinstance(fact, LoadAvailable)
            else None,
        )
        for fact in facts
    }


def check_against_oracle(program, wpp, answers):
    for fact, (activation, engine) in answers.items():
        frame_view, program_view = replay(program, wpp, fact)
        assert activation == dict(frame_view), fact
        if engine is not None:
            assert engine == dict(program_view), fact


def run(program):
    wpp = collect_wpp(program, max_events=200_000)
    compacted, _stats = compact_wpp(partition_wpp(wpp))
    return wpp, compacted


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def small_run(request):
    """A workload at a small scale, with its in-memory answers."""
    program, _spec = workload(request.param, scale=0.05)
    wpp, compacted = run(program)
    answers = all_answers(compacted, program, facts_for(program, wpp))
    return program, wpp, compacted, answers


class TestOracle:
    def test_workload(self, small_run):
        program, wpp, _compacted, answers = small_run
        check_against_oracle(program, wpp, answers)

    @given(tiny_specs())
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_generated(self, spec):
        program = generate_program(spec)
        wpp, compacted = run(program)
        facts = facts_for(program, wpp)
        check_against_oracle(
            program, wpp, all_answers(compacted, program, facts)
        )

    def test_oracle_sees_callee_stores(self, small_run):
        """The workloads exercise the call-aware path: some block's
        ``load:`` verdict differs between the frame and program views."""
        program, wpp, _compacted, answers = small_run
        fact = next(iter(answers))
        frame_view, program_view = replay(program, wpp, fact)
        assert frame_view != program_view


def check_disk_equals_memory(program, compacted, answers, tmp_path):
    path = tmp_path / "run.twpp"
    write_twpp(compacted, path)
    loaded = read_twpp(path)
    assert loaded.dcg == compacted.dcg
    assert all_answers(loaded, program, list(answers)) == answers
    assert slice_answers(loaded, program) == slice_answers(compacted, program)


#: The hand-built programs of the interprocedural unit tests.
UNIT_PROGRAMS = {
    "killing-callee": lambda: build_program(kill_in_callee=True),
    "transparent-callee": lambda: build_program(kill_in_callee=False),
    "siblings": siblings_program,
    "chain": chain_program,
}


class TestDiskEqualsMemory:
    def test_workload(self, small_run, tmp_path):
        program, _wpp, compacted, answers = small_run
        check_disk_equals_memory(program, compacted, answers, tmp_path)

    @pytest.mark.parametrize("name", sorted(UNIT_PROGRAMS))
    def test_unit_program(self, name, tmp_path):
        program = UNIT_PROGRAMS[name]()
        wpp, compacted = run(program)
        answers = all_answers(
            compacted, program, facts_for(program, wpp) + [VarHasDefinition("v")]
        )
        check_against_oracle(program, wpp, answers)
        check_disk_equals_memory(program, compacted, answers, tmp_path)
