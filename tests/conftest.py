"""Shared fixtures: small hand-built programs and cached workloads."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.ir import ProgramBuilder, binop
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import WorkloadSpec


def decline_compile(monkeypatch):
    """Make the compiler decline every program for the rest of the test
    (or ``monkeypatch.context()``), so ``run_program`` -- and every verb
    built on it -- runs the tree-walking reference through its
    ``CompileUnsupported`` fallback."""
    from repro.interp import CompileUnsupported
    from repro.interp import compile as compile_mod

    def declined(program, metrics=None):
        raise CompileUnsupported("declined by the test")

    monkeypatch.setattr(compile_mod, "compiled_for", declined)


@st.composite
def tiny_specs(draw):
    return WorkloadSpec(
        name="fuzz",
        seed=draw(st.integers(1, 10_000)),
        n_functions=draw(st.integers(3, 10)),
        layers=draw(st.integers(2, 3)),
        main_iterations=draw(st.integers(2, 15)),
        loop_iters=(1, draw(st.integers(2, 5))),
        paths=(1, draw(st.integers(2, 5))),
        path_length=(1, draw(st.integers(1, 3))),
        phase=(1, draw(st.integers(1, 4))),
        branching=draw(st.sampled_from([0.5, 1.0, 1.5])),
        variety_choices=(1, 2, 3),
    )


@pytest.fixture
def diamond_program():
    """A loop with an if-else diamond; returns (program, n_iterations).

    Blocks: 1 entry, 2 head, 3 cond, 4 then, 5 else, 6 latch, 7 exit.
    Iteration i takes block 4 when i is even, block 5 when odd.
    """
    n = 6
    pb = ProgramBuilder()
    main = pb.function("main")
    b1 = main.block("entry")
    b2 = main.block("head")
    b3 = main.block("cond")
    b4 = main.block("then")
    b5 = main.block("else")
    b6 = main.block("latch")
    b7 = main.block("exit")
    b1.assign("i", 0).assign("acc", 0).jump(b2)
    b2.branch(binop("<", "i", n), b3, b7)
    b3.branch(binop("==", binop("%", "i", 2), 0), b4, b5)
    b4.assign("acc", binop("+", "acc", 1)).jump(b6)
    b5.assign("acc", binop("-", "acc", 1)).jump(b6)
    b6.assign("i", binop("+", "i", 1)).jump(b2)
    b7.ret("acc")
    return pb.build(), n


@pytest.fixture
def caller_program():
    """main calls leaf() in a loop; leaf branches on its argument."""
    pb = ProgramBuilder()
    leaf = pb.function("leaf", params=("sel",))
    l1 = leaf.block()
    l2 = leaf.block()
    l3 = leaf.block()
    l4 = leaf.block()
    l1.branch("sel", l2, l3)
    l2.assign("r", 1).jump(l4)
    l3.assign("r", 2).jump(l4)
    l4.ret("r")

    main = pb.function("main")
    m1 = main.block()
    m2 = main.block()
    m3 = main.block()
    m4 = main.block()
    m1.assign("i", 0).jump(m2)
    m2.branch(binop("<", "i", 7), m3, m4)
    m3.call("leaf", [binop("%", "i", 2)], dest="v").assign(
        "i", binop("+", "i", 1)
    ).jump(m2)
    m4.ret(0)
    return pb.build()


@pytest.fixture(scope="session")
def small_workload():
    """A small generated workload shared by integration tests."""
    from repro.workloads import workload

    program, spec = workload("perl-like", scale=0.25)
    wpp = collect_wpp(program)
    return program, spec, wpp


@pytest.fixture(scope="session")
def small_partitioned(small_workload):
    _program, _spec, wpp = small_workload
    return partition_wpp(wpp)
