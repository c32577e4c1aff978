"""Unit tests for the synthetic workload generator."""

import pytest

from repro.interp import run_program
from repro.ir import verify_program
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import (
    WORKLOAD_NAMES,
    WorkloadSpec,
    generate_program,
    spec_for,
    workload,
)

SMALL = WorkloadSpec(
    name="tiny",
    seed=7,
    n_functions=8,
    layers=3,
    main_iterations=12,
    loop_iters=(2, 4),
    paths=(2, 4),
    path_length=(1, 3),
    branching=1.0,
)


class TestDeterminism:
    def test_same_spec_same_program(self):
        a = generate_program(SMALL)
        b = generate_program(SMALL)
        wa = collect_wpp(a)
        wb = collect_wpp(b)
        assert wa.func_names == wb.func_names
        assert list(wa.events) == list(wb.events)

    def test_different_seed_different_trace(self):
        from dataclasses import replace

        a = collect_wpp(generate_program(SMALL))
        b = collect_wpp(generate_program(replace(SMALL, seed=8)))
        assert list(a.events) != list(b.events)


class TestStructure:
    def test_programs_verify(self):
        for name in WORKLOAD_NAMES:
            program, _spec = workload(name, scale=0.05)
            verify_program(program)

    def test_terminates_within_fuel(self):
        program = generate_program(SMALL)
        result = run_program(program, max_events=1_000_000)
        assert result.blocks_executed > 0

    def test_layers_reachable(self):
        program = generate_program(SMALL)
        part = partition_wpp(collect_wpp(program))
        layers = {name.split("_")[1] for name in part.func_names if name != "main"}
        assert layers == {"0", "1", "2"}

    def test_variety_caps_unique_traces(self):
        """A function's unique trace count never exceeds its selector
        variety (behaviour is a pure function of the selector)."""
        program = generate_program(SMALL)
        part = partition_wpp(collect_wpp(program))
        varieties = {}
        for func in program:
            for block in func.blocks.values():
                for call in block.calls():
                    # selector expression is (x % variety)
                    expr = call.args[0]
                    varieties.setdefault(call.callee, set()).add(
                        expr.right.value
                    )
        uniq = part.unique_trace_counts()
        for name, vs in varieties.items():
            if name in uniq:
                assert uniq[name] <= max(vs), name

    def test_scale_grows_trace(self):
        small = collect_wpp(workload("perl-like", scale=0.1)[0])
        big = collect_wpp(workload("perl-like", scale=0.3)[0])
        assert len(big) > len(small)


class TestSpecs:
    def test_spec_lookup(self):
        assert spec_for("go-like").name == "go-like"
        with pytest.raises(KeyError, match="unknown workload"):
            spec_for("nope")

    def test_scale_passthrough(self):
        assert spec_for("go-like", scale=2.0).scale == 2.0
        assert spec_for("go-like").scale == 1.0

    def test_too_few_functions_rejected(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="per layer"):
            generate_program(replace(SMALL, n_functions=2, layers=3))


class TestShapeKnobs:
    def test_prologue_calls_mode(self):
        from dataclasses import replace

        spec = replace(SMALL, branching=0.0, prologue_calls=(1, 1))
        program = generate_program(spec)
        part = partition_wpp(collect_wpp(program))
        # Calls still happen (every layer reachable) ...
        assert len(part.func_names) > 3
        # ... but each non-leaf activation makes exactly its prologue
        # calls, so sibling counts stay flat rather than geometric.
        counts = part.call_counts()
        assert max(counts.values()) <= SMALL.main_iterations + 1

    def test_phase_controls_series(self):
        """Long phases produce longer arithmetic series in the TWPP."""
        from dataclasses import replace

        from repro.compact import compact_wpp

        churn = replace(SMALL, phase=(1, 1), loop_iters=(8, 8), paths=(4, 4))
        stable = replace(SMALL, phase=(8, 8), loop_iters=(8, 8), paths=(4, 4))
        factors = {}
        for label, spec in (("churn", churn), ("stable", stable)):
            part = partition_wpp(collect_wpp(generate_program(spec)))
            _c, stats = compact_wpp(part)
            factors[label] = stats.twpp_factor
        assert factors["stable"] > factors["churn"]
