"""Property tests for dynamic slicing over generated programs.

The three Agrawal-Horgan algorithms form a precision hierarchy by
construction; these tests check it (and basic slice sanity) over the
synthetic workload generator's functions rather than hand-picked
examples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import DynamicSlicer, ExpressionAvailable, TimestampSet
from repro.analysis.slicing import governing_instances
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import WorkloadSpec, generate_program


def traced_functions(seed: int):
    """(function, trace) pairs from one small generated workload."""
    spec = WorkloadSpec(
        name="slice-fuzz",
        seed=seed,
        n_functions=6,
        layers=2,
        main_iterations=6,
        loop_iters=(2, 4),
        paths=(2, 4),
        path_length=(1, 3),
        branching=1.0,
    )
    program = generate_program(spec)
    part = partition_wpp(collect_wpp(program))
    out = []
    for name in part.func_names:
        func = program.function(name)
        for trace in part.unique_traces(name)[:2]:
            out.append((func, trace))
    return out


@pytest.mark.parametrize("seed", [3, 17, 99, 2024])
class TestHierarchyOnGeneratedPrograms:
    def test_a3_subset_a2_subset_a1(self, seed):
        for func, trace in traced_functions(seed):
            slicer = DynamicSlicer(func, trace)
            # Slice on 'x' (the generator's loop-carried selector) at
            # the last executed block.
            last_block = trace[-1]
            criterion_ts = TimestampSet.single(len(trace))
            a1 = slicer.slice_approach1(last_block, ["x"]).slice_nodes
            a2 = slicer.slice_approach2(
                last_block, ["x"], criterion_ts
            ).slice_nodes
            a3 = slicer.slice_approach3(
                last_block, ["x"], criterion_ts
            ).slice_nodes
            assert a3 <= a2, (func.name, trace)
            assert a2 <= a1, (func.name, trace)

    def test_slices_contain_criterion_and_executed_nodes_only(self, seed):
        for func, trace in traced_functions(seed):
            slicer = DynamicSlicer(func, trace)
            executed = set(trace)
            last_block = trace[-1]
            for result in (
                slicer.slice_approach2(last_block, ["x"]),
                slicer.slice_approach3(last_block, ["x"]),
            ):
                assert last_block in result.slice_nodes
                # Dynamic approaches can only reach executed nodes.
                assert result.slice_nodes <= executed, func.name

    def test_cache_reuse_is_sound(self, seed):
        """Warm-cache slices equal cold-cache slices."""
        for func, trace in traced_functions(seed)[:3]:
            cold = DynamicSlicer(func, trace)
            warm = DynamicSlicer(func, trace)
            last_block = trace[-1]
            ts = TimestampSet.single(len(trace))
            first = warm.slice_approach3(last_block, ["x"], ts)
            again = warm.slice_approach3(last_block, ["x"], ts)
            reference = cold.slice_approach3(last_block, ["x"], ts)
            assert first.slice_nodes == reference.slice_nodes
            assert again.slice_nodes == reference.slice_nodes


class TestGoverningInstances:
    """The bisect choice equals the quadratic scan it replaced: for each
    instance, the largest parent execution strictly before it."""

    @settings(max_examples=300, deadline=None)
    @given(
        parents=st.sets(st.integers(1, 200), max_size=40),
        instances=st.sets(st.integers(1, 200), max_size=40),
    )
    def test_matches_linear_scan(self, parents, instances):
        parent_values = TimestampSet.from_values(parents).values()
        assert parent_values == sorted(parents)
        expected = []
        for t in TimestampSet.from_values(instances):
            earlier = [p for p in parent_values if p < t]
            if earlier:
                expected.append(max(earlier))
        assert governing_instances(
            parent_values, TimestampSet.from_values(instances)
        ) == expected
