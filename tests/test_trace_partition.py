"""Unit tests for WPP partitioning (path traces + DCG)."""

import pytest

from array import array

from repro.obs import MetricsRegistry
from repro.trace import (
    BLOCK,
    ENTER,
    LEAVE,
    DynamicCallGraph,
    WppTrace,
    collect_wpp,
    dcg_children,
    pack_event,
    pair_call_counts,
    partition_wpp,
    trace_from_tuples,
)


def children_of(part, program):
    """The DCG's children, derived from preorder plus call counts."""
    return dcg_children(
        part.dcg, pair_call_counts(part.func_names, part.traces, program)
    )


class TestPartition:
    def test_single_activation(self):
        wpp = trace_from_tuples(
            [("enter", "main"), ("block", 1), ("block", 2), ("leave",)]
        )
        part = partition_wpp(wpp)
        assert part.unique_traces("main") == [(1, 2)]
        assert len(part.dcg) == 1
        assert dcg_children(part.dcg, [[0]]) == [[]]

    def test_dedup_on_the_fly(self, caller_program):
        part = partition_wpp(collect_wpp(caller_program))
        assert part.call_counts() == {"main": 1, "leaf": 7}
        assert part.unique_trace_counts() == {"main": 1, "leaf": 2}
        # 7 activations reference only 2 stored traces.
        leaf_idx = part.func_index("leaf")
        refs = [
            part.dcg.node_trace[n]
            for n in range(len(part.dcg))
            if part.dcg.node_func[n] == leaf_idx
        ]
        assert len(refs) == 7
        assert set(refs) == {0, 1}

    def test_parents_recorded(self, caller_program):
        part = partition_wpp(collect_wpp(caller_program))
        children = children_of(part, caller_program)
        main_idx = part.func_index("main")
        assert part.dcg.node_func[0] == main_idx
        # Every leaf activation is a child of main's root activation.
        assert children[0] == list(range(1, len(part.dcg)))
        assert not any(children[1:])

    def test_nested_calls(self):
        wpp = trace_from_tuples(
            [
                ("enter", "a"),
                ("block", 1),
                ("enter", "b"),
                ("block", 1),
                ("enter", "c"),
                ("block", 9),
                ("leave",),
                ("block", 2),
                ("leave",),
                ("block", 2),
                ("leave",),
            ]
        )
        part = partition_wpp(wpp)
        assert part.unique_traces("a") == [(1, 2)]
        assert part.unique_traces("b") == [(1, 2)]
        assert part.unique_traces("c") == [(9,)]
        # a's and b's traces each execute one call, c's none.
        assert dcg_children(part.dcg, [[1], [1], [0]]) == [[1], [2], []]

    def test_unbalanced_raises(self):
        wpp = trace_from_tuples([("enter", "a"), ("block", 1)])
        with pytest.raises(ValueError, match="never closed"):
            partition_wpp(wpp)

    def test_func_names_kept_as_given(self):
        """The WPP's index space survives, a never-entered name included."""
        events = array("Q", [
            pack_event(ENTER, 2),
            pack_event(BLOCK, 1),
            pack_event(ENTER, 0),
            pack_event(BLOCK, 3),
            pack_event(LEAVE),
            pack_event(LEAVE),
        ])
        wpp = WppTrace(func_names=["leaf", "ghost", "main"], events=events)
        metrics = MetricsRegistry()
        part = partition_wpp(wpp, metrics=metrics)
        assert part.func_names == ["leaf", "ghost", "main"]
        assert list(part.dcg.node_func) == [2, 0]
        assert part.unique_traces("ghost") == []
        assert part.unique_traces("main") == [(1,)]
        assert part.call_counts() == {"leaf": 1, "ghost": 0, "main": 1}
        assert metrics.counter("partition.events") == 6
        assert metrics.counter("partition.activations") == 2
        assert metrics.counter("partition.functions") == 3
        assert metrics.counter("partition.unique_traces") == 2
        assert "partition" in metrics.timers_ms

    def test_duplicate_function_name_rejected(self):
        events = array("Q", [pack_event(ENTER, 1), pack_event(LEAVE)])
        with pytest.raises(ValueError, match="twice"):
            partition_wpp(WppTrace(func_names=["f", "f"], events=events))

    def test_enter_past_the_name_table_rejected(self):
        events = array("Q", [pack_event(ENTER, 5), pack_event(LEAVE)])
        with pytest.raises(ValueError, match="past the WPP's 1 names"):
            partition_wpp(WppTrace(func_names=["main"], events=events))

    def test_unknown_lookup_raises(self, caller_program):
        part = partition_wpp(collect_wpp(caller_program))
        with pytest.raises(KeyError):
            part.func_index("ghost")


class TestSizeAccounting:
    def test_redundant_bytes_exceed_deduped(self, caller_program):
        part = partition_wpp(collect_wpp(caller_program))
        assert part.trace_bytes_with_redundancy() > part.trace_bytes_deduped()

    def test_redundant_bytes_formula(self):
        # Two identical activations: pre-dedup counts the trace twice.
        wpp = trace_from_tuples(
            [
                ("enter", "m"),
                ("block", 1),
                ("enter", "f"),
                ("block", 1),
                ("leave",),
                ("enter", "f"),
                ("block", 1),
                ("leave",),
                ("leave",),
            ]
        )
        part = partition_wpp(wpp)
        # f's trace (1,) costs 2 bytes serialized (len + id).
        assert part.trace_bytes_deduped() == 2 + 2  # one f copy + main
        assert part.trace_bytes_with_redundancy() == 2 + 2 + 2

    def test_dcg_bytes_positive(self, small_partitioned):
        assert small_partitioned.dcg_bytes() > 0


class TestDcgSerialization:
    def test_roundtrip(self, small_partitioned):
        data = small_partitioned.dcg.serialize()
        back = DynamicCallGraph.deserialize(data)
        assert list(back.node_func) == list(small_partitioned.dcg.node_func)
        assert list(back.node_trace) == list(small_partitioned.dcg.node_trace)

    def test_trailing_bytes_rejected(self, small_partitioned):
        data = small_partitioned.dcg.serialize() + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            DynamicCallGraph.deserialize(data)

    def test_children_lists(self, caller_program):
        part = partition_wpp(collect_wpp(caller_program))
        children = children_of(part, caller_program)
        assert len(children[0]) == 7  # main's children in call order
        assert children[0] == sorted(children[0])

    def test_calls_per_function(self, caller_program):
        part = partition_wpp(collect_wpp(caller_program))
        counts = part.dcg.calls_per_function(len(part.func_names))
        assert counts[part.func_index("main")] == 1
        assert counts[part.func_index("leaf")] == 7

    def test_activation_counts(self):
        from array import array

        dcg = DynamicCallGraph(
            node_func=array("I", [0, 2, 1, 2, 2, 1]),
            node_trace=array("I", [0, 1, 0, 0, 1, 0]),
        )
        counts = dcg.activation_counts()
        # First-activation order, one key per (function, trace) taken.
        assert list(counts.items()) == [
            ((0, 0), 1),
            ((2, 1), 2),
            ((1, 0), 2),
            ((2, 0), 1),
        ]
        assert sum(counts.values()) == len(dcg)
