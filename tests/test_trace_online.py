"""Unit tests for online (streaming) partitioning."""

import pytest

from repro.interp import FuelExhausted, Interpreter, compiled_for, run_program
from repro.trace import (
    OnlinePartitioner,
    collect_wpp,
    partition_wpp,
    reconstruct_wpp,
)
from repro.workloads import figure1_program, workload


def partition_while_running(program):
    """Partition a run as it executes (the first step of streaming
    ingest)."""
    tracer = OnlinePartitioner()
    run_program(program, tracer=tracer)
    return tracer.finish()


def assert_partitions_equal(a, b):
    assert a.func_names == b.func_names
    assert a.traces == b.traces
    assert list(a.dcg.node_func) == list(b.dcg.node_func)
    assert list(a.dcg.node_trace) == list(b.dcg.node_trace)
    assert a.dcg == b.dcg


class TestEquivalence:
    def test_matches_offline_partitioning(self, caller_program):
        online = partition_while_running(caller_program)
        offline = partition_wpp(collect_wpp(caller_program))
        assert_partitions_equal(online, offline)

    def test_figure1(self):
        program = figure1_program()
        online = partition_while_running(program)
        offline = partition_wpp(collect_wpp(program))
        assert_partitions_equal(online, offline)

    def test_generated_workload(self):
        program, _spec = workload("gcc-like", scale=0.1)
        online = partition_while_running(program)
        offline = partition_wpp(collect_wpp(program))
        assert_partitions_equal(online, offline)

    def test_reconstruction_from_online(self, caller_program):
        online = partition_while_running(caller_program)
        wpp = collect_wpp(caller_program)
        back = reconstruct_wpp(online, caller_program)
        assert back.to_tuples() == wpp.to_tuples()


class TestStreamingProperties:
    def test_event_count_matches_raw_wpp(self, caller_program):
        tracer = OnlinePartitioner()
        run_program(caller_program, tracer=tracer)
        assert tracer.events_seen == len(collect_wpp(caller_program))
        assert tracer.open_activations == 0

    def test_finish_rejects_open_activations(self):
        tracer = OnlinePartitioner()
        tracer.enter("f")
        tracer.block_run([1])
        assert tracer.open_activations == 1
        with pytest.raises(ValueError, match="still open"):
            tracer.finish()

    def test_event_protocol_errors(self):
        tracer = OnlinePartitioner()
        with pytest.raises(ValueError, match="outside"):
            tracer.block_run([1])
        with pytest.raises(ValueError, match="unbalanced"):
            tracer.leave()

    def test_block_run_outside_activation_raises(self):
        tracer = OnlinePartitioner()
        with pytest.raises(ValueError, match="outside"):
            tracer.block_run([1, 2, 3])

    def test_block_run_defaults_to_full_buffer(self):
        tracer = OnlinePartitioner()
        tracer.enter("f")
        tracer.block_run([4, 5])
        tracer.leave()
        assert tracer.finish().unique_traces("f") == [(4, 5)]
        assert tracer.events_seen == 4  # enter + 2 blocks + leave

    def test_finish_rejects_open_activation_after_block_run(self):
        tracer = OnlinePartitioner()
        tracer.enter("f")
        tracer.block_run([1, 2])
        with pytest.raises(ValueError, match="still open"):
            tracer.finish()

    def test_interning_keeps_memory_compact(self):
        """1000 identical activations store one trace, 1000 DCG nodes."""
        tracer = OnlinePartitioner()
        tracer.enter("main")
        tracer.block_run([1])
        for _ in range(1000):
            tracer.enter("f")
            tracer.block_run([1, 2])
            tracer.leave()
        tracer.leave()
        part = tracer.finish()
        assert part.unique_trace_counts()["f"] == 1
        assert part.call_counts()["f"] == 1000
        assert len(part.dcg) == 1001


class TestBatchedProtocol:
    """The compiled engine's runs partition exactly as the runs of the
    tree-walking reference (the legacy engine) do."""

    def test_flush_ordering_matches_legacy(self, caller_program):
        batched = OnlinePartitioner()
        compiled_for(caller_program).run(tracer=batched)
        legacy = OnlinePartitioner()
        Interpreter(caller_program).run(tracer=legacy)
        assert_partitions_equal(batched.finish(), legacy.finish())
        assert batched.events_seen == legacy.events_seen

    def test_flush_ordering_matches_legacy_on_workload(self):
        program, _spec = workload("perl-like", scale=0.1)
        batched = OnlinePartitioner()
        compiled_for(program).run(tracer=batched)
        legacy = OnlinePartitioner()
        Interpreter(program).run(tracer=legacy)
        assert_partitions_equal(batched.finish(), legacy.finish())

    def test_max_events_truncation_mid_activation(self):
        """FuelExhausted mid-activation: pending runs flush first, and
        the tracer sees exactly max_events blocks on either engine."""
        program, _spec = workload("perl-like", scale=0.1)
        budget = 777  # cuts off inside some activation

        batched = OnlinePartitioner()
        with pytest.raises(FuelExhausted):
            compiled_for(program).run(tracer=batched, max_events=budget)
        legacy = OnlinePartitioner()
        with pytest.raises(FuelExhausted):
            Interpreter(program, max_events=budget).run(tracer=legacy)

        assert batched.events_seen == legacy.events_seen
        assert batched.open_activations == legacy.open_activations > 0
        assert batched._traces == legacy._traces
        with pytest.raises(ValueError, match="still open"):
            batched.finish()
