"""Tests for the one-pass streaming ingest pipeline (compact.stream)."""

import pytest

import repro
from repro.compact.format import serialize_twpp
from repro.compact.pipeline import (
    CompactionStats,
    compact_function,
    compact_wpp,
)
from repro.compact.query import read_twpp
from repro.compact.stream import StreamResult, _StreamingTracer, stream_compact
from repro.compact.twpp import twpp_to_trace
from repro.interp import FuelExhausted
from repro.obs import MetricsRegistry
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import FIGURE1_F_TRACE_A, FIGURE1_F_TRACE_B, workload


@pytest.fixture(scope="module")
def perl_small():
    program, _spec = workload("perl-like", scale=0.1)
    return program


@pytest.fixture(scope="module")
def two_phase_bytes(perl_small):
    compacted, stats = compact_wpp(partition_wpp(collect_wpp(perl_small)))
    return serialize_twpp(compacted), stats


class TestByteIdentity:
    def test_one_pass_identical_to_two_phase(
        self, perl_small, two_phase_bytes, tmp_path
    ):
        ref, _ = two_phase_bytes
        out = tmp_path / "stream.twpp"
        res = stream_compact(perl_small, out)
        assert out.read_bytes() == ref
        assert res.bytes_written == len(ref)

    def test_identical_across_workloads(self, tmp_path):
        for name in ("gcc-like", "go-like"):
            program, _spec = workload(name, scale=0.1)
            compacted, _ = compact_wpp(partition_wpp(collect_wpp(program)))
            ref = serialize_twpp(compacted)
            out = tmp_path / f"{name}.twpp"
            stream_compact(program, out)
            assert out.read_bytes() == ref

    def test_readable_by_standard_reader(self, perl_small, tmp_path):
        out = tmp_path / "stream.twpp"
        res = stream_compact(perl_small, out)
        loaded = read_twpp(out)
        assert loaded.func_names == res.compacted.func_names
        assert [fc.call_count for fc in loaded.functions] == [
            fc.call_count for fc in res.compacted.functions
        ]


class TestStatsAndResult:
    def test_stats_match_two_phase(
        self, perl_small, two_phase_bytes, tmp_path
    ):
        _, ref_stats = two_phase_bytes
        res = stream_compact(perl_small, tmp_path / "s.twpp")
        for name in (
            "owpp_trace_bytes",
            "dcg_raw_bytes",
            "dedup_trace_bytes",
            "dict_stage_trace_bytes",
            "dictionary_bytes",
            "ctwpp_trace_bytes",
            "dcg_lzw_bytes",
        ):
            assert getattr(res.stats, name) == getattr(ref_stats, name), name

    def test_result_unpacks_like_compact(self, perl_small, tmp_path):
        res = stream_compact(perl_small, tmp_path / "s.twpp")
        compacted, stats = res
        assert compacted is res.compacted and stats is res.stats
        assert res.events > 0 and res.events_per_sec > 0
        assert res.run.calls_made > 0

    def test_ingest_metrics_recorded(self, perl_small, tmp_path):
        metrics = MetricsRegistry()
        res = stream_compact(perl_small, tmp_path / "s.twpp", metrics=metrics)
        assert metrics.counter("ingest.events") == res.events
        assert metrics.counter("ingest.unique_traces") == sum(
            len(fc.pairs) for fc in res.compacted.functions
        )
        assert metrics.counter("ingest.run_flushes") > 0
        assert metrics.counter("ingest.bytes_written") == res.bytes_written
        for timer in (
            "ingest.total",
            "ingest.execute",
            "ingest.compact",
            "ingest.interp",
            "ingest.write",
        ):
            assert timer in metrics.timers_ms
        # Compaction runs inline: execute = compact + interp.
        timers = metrics.timers_ms
        assert timers["ingest.compact"] > 0
        assert timers["ingest.compact"] + timers["ingest.interp"] == (
            pytest.approx(timers["ingest.execute"], rel=0.05, abs=1.0)
        )
        # The consumer-thread metrics are gone.
        for timer in ("ingest.stall", "ingest.drain", "ingest.serialize"):
            assert timer not in metrics.timers_ms
        for counter in ("ingest.queue_stalls", "ingest.traces_compacted"):
            assert counter not in metrics.counters
        for histogram in ("ingest.queue_depth", "ingest.section_bytes"):
            assert histogram not in metrics.histograms


class TestOneCompactor:
    def test_inline_path_matches_compact_function(self):
        """Both routes share one compactor: the same traces give the same
        tables and sizes, including Figure 5's shared body for ``f``
        (traces A and B fold to one body under two dictionaries)."""
        unique = [FIGURE1_F_TRACE_A, FIGURE1_F_TRACE_B, (1, 10), (1, 2, 10)]
        tracer = _StreamingTracer()
        for trace in unique[:2] + unique + unique[1:]:  # repeats dedup
            tracer.enter("f")
            tracer.block_run(list(trace))
            tracer.leave()
        streamed = tracer.compactors[0]
        staged = compact_function("f", 0, unique)

        fc = staged.function
        assert twpp_to_trace(fc.twpp_table[0]) == (1, 2, 2, 2, 10)
        assert fc.pairs[:2] == [(0, 0), (0, 1)]  # one body, two dicts
        for table in ("dict_table", "pairs", "twpp_table"):
            assert getattr(streamed.function, table) == getattr(fc, table)
        for sizes in ("body_sizes", "dict_sizes", "twpp_sizes"):
            assert getattr(streamed, sizes) == getattr(staged, sizes)
            assert len(getattr(staged, sizes)) > 0
        a, b = CompactionStats(), CompactionStats()
        streamed.account(a)
        staged.account(b)
        assert a == b and a.dictionary_bytes > 0


class TestErrorPaths:
    def test_fuel_exhausted_propagates_without_threads(
        self, perl_small, tmp_path
    ):
        import threading

        before = threading.active_count()
        stream_compact(perl_small, tmp_path / "ok.twpp")
        assert threading.active_count() == before  # none started
        with pytest.raises(FuelExhausted):
            stream_compact(perl_small, tmp_path / "s.twpp", max_events=100)
        assert threading.active_count() == before

    def test_output_file_not_created_on_failure(self, perl_small, tmp_path):
        out = tmp_path / "never.twpp"
        with pytest.raises(FuelExhausted):
            stream_compact(perl_small, out, max_events=100)
        assert not out.exists()


class TestApiSurface:
    def test_module_verb(self, perl_small, tmp_path):
        res = repro.stream_compact(perl_small, tmp_path / "v.twpp")
        assert isinstance(res, StreamResult)

    def test_session_trace_stream(self, perl_small, tmp_path):
        out = tmp_path / "s.twpp"
        with repro.Session() as session:
            res = session.trace(perl_small, stream=True, output=out)
            assert isinstance(res, StreamResult)
            assert session.metrics.counter("ingest.events") == res.events
            # The streamed file is immediately queryable via the session.
            traces = session.query(out, res.compacted.func_names[0])
            assert traces == [
                res.compacted.functions[0].expand_pair(p)
                for p in range(len(res.compacted.functions[0].pairs))
            ]

    def test_session_trace_stream_requires_output(self, perl_small):
        with pytest.raises(TypeError, match="output"):
            repro.Session().trace(perl_small, stream=True)

    def test_cli_stream_matches_compact(self, tmp_path, capsys):
        from repro.cli import main
        from repro.ir.printer import format_program

        program, _spec = workload("perl-like", scale=0.1)
        ir = tmp_path / "p.ir"
        ir.write_text(format_program(program) + "\n")
        streamed = tmp_path / "s.twpp"
        staged_wpp = tmp_path / "p.wpp"
        staged = tmp_path / "t.twpp"
        assert main(["trace", str(ir), "-o", str(streamed), "--stream"]) == 0
        assert main(["trace", str(ir), "-o", str(staged_wpp)]) == 0
        assert main(["compact", str(staged_wpp), "-o", str(staged)]) == 0
        assert streamed.read_bytes() == staged.read_bytes()
        assert "streamed" in capsys.readouterr().out


class TestVerify:
    def test_verify_serial(self, perl_small, tmp_path):
        metrics = MetricsRegistry()
        res = stream_compact(
            perl_small, tmp_path / "v.twpp", verify=True, metrics=metrics
        )
        assert metrics.counter("ingest.verified_functions") == len(
            res.compacted.functions
        )
        assert "ingest.verify" in metrics.timers_ms

    def test_verify_output_unchanged(self, perl_small, two_phase_bytes, tmp_path):
        ref, _ = two_phase_bytes
        out = tmp_path / "v.twpp"
        stream_compact(perl_small, out, verify=True)
        assert out.read_bytes() == ref

    def test_verify_via_session(self, perl_small, tmp_path):
        with repro.Session() as session:
            res = session.trace(
                perl_small,
                stream=True,
                output=tmp_path / "v.twpp",
                verify=True,
            )
            metrics = session.metrics
            assert metrics.counter("ingest.verified_functions") == len(
                res.compacted.functions
            )

    def test_verify_detects_mismatch(self, perl_small, tmp_path):
        from repro.compact.stream import _verify_readback

        out = tmp_path / "small.twpp"
        stream_compact(perl_small, out)
        bigger, _spec = workload("perl-like", scale=0.3)
        other = stream_compact(bigger, tmp_path / "big.twpp")
        # Expectations from a different run of the same program shape:
        # at least one function's traces must read back differently.
        with pytest.raises(ValueError, match="stream verify failed"):
            _verify_readback(out, other.compacted.functions, MetricsRegistry())

    def test_cli_verify_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.ir.printer import format_program

        program, _spec = workload("perl-like", scale=0.1)
        ir = tmp_path / "p.ir"
        ir.write_text(format_program(program) + "\n")
        out = tmp_path / "v.twpp"
        assert main(["trace", str(ir), "-o", str(out), "--stream",
                     "--verify"]) == 0
        assert "verified" in capsys.readouterr().out
