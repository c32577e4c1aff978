"""Tests for streaming ingest (compact.stream) and the one route from a
run to a ``.twpp`` it shares with the two-phase pipeline."""

import errno
import importlib
import sys

import pytest

import repro
from repro.compact.format import serialize_twpp, write_twpp
from repro.compact.lzw import lzw_compress
from repro.compact.pipeline import compact_function, compact_wpp
from repro.compact.qserve import QueryEngine
from repro.compact.query import read_twpp
from repro.compact.stream import StreamResult, stream_compact
from repro.compact.twpp import trace_to_twpp, twpp_to_trace
from repro.interp import FuelExhausted
from repro.obs import MetricsRegistry
from repro.trace import (
    OnlinePartitioner,
    collect_wpp,
    partition_wpp,
    trace_from_tuples,
)
from repro.workloads import (
    FIGURE1_F_TRACE_A,
    FIGURE1_F_TRACE_B,
    WORKLOAD_NAMES,
    workload,
)

from .conftest import decline_compile

twpp_format = importlib.import_module("repro.compact.format")


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

    def test_identical_across_workloads(self, tmp_path, monkeypatch):
        """Both routes write the same bytes on every workload, on the
        compiled engine and on the tree-walker it falls back to."""
        for name in WORKLOAD_NAMES:
            program, _spec = workload(name, scale=0.1)
            for engine in ("compiled", "tree"):
                with monkeypatch.context() as patch:
                    if engine == "tree":
                        decline_compile(patch)
                    compacted, _ = compact_wpp(
                        partition_wpp(collect_wpp(program))
                    )
                    ref = serialize_twpp(compacted)
                    out = tmp_path / f"{name}-{engine}.twpp"
                    metrics = MetricsRegistry()
                    stream_compact(program, out, metrics=metrics)
                fell_back = metrics.counters.get("interp.fallbacks", 0)
                assert fell_back == (engine == "tree"), (name, engine)
                assert out.read_bytes() == ref, (name, engine)

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
        assert metrics.counter("ingest.bytes_written") == res.bytes_written
        timers = metrics.timers_ms
        for timer in (
            "ingest.total",
            "ingest.execute",
            "ingest.finalize",
            "ingest.write",
        ):
            assert timer in timers
        # Compaction runs after the run, inside finalize: the stages
        # add up to the total.
        assert timers["ingest.finalize"] > 0
        assert timers["ingest.execute"] + timers["ingest.finalize"] + (
            timers["ingest.write"]
        ) == pytest.approx(timers["ingest.total"], rel=0.05, abs=1.0)
        # Neither inline compaction nor the consumer thread exists.
        for timer in (
            "ingest.compact",
            "ingest.interp",
            "ingest.stall",
            "ingest.drain",
            "ingest.serialize",
        ):
            assert timer not in timers
        for counter in (
            "ingest.run_flushes",
            "ingest.queue_stalls",
            "ingest.traces_compacted",
        ):
            assert counter not in metrics.counters
        for histogram in ("ingest.queue_depth", "ingest.section_bytes"):
            assert histogram not in metrics.histograms


class TestOneCompactor:
    def test_inline_path_matches_compact_function(self):
        """Both routes reach compact_wpp through the one partitioner: the
        same activations give the same tables and sizes, including
        Figure 5's shared body for ``f`` (traces A and B fold to one
        body under two dictionaries)."""
        unique = [FIGURE1_F_TRACE_A, FIGURE1_F_TRACE_B, (1, 10), (1, 2, 10)]
        activations = unique[:2] + unique + unique[1:]  # repeats dedup
        tracer = OnlinePartitioner()
        events = []
        for trace in activations:
            tracer.enter("f")
            tracer.block_run(list(trace))
            tracer.leave()
            events += [("enter", "f"), *(("block", b) for b in trace)]
            events.append(("leave",))
        streamed, streamed_stats = compact_wpp(tracer.finish())
        staged, staged_stats = compact_wpp(
            partition_wpp(trace_from_tuples(events))
        )

        fc = staged.function("f")
        assert fc.call_count == len(activations)
        assert twpp_to_trace(fc.twpp_table[0]) == (1, 2, 2, 2, 10)
        assert fc.pairs[:2] == [(0, 0), (0, 1)]  # one body, two dicts
        assert streamed.function("f") == fc
        assert compact_function("f", len(activations), unique).function == fc
        assert streamed_stats == staged_stats
        assert staged_stats.dictionary_bytes > 0


@pytest.fixture
def lzw_calls(monkeypatch):
    """Count ``lzw_compress`` calls made through any ``repro`` module."""
    calls = []

    def counting(data):
        calls.append(len(data))
        return lzw_compress(data)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "lzw_compress", None) is lzw_compress
        ):
            monkeypatch.setattr(module, "lzw_compress", counting)
    return calls


class TestDcgCompressedOnce:
    def test_stream_compact(self, perl_small, tmp_path, lzw_calls):
        res = stream_compact(perl_small, tmp_path / "s.twpp")
        assert len(lzw_calls) == 1
        raw_len, dcg_lzw = res.compacted.compressed_dcg()
        assert len(lzw_calls) == 1  # kept, not compressed again
        assert res.stats.dcg_raw_bytes == raw_len
        assert res.stats.dcg_lzw_bytes == len(dcg_lzw)

    def test_compact_then_save(self, perl_small, tmp_path, lzw_calls):
        wpp = collect_wpp(perl_small)
        result = repro.compact(wpp)
        result.save(tmp_path / "t.twpp")
        assert len(lzw_calls) == 1
        with QueryEngine(tmp_path / "t.twpp") as engine:
            assert engine.header.dcg_comp_len == result.stats.dcg_lzw_bytes


class TestRecordsEncodedOnce:
    """Each unique body and dictionary is encoded once per compaction:
    the bytes measured for Tables 2-3 are the bytes the writer writes."""

    @pytest.fixture
    def encode_calls(self, monkeypatch):
        from repro.compact import format as format_mod

        calls = {"body": [], "dict": []}
        for kind, name in (
            ("body", "encode_body"), ("dict", "encode_dictionary")
        ):
            original = getattr(format_mod, name)

            def counting(record, _calls=calls[kind], _original=original):
                _calls.append(record)
                return _original(record)

            monkeypatch.setattr(format_mod, name, counting)
        return calls

    def _assert_once(self, calls, compacted):
        bodies = [b for fc in compacted.functions for b in fc.twpp_table]
        dicts = [d for fc in compacted.functions for d in fc.dict_table]
        assert [id(b) for b in calls["body"]] == [id(b) for b in bodies]
        assert [id(d) for d in calls["dict"]] == [id(d) for d in dicts]

    def test_stream_compact(
        self, perl_small, two_phase_bytes, tmp_path, encode_calls
    ):
        ref, _ = two_phase_bytes
        out = tmp_path / "s.twpp"
        res = stream_compact(perl_small, out)
        self._assert_once(encode_calls, res.compacted)
        assert out.read_bytes() == ref

    def test_compact_then_save(
        self, perl_small, two_phase_bytes, tmp_path, encode_calls
    ):
        ref, _ = two_phase_bytes
        result = repro.compact(collect_wpp(perl_small))
        result.save(tmp_path / "t.twpp")
        self._assert_once(encode_calls, result.compacted)
        assert (tmp_path / "t.twpp").read_bytes() == ref

    def test_replaced_record_is_encoded_again(self, perl_small):
        compacted, _stats = compact_wpp(partition_wpp(collect_wpp(perl_small)))
        fc = compacted.functions[0]
        fc.twpp_table[0] = replacement = trace_to_twpp((1, 2, 2))
        back = twpp_format._parse_section(
            twpp_format._serialize_section(fc), fc.name, fc.call_count
        )
        assert back == fc
        assert back.twpp_table[0] == replacement


class TestAtomicWrite:
    def test_mapped_engine_reads_after_rewrite(self, tmp_path):
        """Rewriting a path replaces the file instead of truncating the
        inode an open engine has mapped (truncation kills the process
        with SIGBUS on the engine's next section read)."""
        big, _spec = workload("gcc-like", scale=1.0)
        small, _spec = workload("li-like", scale=0.1)
        path = tmp_path / "run.twpp"
        first = stream_compact(big, path)
        with QueryEngine(path, cache_bytes=0) as engine:
            assert engine.header.entries
            stream_compact(small, path)
            assert engine.traces("main") == (
                first.compacted.function("main").traces()
            )
        assert read_twpp(path).func_names != first.compacted.func_names

    def test_failed_write_keeps_old_file(
        self, perl_small, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.twpp"
        stream_compact(perl_small, path)
        old = path.read_bytes()
        other, _spec = workload("li-like", scale=0.1)
        compacted, _stats = compact_wpp(partition_wpp(collect_wpp(other)))
        real_open = open

        class DiskFull:
            """A file that takes half of a write, then runs out of space."""

            def __init__(self, *args):
                self.fh = real_open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(twpp_format, "open", DiskFull, raising=False)
        with pytest.raises(OSError, match="No space"):
            write_twpp(compacted, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["run.twpp"]


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

    @pytest.mark.parametrize(
        "flags", [{"output": "x.twpp"}, {"verify": True}],
        ids=["output", "verify"],
    )
    def test_session_trace_stream_flags_need_stream(
        self, perl_small, tmp_path, monkeypatch, flags
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError, match="stream=True"):
            repro.Session().trace(perl_small, **flags)
        assert list(tmp_path.iterdir()) == []

    def test_cli_verify_needs_stream(self, tmp_path, capsys):
        from repro.cli import main
        from repro.ir.printer import format_program

        program, _spec = workload("perl-like", scale=0.1)
        ir = tmp_path / "p.ir"
        ir.write_text(format_program(program) + "\n")
        out = tmp_path / "v.wpp"
        assert main(["trace", str(ir), "-o", str(out), "--verify"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --verify requires --stream\n"
        assert captured.out == ""
        assert not out.exists()
        assert main(["trace", str(ir), "-o", str(out)]) == 0
        assert out.exists()

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
