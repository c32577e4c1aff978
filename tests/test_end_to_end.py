"""End-to-end property tests: random programs through the full pipeline.

Every randomly generated program must survive the complete round trip:

    run -> WPP -> partition -> compact -> serialize -> deserialize
        -> expand -> reconstruct == original WPP

and the three representations (.wpp scan, .twpp extraction, Sequitur
extraction) must agree on every function's path traces.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compact import compact_wpp, read_twpp, serialize_twpp, write_twpp
from repro.sequitur import compress_wpp
from repro.trace import (
    collect_wpp,
    partition_wpp,
    reconstruct_wpp,
)
from repro.workloads import generate_program

from .conftest import tiny_specs


class TestPipelineRoundTrip:
    @given(tiny_specs())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_lossless_through_memory(self, spec):
        program = generate_program(spec)
        wpp = collect_wpp(program, max_events=500_000)
        wpp.validate()
        part = partition_wpp(wpp)
        compacted, stats = compact_wpp(part)
        # Size accounting invariants hold for every random program.
        assert stats.owpp_trace_bytes >= stats.dedup_trace_bytes
        assert stats.dedup_trace_bytes >= stats.dict_stage_trace_bytes
        back = reconstruct_wpp(compacted.to_partitioned(), program)
        assert list(back.events) == list(wpp.events)

    @given(tiny_specs())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_lossless_through_serialization(self, spec):
        program = generate_program(spec)
        wpp = collect_wpp(program, max_events=500_000)
        compacted, _stats = compact_wpp(partition_wpp(wpp))
        from repro.compact.format import serialize_twpp
        import io

        data = serialize_twpp(compacted)
        # Round-trip through bytes without touching the filesystem.
        import tempfile, os

        with tempfile.NamedTemporaryFile(delete=False) as fh:
            fh.write(data)
            path = fh.name
        try:
            loaded = read_twpp(path)
        finally:
            os.unlink(path)
        assert loaded.dcg == compacted.dcg
        part = loaded.to_partitioned()
        back = reconstruct_wpp(part, program)
        assert list(back.events) == list(wpp.events)

    @given(tiny_specs())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sequitur_agrees(self, spec):
        program = generate_program(spec)
        wpp = collect_wpp(program, max_events=200_000)
        grammar = compress_wpp(wpp)
        assert list(grammar.expand_iter()) == list(wpp.events)


class TestThreeRepresentationsAgree:
    def test_per_function_traces_identical(self, tmp_path, small_workload):
        from repro.compact import extract_function_traces, write_twpp
        from repro.sequitur import (
            extract_function_traces_sequitur,
            write_compressed_wpp,
        )
        from repro.trace import scan_function_traces, write_wpp

        program, _spec, wpp = small_workload
        part = partition_wpp(wpp)
        compacted, _stats = compact_wpp(part)
        wpp_path = tmp_path / "a.wpp"
        twpp_path = tmp_path / "a.twpp"
        sqwp_path = tmp_path / "a.sqwp"
        write_wpp(wpp, wpp_path)
        write_twpp(compacted, twpp_path)
        write_compressed_wpp(wpp, sqwp_path)

        for name in part.func_names:
            scanned = scan_function_traces(wpp_path, name)
            seq = extract_function_traces_sequitur(sqwp_path, name)
            compact_unique = extract_function_traces(twpp_path, name)
            assert scanned == seq
            assert set(scanned) == set(compact_unique)
            # Unique traces preserve first-seen order.
            first_seen = []
            for t in scanned:
                if t not in first_seen:
                    first_seen.append(t)
            assert first_seen == compact_unique
