"""Unit tests for the uncompacted .wpp file format."""

import pytest

from repro.trace import (
    collect_wpp,
    read_wpp,
    scan_function_traces,
    write_wpp,
)


class TestRoundTrip:
    def test_file_size_prediction(self, caller_program, tmp_path):
        wpp = collect_wpp(caller_program)
        path = tmp_path / "t.wpp"
        assert write_wpp(wpp, path) == path.stat().st_size

    def test_write_read(self, caller_program, tmp_path):
        wpp = collect_wpp(caller_program)
        path = tmp_path / "t.wpp"
        size = write_wpp(wpp, path)
        assert path.stat().st_size == size
        back = read_wpp(path)
        assert back.func_names == wpp.func_names
        assert list(back.events) == list(wpp.events)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.wpp"
        path.write_bytes(b"NOPE....")
        with pytest.raises(ValueError, match="not a .wpp"):
            read_wpp(path)


class TestScanExtraction:
    def test_extracts_all_activations(self, caller_program, tmp_path):
        wpp = collect_wpp(caller_program)
        path = tmp_path / "t.wpp"
        write_wpp(wpp, path)
        traces = scan_function_traces(path, "leaf")
        assert len(traces) == 7
        assert set(traces) == {(1, 2, 4), (1, 3, 4)}

    def test_extracts_main_without_nested_blocks(
        self, caller_program, tmp_path
    ):
        wpp = collect_wpp(caller_program)
        path = tmp_path / "t.wpp"
        write_wpp(wpp, path)
        (main_trace,) = scan_function_traces(path, "main")
        # main's trace holds only main's blocks; leaf's are excluded.
        assert main_trace == (1, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 4)

    def test_unknown_function_returns_empty(self, caller_program, tmp_path):
        wpp = collect_wpp(caller_program)
        path = tmp_path / "t.wpp"
        write_wpp(wpp, path)
        assert scan_function_traces(path, "ghost") == []

    def test_scan_agrees_with_partition(self, small_workload, tmp_path):
        program, _spec, wpp = small_workload
        from repro.trace import partition_wpp

        part = partition_wpp(wpp)
        path = tmp_path / "w.wpp"
        write_wpp(wpp, path)
        name = max(part.call_counts(), key=lambda n: part.call_counts()[n])
        scanned = scan_function_traces(path, name)
        assert len(scanned) == part.call_counts()[name]
        idx = part.func_index(name)
        assert set(scanned) == set(part.traces[idx])
