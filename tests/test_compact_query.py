"""Unit tests for the fast per-function query path over .twpp files."""

import os

import pytest

from repro.compact import (
    MmapSource,
    QueryEngine,
    compact_wpp,
    extract_function_record,
    extract_function_traces,
    write_twpp,
)
from repro.trace import partition_wpp, scan_function_traces, write_wpp


@pytest.fixture
def files(tmp_path, small_workload):
    program, _spec, wpp = small_workload
    part = partition_wpp(wpp)
    compacted, _stats = compact_wpp(part)
    twpp_path = tmp_path / "w.twpp"
    wpp_path = tmp_path / "w.wpp"
    write_twpp(compacted, twpp_path)
    write_wpp(wpp, wpp_path)
    return part, compacted, twpp_path, wpp_path


def cold_engine(path):
    """An uncached engine: every query decodes its section afresh."""
    return QueryEngine(path, cache_bytes=0)


class TestReader:
    def test_function_names_hottest_first(self, files):
        part, _c, twpp_path, _w = files
        with cold_engine(twpp_path) as reader:
            names = reader.function_names()
        counts = part.call_counts()
        assert [counts[n] for n in names] == sorted(
            counts.values(), reverse=True
        )

    def test_call_count(self, files):
        part, _c, twpp_path, _w = files
        with cold_engine(twpp_path) as reader:
            for name, count in part.call_counts().items():
                assert reader.call_count(name) == count

    def test_extract_matches_in_memory(self, files):
        part, compacted, twpp_path, _w = files
        target = compacted.functions[0].name
        with cold_engine(twpp_path) as reader:
            fc = reader.extract(target)
        orig = compacted.function(target)
        assert fc.twpp_table == orig.twpp_table
        assert fc.pairs == orig.pairs

    def test_unknown_function(self, files):
        _p, _c, twpp_path, _w = files
        with cold_engine(twpp_path) as reader:
            with pytest.raises(KeyError, match="ghost"):
                reader.extract("ghost")

    def test_unique_path_traces_expand_dbbs(self, files):
        part, _c, twpp_path, _w = files
        name = part.func_names[1]
        with cold_engine(twpp_path) as reader:
            traces = reader.traces(name)
        idx = part.func_index(name)
        assert traces == part.traces[idx]


class TestColdQueries:
    def test_extract_function_traces(self, files):
        part, _c, twpp_path, _w = files
        for name in part.func_names[:4]:
            idx = part.func_index(name)
            assert extract_function_traces(twpp_path, name) == part.traces[idx]

    def test_extract_function_record(self, files):
        _p, compacted, twpp_path, _w = files
        name = compacted.functions[0].name
        fc = extract_function_record(twpp_path, name)
        assert fc.name == name

    def test_extract_function_module_level(self, files):
        _p, compacted, twpp_path, _w = files
        name = compacted.functions[0].name
        fc = extract_function_record(twpp_path, name)
        assert fc.twpp_table == compacted.function(name).twpp_table


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc fd accounting"
)
class TestCorruptHeader:
    """A bad header must raise without leaking the open file handle."""

    CASES = {
        "bad-magic": b"XWPP" + b"\x00" * 16,
        "overlong-varint": b"TWPP" + b"\xff" * 32,
        "truncated-index": b"TWPP\x05\x03ab",
        "empty": b"",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reader_closes_handle_on_header_error(self, tmp_path, case):
        bad = tmp_path / f"{case}.twpp"
        bad.write_bytes(self.CASES[case])
        before = _open_fds()
        with pytest.raises(ValueError):
            MmapSource(bad)
        assert _open_fds() == before

    @pytest.mark.parametrize("cached", [True, False])
    def test_engine_closes_handle_on_header_error(self, tmp_path, cached):
        bad = tmp_path / "bad.twpp"
        bad.write_bytes(self.CASES["overlong-varint"])
        before = _open_fds()
        with pytest.raises(ValueError):
            if cached:
                QueryEngine(bad)
            else:
                QueryEngine(bad, cache_bytes=0)
        assert _open_fds() == before


class TestEngineParameter:
    """A warm engine answers what the cold helpers answer."""

    def test_traces_via_engine(self, files):
        part, _c, twpp_path, _w = files
        name = part.func_names[0]
        with QueryEngine(twpp_path) as engine:
            cold = extract_function_traces(twpp_path, name)
            warm = engine.traces(name)
            assert warm == cold
            assert engine.cache_stats()["entries"] >= 1

    def test_record_via_engine(self, files):
        _p, compacted, twpp_path, _w = files
        name = compacted.functions[0].name
        with QueryEngine(twpp_path) as engine:
            fc = engine.extract(name)
            assert fc.twpp_table == compacted.function(name).twpp_table
            cold = extract_function_record(twpp_path, name)
            assert cold.twpp_table == fc.twpp_table


class TestAgreementWithScan:
    def test_compacted_and_scan_agree_on_unique_sets(self, files):
        """The two extraction paths (Table 4's U and C) agree."""
        part, _c, twpp_path, wpp_path = files
        for name in part.func_names:
            compacted_traces = set(extract_function_traces(twpp_path, name))
            scanned = scan_function_traces(wpp_path, name)
            assert set(scanned) == compacted_traces
            assert len(scanned) == part.call_counts()[name]
