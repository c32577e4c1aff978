"""Unit tests for the indexed .twpp on-disk format."""

import pytest

from repro.compact import (
    compact_wpp,
    extract_function_record,
    read_header,
    read_twpp,
    serialize_twpp,
    write_twpp,
)
from repro.compact.format import decode_body, decode_dictionary
from repro.trace import collect_wpp, partition_wpp, rebuild_parents, reconstruct_wpp
from repro.trace.encoding import read_uvarint
from repro.workloads import WORKLOAD_NAMES, figure1_program, workload


@pytest.fixture
def written(tmp_path, small_workload):
    program, _spec, wpp = small_workload
    compacted, _stats = compact_wpp(partition_wpp(wpp))
    path = tmp_path / "w.twpp"
    size = write_twpp(compacted, path)
    return program, wpp, compacted, path, size


class TestHeader:
    def test_hottest_first_ordering(self, written):
        _p, _w, compacted, path, _size = written
        with open(path, "rb") as fh:
            header = read_header(fh)
        counts = [e.call_count for e in header.entries]
        assert counts == sorted(counts, reverse=True)

    def test_offsets_contiguous(self, written):
        _p, _w, _c, path, size = written
        with open(path, "rb") as fh:
            header = read_header(fh)
        cursor = 0
        for entry in header.entries:
            assert entry.offset == cursor
            cursor += entry.length
        assert header.sections_base + cursor == size

    def test_entry_lookup(self, written):
        _p, _w, compacted, path, _size = written
        name = compacted.functions[0].name
        assert extract_function_record(path, name).name == name
        with pytest.raises(KeyError):
            extract_function_record(path, "ghost")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.twpp"
        path.write_bytes(b"NOPE")
        with open(path, "rb") as fh:
            with pytest.raises(ValueError, match="not a .twpp"):
                read_header(fh)


class TestFullRoundTrip:
    def test_read_twpp_equals_original(self, written):
        _p, _w, compacted, path, _size = written
        loaded = read_twpp(path)
        assert loaded.func_names == compacted.func_names
        assert list(loaded.dcg.node_func) == list(compacted.dcg.node_func)
        assert list(loaded.dcg.node_trace) == list(compacted.dcg.node_trace)
        for orig, back in zip(compacted.functions, loaded.functions):
            assert orig.name == back.name
            assert orig.call_count == back.call_count
            assert orig.trace_table == back.trace_table
            assert orig.dict_table == back.dict_table
            assert orig.pairs == back.pairs
            assert orig.twpp_table == back.twpp_table

    def test_wpp_reconstructible_from_disk(self, written):
        """The end-to-end losslessness claim: original WPP from .twpp."""
        program, wpp, _c, path, _size = written
        loaded = read_twpp(path)
        part = loaded.to_partitioned()
        rebuild_parents(part.dcg, part.traces, part.func_names, program)
        back = reconstruct_wpp(part, program)
        assert list(back.events) == list(wpp.events)

    def test_serialize_deterministic(self, written):
        _p, _w, compacted, _path, _size = written
        assert serialize_twpp(compacted) == serialize_twpp(compacted)

    def test_figure1_file(self, tmp_path):
        program = figure1_program()
        wpp = collect_wpp(program)
        compacted, _stats = compact_wpp(partition_wpp(wpp))
        path = tmp_path / "fig1.twpp"
        write_twpp(compacted, path)
        loaded = read_twpp(path)
        fc = loaded.function("f")
        assert fc.trace_table == [(1, 2, 2, 2, 10)]
        assert len(fc.dict_table) == 2


def _table_bytes(data, offset, decode):
    """Bytes of one counted record table's records (not its count), and
    the offset past it."""
    count, offset = read_uvarint(data, offset)
    start = offset
    for _ in range(count):
        _record, offset = decode(data, offset)
    return offset - start, offset


class TestTableAccounting:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_stats_count_the_records_written(self, name, tmp_path):
        """Table 2-3's CTWPP-trace and dictionary columns are the body
        and dictionary bytes the ``.twpp`` actually holds."""
        program, _spec = workload(name, scale=1.0)
        compacted, stats = compact_wpp(partition_wpp(collect_wpp(program)))
        path = tmp_path / "w.twpp"
        write_twpp(compacted, path)
        data = path.read_bytes()
        with open(path, "rb") as fh:
            header = read_header(fh)
        body_bytes = dict_bytes = 0
        for entry in header.entries:
            start = header.sections_base + entry.offset
            section = data[start : start + entry.length]
            size, offset = _table_bytes(section, 0, decode_body)
            body_bytes += size
            size, offset = _table_bytes(section, offset, decode_dictionary)
            dict_bytes += size
        assert body_bytes > 0 and dict_bytes > 0
        assert (stats.ctwpp_trace_bytes, stats.dictionary_bytes) == (
            body_bytes,
            dict_bytes,
        )
