"""Unit tests for the indexed .twpp on-disk format."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import (
    compact_wpp,
    read_header,
    read_twpp,
    serialize_twpp,
    write_twpp,
)
from repro.compact import format as format_module
from repro.compact.format import (
    _parse_section,
    _serialize_section,
    decode_body,
    decode_dictionary,
    encode_body,
    encode_dictionary,
    record_ints,
)
from repro.compact.pipeline import FunctionCompactor
from repro.compact.qserve import QueryEngine
from repro.compact.series import TimestampSet
from repro.compact.twpp import TwppPathTrace, twpp_to_trace
from repro.corpus.blobs import KIND_BODY, KIND_DICT, decode_record
from repro.trace import collect_wpp, partition_wpp, reconstruct_wpp
from repro.trace.encoding import decode_uvarints
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
        with QueryEngine(path, cache_bytes=0) as cold:
            assert cold.extract(name).name == name
            with pytest.raises(KeyError):
                cold.extract("ghost")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.twpp"
        path.write_bytes(b"NOPE")
        with open(path, "rb") as fh:
            with pytest.raises(ValueError, match="not a .twpp"):
                read_header(fh)

    def test_bad_magic_in_a_large_file_reads_once(self):
        fh = _CountingReader(b"NOPE" + bytes(1 << 20))
        with pytest.raises(ValueError, match="not a .twpp"):
            read_header(fh)
        assert fh.reads == 1

    def test_header_longer_than_the_first_read(self, written, monkeypatch):
        _p, _w, _c, path, _size = written
        data = path.read_bytes()
        whole = read_header(io.BytesIO(data))
        monkeypatch.setattr(format_module, "_HEADER_READ", 8)
        fh = _CountingReader(data)
        assert read_header(fh) == whole
        assert fh.reads > 1

    def test_header_cut_short_is_a_value_error(self, written, monkeypatch):
        _p, _w, _c, path, _size = written
        data = path.read_bytes()
        cut = read_header(io.BytesIO(data)).dcg_start - 1
        monkeypatch.setattr(format_module, "_HEADER_READ", 8)
        with pytest.raises(ValueError, match="truncated"):
            read_header(io.BytesIO(data[:cut]))


class _CountingReader(io.BytesIO):
    """An in-memory file that counts its ``read`` calls."""

    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


class TestFullRoundTrip:
    def test_read_twpp_equals_original(self, written):
        _p, _w, compacted, path, _size = written
        loaded = read_twpp(path)
        assert loaded.func_names == compacted.func_names
        assert list(loaded.dcg.node_func) == list(compacted.dcg.node_func)
        assert list(loaded.dcg.node_trace) == list(compacted.dcg.node_trace)
        assert loaded.dcg == compacted.dcg
        for orig, back in zip(compacted.functions, loaded.functions):
            assert orig.name == back.name
            assert orig.call_count == back.call_count
            assert orig.dict_table == back.dict_table
            assert orig.pairs == back.pairs
            assert orig.twpp_table == back.twpp_table

    def test_wpp_reconstructible_from_disk(self, written):
        """The end-to-end losslessness claim: original WPP from .twpp."""
        program, wpp, _c, path, _size = written
        loaded = read_twpp(path)
        part = loaded.to_partitioned()
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
        assert [twpp_to_trace(t) for t in fc.twpp_table] == [(1, 2, 2, 2, 10)]
        assert len(fc.dict_table) == 2


def _table_bytes(section, index, decode):
    """Bytes of one counted record table's records (not its count), and
    the int index past it.  Every section byte below 0x80 ends one
    uvarint, so int ``k`` ends just after the ``k``-th such byte."""
    ends = [pos + 1 for pos, byte in enumerate(section) if byte < 0x80]
    ints = record_ints(section)
    count, index = ints[index], index + 1
    start = index
    for _ in range(count):
        _record, index = decode(ints, index)
    return ends[index - 1] - ends[start - 1], index


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def scale1_twpp(request):
    """One scale-1 workload compacted in memory, and its ``.twpp``
    bytes split into ``(header entry, section bytes)``."""
    program, _spec = workload(request.param, scale=1.0)
    compacted, stats = compact_wpp(partition_wpp(collect_wpp(program)))
    data = serialize_twpp(compacted)
    header = read_header(io.BytesIO(data))
    sections = []
    for entry in header.entries:
        start = header.sections_base + entry.offset
        sections.append((entry, data[start : start + entry.length]))
    return compacted, stats, sections


def _tables(fc):
    return fc.twpp_table, fc.dict_table, fc.pairs


class TestTableAccounting:
    def test_stats_count_the_records_written(self, scale1_twpp):
        """Table 2-3's CTWPP-trace and dictionary columns are the body
        and dictionary bytes the ``.twpp`` actually holds."""
        _compacted, stats, sections = scale1_twpp
        body_bytes = dict_bytes = 0
        for _entry, section in sections:
            size, index = _table_bytes(section, 0, decode_body)
            body_bytes += size
            size, index = _table_bytes(section, index, decode_dictionary)
            dict_bytes += size
        assert body_bytes > 0 and dict_bytes > 0
        assert (stats.ctwpp_trace_bytes, stats.dictionary_bytes) == (
            body_bytes,
            dict_bytes,
        )


class TestSectionDecode:
    def test_every_section_decodes_to_the_compacted_records(
        self, scale1_twpp
    ):
        compacted, _stats, sections = scale1_twpp
        assert len(sections) == len(compacted.functions)
        for entry, section in sections:
            back = _parse_section(section, entry.name, entry.call_count)
            assert _tables(back) == _tables(compacted.function(entry.name))

    @given(
        st.lists(
            st.lists(st.integers(1, 12), max_size=60).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_section_roundtrip_property(self, traces):
        compactor = FunctionCompactor("f", call_count=len(traces))
        for trace in dict.fromkeys(traces):
            compactor.add(trace)
        fc = compactor.function
        back = _parse_section(_serialize_section(fc), "f", fc.call_count)
        assert _tables(back) == _tables(fc)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**64 - 1),
                st.sets(st.integers(1, 2**63 - 1), max_size=8).map(
                    TimestampSet.from_values
                ),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_body_record_roundtrip_64_bit_values(self, entries):
        """Block ids across the whole 64-bit range, and timestamps and
        steps whose signed stream values span it, survive the bulk
        decode and the zigzag walk."""
        body = TwppPathTrace(entries=tuple(entries))
        ints = record_ints(encode_body(body))
        assert decode_body(ints, 0) == (body, len(ints))

    def test_one_bulk_varint_decode_per_section(self, written, monkeypatch):
        """The whole section becomes ints in one call; the records are
        then walked by index, never re-read from bytes."""
        _p, _w, compacted, path, _size = written
        calls = []

        def counting(*args):
            calls.append(args[2])
            return decode_uvarints(*args)

        monkeypatch.setattr(format_module, "decode_uvarints", counting)
        with QueryEngine(path, cache_bytes=0) as engine:
            for fc in compacted.functions:
                calls.clear()
                engine.extract(fc.name)
                assert len(calls) == 1, (fc.name, calls)
        for kind, payload in (
            (KIND_BODY, encode_body(compacted.functions[0].twpp_table[0])),
            (KIND_DICT, encode_dictionary(compacted.functions[0].dict_table[0])),
        ):
            calls.clear()
            decode_record(kind, payload)
            assert len(calls) == 1, (kind, calls)
