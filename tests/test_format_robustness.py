"""Failure-injection tests: corrupted files must fail loudly and cleanly.

Truncated or bit-flipped inputs may not always be *detectable* (a flip
inside trace data can decode to different-but-valid data), but they
must never escape as anything other than a clean ValueError -- no
hangs, no KeyError or IndexError from deep inside decoding loops.  The
corpus formats -- CWPK pack records replayed by
:meth:`~repro.corpus.blobs.BlobPack.iter_records` and CWPM run
manifests (:func:`~repro.corpus.manifest.decode_manifest`) -- are held
to the same rule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import QueryEngine, compact_wpp, read_twpp, write_twpp
from repro.compact.query import extract_function_traces
from repro.compact.twpp import twpp_to_trace
from repro.corpus import TraceCorpus
from repro.corpus.blobs import (
    KIND_BODY,
    KIND_DICT,
    PACK_HEADER_BYTES,
    BlobPack,
    decode_dcg_chunk,
    decode_record,
)
from repro.corpus.manifest import decode_manifest
from repro.sequitur import decompress_wpp, write_compressed_wpp
from repro.trace import collect_wpp, partition_wpp, read_wpp, write_wpp
from repro.workloads import figure1_program

ACCEPTABLE = (ValueError,)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("robust-work")


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("robust")
    program = figure1_program()
    wpp = collect_wpp(program)
    compacted, _stats = compact_wpp(partition_wpp(wpp))
    wpp_path = tmp / "a.wpp"
    twpp_path = tmp / "a.twpp"
    sqwp_path = tmp / "a.sqwp"
    write_wpp(wpp, wpp_path)
    write_twpp(compacted, twpp_path)
    write_compressed_wpp(wpp, sqwp_path)
    return {
        "wpp": wpp_path.read_bytes(),
        "twpp": twpp_path.read_bytes(),
        "sqwp": sqwp_path.read_bytes(),
    }


@pytest.fixture(scope="module")
def corpus_originals(tmp_path_factory):
    """One run of Figure 1 ingested: the pack's and the manifest's bytes."""
    tmp = tmp_path_factory.mktemp("robust-corpus")
    compacted, _stats = compact_wpp(
        partition_wpp(collect_wpp(figure1_program()))
    )
    write_twpp(compacted, tmp / "a.twpp")
    with TraceCorpus(tmp / "corpus") as corpus:
        corpus.ingest(tmp / "a.twpp")
        cwpm = corpus._catalog.manifest("a")
    return {
        "cwpk": (tmp / "corpus" / "blobs.pack").read_bytes(),
        "cwpm": cwpm,
    }


def _replay_pack(path) -> list:
    """Every record of a pack, each payload decoded by its kind."""
    decoders = {
        KIND_BODY: lambda data: twpp_to_trace(decode_record(KIND_BODY, data)),
        KIND_DICT: lambda data: decode_record(KIND_DICT, data),
    }
    with BlobPack(path) as pack:
        records = list(pack.iter_records())
        for _sha, kind, offset, length in records:
            decoders.get(kind, decode_dcg_chunk)(pack.read(offset, length))
    return records


def _try_decode_corpus(kind: str, data: bytes, tmp_path):
    if kind == "cwpm":
        return decode_manifest(data)
    path = tmp_path / "x.pack"
    path.write_bytes(data)
    return _replay_pack(path)


def _try_decode(kind: str, data: bytes, tmp_path) -> None:
    path = tmp_path / f"x.{kind}"
    path.write_bytes(data)
    if kind == "wpp":
        read_wpp(path)
    elif kind == "twpp":
        loaded = read_twpp(path)
        if loaded.functions:
            extract_function_traces(path, loaded.functions[0].name)
    else:
        decompress_wpp(path)


class TestTruncation:
    @pytest.mark.parametrize("kind", ["wpp", "twpp", "sqwp"])
    def test_every_truncation_fails_cleanly(self, kind, originals, tmp_path):
        data = originals[kind]
        # Sample truncation points densely near the start (headers) and
        # sparsely through the body.
        points = list(range(1, min(len(data), 24))) + list(
            range(24, len(data) - 1, max(1, len(data) // 40))
        )
        detected = 0
        for cut in points:
            try:
                _try_decode(kind, data[:cut], tmp_path)
            except ACCEPTABLE:
                detected += 1
        # Nearly all truncations must be detected (a cut landing on a
        # record boundary of a trailing section can look complete).
        assert detected >= len(points) - 2, (kind, detected, len(points))


    def test_every_pack_and_manifest_truncation_fails_cleanly(
        self, corpus_originals, tmp_path
    ):
        """A manifest cut anywhere, or a pack cut anywhere but between
        two records, raises ValueError; a pack cut between records
        replays as the records before the cut."""
        pack = corpus_originals["cwpk"]
        records = _try_decode_corpus("cwpk", pack, tmp_path)
        # An empty file opens as a new, empty pack.
        boundaries = {0, PACK_HEADER_BYTES} | {
            offset + length for _sha, _kind, offset, length in records
        }
        for kind, data in corpus_originals.items():
            for cut in range(len(data)):
                if kind == "cwpk" and cut in boundaries:
                    kept = _try_decode_corpus(kind, data[:cut], tmp_path)
                    assert kept == records[: len(kept)]
                    continue
                with pytest.raises(ValueError):
                    _try_decode_corpus(kind, data[:cut], tmp_path)


class TestBitFlips:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flips_never_crash_uncleanly(self, originals, workdir, data):
        kind = data.draw(st.sampled_from(["wpp", "twpp", "sqwp"]))
        raw = bytearray(originals[kind])
        pos = data.draw(st.integers(0, len(raw) - 1))
        bit = data.draw(st.integers(0, 7))
        raw[pos] ^= 1 << bit
        try:
            _try_decode(kind, bytes(raw), workdir)
        except ACCEPTABLE:
            pass  # clean rejection is the expected common case

    def test_every_twpp_flip_and_cut_is_a_value_error(
        self, originals, tmp_path
    ):
        """Every single-bit flip and every truncation of a ``.twpp``,
        loaded whole by ``read_twpp`` and opened through
        :class:`QueryEngine` with every function and the DCG decoded,
        either decodes or raises ValueError."""

        def decode_all(path):
            with QueryEngine(path, cache_bytes=0) as engine:
                for name in engine.function_names():
                    engine.traces(name)
                engine.dcg()

        data = originals["twpp"]
        mutants = [data[:cut] for cut in range(len(data))]
        for pos in range(len(data)):
            for bit in range(8):
                raw = bytearray(data)
                raw[pos] ^= 1 << bit
                mutants.append(bytes(raw))
        path = tmp_path / "x.twpp"
        rejected = 0
        for mutant in mutants:
            path.write_bytes(mutant)
            for decode in (read_twpp, decode_all):
                try:
                    decode(path)
                except ValueError:
                    rejected += 1
        assert rejected > len(mutants), (rejected, len(mutants))

    def test_every_pack_and_manifest_flip_is_a_value_error(
        self, corpus_originals, tmp_path
    ):
        """Every single-bit flip of a CWPK pack (every record replayed
        and decoded) or a CWPM manifest either decodes or raises
        ValueError -- a UnicodeDecodeError from a flipped name counts,
        as a subclass."""
        rejected = 0
        for kind, data in corpus_originals.items():
            for pos in range(len(data)):
                for bit in range(8):
                    raw = bytearray(data)
                    raw[pos] ^= 1 << bit
                    try:
                        _try_decode_corpus(kind, bytes(raw), tmp_path)
                    except ValueError:
                        rejected += 1
        assert rejected > 0

    def test_magic_corruption_always_detected(self, originals, tmp_path):
        for kind in ("wpp", "twpp", "sqwp"):
            raw = bytearray(originals[kind])
            raw[0] ^= 0xFF
            with pytest.raises(ValueError):
                _try_decode(kind, bytes(raw), tmp_path)


class TestSemanticCorruption:
    def test_integrity_checker_catches_deep_damage(self, tmp_path):
        """Damage that decodes cleanly is caught by verify_compacted."""
        from repro.compact import IntegrityError, verify_compacted

        program = figure1_program()
        compacted, _stats = compact_wpp(
            partition_wpp(collect_wpp(program))
        )
        # Re-point an activation at a different (valid) pair: the file
        # decodes, sizes match, but the call-count bookkeeping and the
        # tree shape give it away against the program.
        fc = compacted.function("f")
        fc.call_count += 1
        with pytest.raises(IntegrityError):
            verify_compacted(compacted, program)


class TestAllocationBombs:
    """Corrupted length fields must be rejected *before* allocation."""

    def test_huge_event_count_rejected(self, tmp_path):
        from repro.trace.encoding import write_uvarint

        buf = bytearray(b"WPP1")
        write_uvarint(buf, 0)  # no functions
        write_uvarint(buf, 1 << 40)  # claims a trillion events
        path = tmp_path / "bomb.wpp"
        path.write_bytes(bytes(buf))
        with pytest.raises(ValueError, match="corrupt count"):
            read_wpp(path)

    def test_huge_series_rejected(self):
        """A 2-integer series claiming 2^40 timestamps must not expand."""
        from repro.compact.series import TimestampSet
        from repro.compact.twpp import TwppPathTrace, twpp_to_trace

        bomb = TwppPathTrace(
            entries=((1, TimestampSet(entries=((1, 1 << 40, 1),))),)
        )
        with pytest.raises(ValueError, match="sanity bound"):
            twpp_to_trace(bomb)

    def test_exponential_grammar_rejected(self, tmp_path):
        """A tiny DAG grammar can claim exponential expansion; the
        decompressor must refuse instead of walking it."""
        from repro.sequitur.grammar import Grammar
        from repro.sequitur.wpp_codec import serialize_compressed_wpp
        from repro.trace.encoding import write_string, write_uvarint

        # rule k expands to two copies of rule k+1: 2^39 terminals.
        depth = 40
        rules = [(-(i + 2), -(i + 2)) for i in range(depth - 1)]
        rules.append((2,))
        grammar = Grammar(rules=[tuple(r) for r in rules])
        buf = bytearray(b"SQWP")
        write_uvarint(buf, 0)
        buf.extend(grammar.serialize())
        path = tmp_path / "bomb.sqwp"
        path.write_bytes(bytes(buf))
        with pytest.raises(ValueError, match="sanity bound"):
            decompress_wpp(path)

    def test_huge_pack_record_length_rejected(self, corpus_originals, tmp_path):
        """A pack record claiming an exabyte payload is refused before
        any read allocates it."""
        from repro.trace.encoding import write_uvarint

        frame = bytearray([KIND_BODY])
        write_uvarint(frame, 1 << 60)
        path = tmp_path / "bomb.pack"
        path.write_bytes(corpus_originals["cwpk"][:PACK_HEADER_BYTES] + frame)
        with pytest.raises(ValueError, match="truncated blob"):
            _replay_pack(path)
        with BlobPack(path) as pack:
            with pytest.raises(ValueError, match="truncated blob"):
                pack.read(PACK_HEADER_BYTES, 1 << 60)

    def test_huge_manifest_counts_rejected(self):
        """Manifest counts far beyond the bytes that follow them fail
        the count check instead of sizing a list."""
        from repro.corpus.manifest import MANIFEST_MAGIC, MANIFEST_VERSION
        from repro.trace.encoding import write_string, write_uvarint

        def manifest(chunks, functions):
            buf = bytearray(MANIFEST_MAGIC)
            write_uvarint(buf, MANIFEST_VERSION)
            write_string(buf, "run")
            write_string(buf, "run.twpp")
            write_uvarint(buf, 1)  # dcg nodes
            write_uvarint(buf, chunks)
            buf += bytes(min(chunks, 1))
            write_uvarint(buf, functions)
            return bytes(buf)

        with pytest.raises(ValueError, match="corrupt count"):
            decode_manifest(manifest(1 << 40, 0))
        with pytest.raises(ValueError):
            decode_manifest(manifest(1, 1 << 40))

    def test_check_count_unit(self):
        from repro.trace.encoding import check_count

        check_count(3, b"xxx", 0)
        with pytest.raises(ValueError):
            check_count(4, b"xxx", 0)
        with pytest.raises(ValueError):
            check_count(2, b"xxxx", 0, min_bytes=3)
