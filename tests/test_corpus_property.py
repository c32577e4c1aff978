"""Property tests for the corpus codecs and dedup invariants.

Round-trips cover every wire format the corpus owns -- body, dictionary
and DCG-chunk blobs, and run manifests -- over generated values from
each codec's real domain (entry streams come from ``compress_series``
over random strictly-increasing timestamps, blob shas are recomputed).  The
generated-program tests then check the two end-to-end invariants the
formats exist for: ingesting identical content twice adds zero blobs,
and corpus-served traces are byte-identical to the original ``.twpp``
reads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.compact.dbb import DbbDictionary
from repro.compact.series import compress_series, series_len
from repro.compact.twpp import TwppPathTrace
from repro.corpus import TraceCorpus, blob_sha
from repro.corpus.blobs import (
    KIND_BODY,
    KIND_DCG,
    KIND_DICT,
    decode_body,
    decode_dcg_chunk,
    decode_dictionary,
    encode_body,
    encode_dcg_chunk,
    encode_dictionary,
    split_dcg_stream,
)
from repro.corpus.manifest import (
    ManifestFunction,
    RunManifest,
    decode_manifest,
    encode_manifest,
)
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import WorkloadSpec, generate_program

SETTINGS = settings(max_examples=50, deadline=None)

timestamps = st.lists(
    st.integers(1, 500), min_size=1, max_size=30, unique=True
).map(sorted)
streams = timestamps.map(lambda ts: tuple(compress_series(ts)))

bodies = st.lists(
    st.tuples(st.integers(0, 10**6), streams), min_size=0, max_size=6
).map(lambda entries: TwppPathTrace(entries=tuple(entries)))

dictionaries = st.lists(
    st.lists(st.integers(0, 10**6), min_size=2, max_size=6).map(tuple),
    min_size=0,
    max_size=6,
).map(lambda chains: DbbDictionary(chains=tuple(chains)))

manifest_functions = st.builds(
    ManifestFunction,
    name=st.text(max_size=8),
    call_count=st.integers(0, 10**6),
    bodies=st.lists(st.integers(0, 10**6), max_size=5).map(tuple),
    dicts=st.lists(st.integers(0, 10**6), max_size=5).map(tuple),
    pairs=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=5
    ).map(tuple),
)

manifests = st.builds(
    RunManifest,
    run=st.text(max_size=8),
    source=st.text(max_size=16),
    dcg_nodes=st.integers(0, 10**6),
    dcg_chunks=st.lists(st.integers(0, 10**6), max_size=5).map(tuple),
    functions=st.lists(manifest_functions, max_size=4).map(tuple),
)


class TestBlobCodecs:
    @SETTINGS
    @given(bodies)
    def test_body_round_trip(self, body):
        assert decode_body(encode_body(body)) == body

    @SETTINGS
    @given(dictionaries)
    def test_dictionary_round_trip(self, dictionary):
        assert decode_dictionary(encode_dictionary(dictionary)) == dictionary

    @SETTINGS
    @given(st.binary(max_size=4096))
    def test_dcg_chunk_round_trip(self, raw):
        assert decode_dcg_chunk(encode_dcg_chunk(raw)) == raw

    @SETTINGS
    @given(st.binary(min_size=1, max_size=8192))
    def test_dcg_chunking_reassembles(self, stream):
        chunks = split_dcg_stream(stream)
        assert b"".join(chunks) == stream
        assert all(len(c) <= 1024 for c in chunks)

    @SETTINGS
    @given(timestamps)
    def test_stream_series_len_counts_timestamps(self, ts):
        assert series_len(tuple(compress_series(ts))) == len(ts)

    @SETTINGS
    @given(st.binary(max_size=32))
    def test_sha_separates_kinds(self, payload):
        shas = {blob_sha(k, payload) for k in (KIND_BODY, KIND_DICT, KIND_DCG)}
        assert len(shas) == 3

    @SETTINGS
    @given(bodies)
    def test_body_rejects_trailing_bytes(self, body):
        with pytest.raises(ValueError):
            decode_body(encode_body(body) + b"\x00")


class TestContainerCodecs:
    @SETTINGS
    @given(manifests)
    def test_manifest_round_trip(self, manifest):
        assert decode_manifest(encode_manifest(manifest)) == manifest

    @SETTINGS
    @given(manifests)
    def test_manifest_rejects_trailing_bytes(self, manifest):
        with pytest.raises(ValueError):
            decode_manifest(encode_manifest(manifest) + b"\x00")


@pytest.mark.parametrize("seed", [5, 23, 404])
class TestGeneratedPrograms:
    """End-to-end invariants over fuzzed workload-generator programs."""

    def _compact(self, seed, tmp_path, session):
        spec = WorkloadSpec(
            name="corpus-fuzz",
            seed=seed,
            n_functions=6,
            layers=2,
            main_iterations=6,
            loop_iters=(2, 4),
            paths=(2, 4),
            path_length=(1, 3),
            branching=1.0,
        )
        program = generate_program(spec)
        path = tmp_path / "run.twpp"
        session.compact(partition_wpp(collect_wpp(program))).save(path)
        return path

    def test_dedup_is_idempotent(self, seed, tmp_path):
        with Session() as session:
            path = self._compact(seed, tmp_path, session)
            with TraceCorpus(tmp_path / "c", session=session) as corpus:
                first = corpus.ingest(path, run="a")
                again = corpus.ingest(path, run="b")
                assert first.blobs_added > 0
                assert again.blobs_added == 0 and again.bytes_added == 0
                assert again.blobs_shared == first.blobs_added

    def test_corpus_serves_twpp_reads_identically(self, seed, tmp_path):
        with Session() as session:
            path = self._compact(seed, tmp_path, session)
            with TraceCorpus(tmp_path / "c", session=session) as corpus:
                corpus.ingest(path, run="a")
                engine = session.engine(path)
                for name in corpus.functions("a"):
                    assert corpus.traces("a", name) == engine.traces(name)
                assert (
                    corpus.dcg("a").serialize() == engine.dcg().serialize()
                )
