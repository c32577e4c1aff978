"""Tests for repro.corpus: ingest, dedup, cross-run analyses, CLI.

The module fixture builds a small family of runs -- one workload at
three scales plus an unrelated workload -- because scaled runs of the
same program are exactly the sharing case the corpus exists for:
smaller runs' bodies, dictionaries, and DCG prefix chunks all reappear
in larger runs.
"""

import pytest

from repro.api import Session
from repro.analysis.hotpaths import path_profile_compacted
from repro.compact.delta import diff_twpp_files
from repro.corpus import (
    KIND_BODY,
    KIND_DCG,
    KIND_DICT,
    TraceCorpus,
    decode_manifest,
)
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import workload

RUN_SCALES = (("li-a", 0.05), ("li-b", 0.08), ("li-c", 0.1))


def write_twpp(session, root, name, workload_name, scale):
    program, _spec = workload(workload_name, scale=scale)
    path = root / f"{name}.twpp"
    session.compact(partition_wpp(collect_wpp(program))).save(path)
    return path


@pytest.fixture(scope="module")
def corpus_env(tmp_path_factory):
    """(session, corpus, {run: twpp path}) with four ingested runs."""
    root = tmp_path_factory.mktemp("corpus")
    session = Session()
    paths = {}
    for name, scale in RUN_SCALES:
        paths[name] = write_twpp(session, root, name, "li-like", scale)
    paths["ijpeg"] = write_twpp(session, root, "ijpeg", "ijpeg-like", 0.05)
    corpus = TraceCorpus(root / "corpus", session=session)
    results = corpus.ingest_runs([paths[name] for name in paths])
    yield session, corpus, paths, results
    corpus.close()
    session.close()


class TestIngest:
    def test_every_run_catalogued(self, corpus_env):
        _, corpus, paths, results = corpus_env
        assert [r.run for r in corpus.runs()] == list(paths)
        assert len(results) == len(paths)
        for result in results:
            assert result.twpp_bytes > 0
            assert result.functions > 0 and result.pairs > 0

    def test_scaled_runs_share_blobs(self, corpus_env):
        _, corpus, _, results = corpus_env
        by_run = {r.run: r for r in results}
        # The first run of the family is all-new; later scales share.
        assert by_run["li-a"].blobs_shared == 0
        assert by_run["li-b"].blobs_shared > 0
        assert by_run["li-c"].blobs_shared > by_run["li-c"].blobs_added

    def test_reingest_identical_content_adds_zero_blobs(
        self, corpus_env, tmp_path
    ):
        session, _, paths, _ = corpus_env
        with TraceCorpus(tmp_path / "c", session=session) as corpus:
            first = corpus.ingest(paths["li-a"], run="one")
            again = corpus.ingest(paths["li-a"], run="two")
            assert first.blobs_added > 0
            assert again.blobs_added == 0 and again.bytes_added == 0
            assert again.blobs_shared == first.blobs_added
            # The duplicate costs only its manifest.
            assert again.compaction_factor > first.compaction_factor

    def test_duplicate_and_invalid_run_names_rejected(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        with pytest.raises(ValueError, match="already in corpus"):
            corpus.ingest(paths["li-a"], run="li-a")
        with pytest.raises(ValueError, match="invalid run name"):
            corpus.ingest(paths["li-a"], run="../escape")
        with pytest.raises(ValueError, match="duplicate run names"):
            corpus.ingest_runs(
                [paths["li-a"], paths["li-b"]], runs=["x", "x"]
            )

    def test_batch_ingest_matches_single_ingests_byte_for_byte(
        self, corpus_env, tmp_path
    ):
        session, _, paths, _ = corpus_env
        ordered = sorted(paths.values())
        with TraceCorpus(tmp_path / "single", session=session) as single:
            for path in ordered:
                single.ingest(path)
        with TraceCorpus(tmp_path / "batch", session=session) as batch:
            batch.ingest_runs(ordered)
        assert (tmp_path / "single" / "blobs.pack").read_bytes() == (
            tmp_path / "batch" / "blobs.pack"
        ).read_bytes()
        for manifest in sorted((tmp_path / "single" / "runs").iterdir()):
            twin = tmp_path / "batch" / "runs" / manifest.name
            assert manifest.read_bytes() == twin.read_bytes()


class TestServing:
    def test_traces_identical_to_twpp_reads(self, corpus_env):
        session, corpus, paths, _ = corpus_env
        for run, path in paths.items():
            engine = session.engine(path)
            for name in corpus.functions(run):
                assert corpus.traces(run, name) == engine.traces(name), (
                    run,
                    name,
                )

    def test_dcg_identical_to_twpp_read(self, corpus_env):
        session, corpus, paths, _ = corpus_env
        for run, path in paths.items():
            expected = session.engine(path).dcg()
            assert corpus.dcg(run).serialize() == expected.serialize()

    def test_functions_in_original_index_order(self, corpus_env):
        session, corpus, paths, _ = corpus_env
        engine = session.engine(paths["li-a"])
        by_original = sorted(
            engine.header.entries, key=lambda e: e.original_index
        )
        assert corpus.functions("li-a") == [e.name for e in by_original]

    def test_unknown_run_and_function_raise(self, corpus_env):
        _, corpus, _, _ = corpus_env
        with pytest.raises(KeyError):
            corpus.run("nosuch")
        with pytest.raises(KeyError):
            corpus.traces("nosuch", "main")
        with pytest.raises(KeyError):
            corpus.traces("li-a", "nosuch_function")


class TestAnalyses:
    def test_diff_matches_file_based_diff(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        delta = corpus.diff("li-a", "li-c")
        reference = diff_twpp_files(paths["li-a"], paths["li-c"])
        assert delta.render(limit=50) == reference.render(limit=50)

    def test_diff_against_self_is_empty(self, corpus_env):
        _, corpus, _, _ = corpus_env
        delta = corpus.diff("li-a", "li-a")
        assert not delta.only_in_a and not delta.only_in_b
        for fd in delta.functions.values():
            assert not fd.only_in_a and not fd.only_in_b

    def test_single_run_hot_paths_match_compacted_profile(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        profile = corpus.hot_paths(runs=["li-b"])
        reference = path_profile_compacted(paths["li-b"])
        assert profile.counts == reference.counts

    def test_corpus_hot_paths_sum_across_runs(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        combined = corpus.hot_paths(runs=["li-a", "ijpeg"])
        expected = {}
        for run in ("li-a", "ijpeg"):
            for key, count in path_profile_compacted(
                paths[run]
            ).counts.items():
                expected[key] = expected.get(key, 0) + count
        assert combined.counts == expected

    def test_hot_paths_function_filter(self, corpus_env):
        _, corpus, _, _ = corpus_env
        name = corpus.functions("li-a")[0]
        profile = corpus.hot_paths(functions=[name])
        assert profile.counts
        assert {func for func, _ in profile.counts} == {name}

    def test_block_frequencies_match_expanded_reference(self, corpus_env):
        session, corpus, paths, _ = corpus_env
        got = corpus.block_frequencies(runs=["li-a"])
        expected = {}
        engine = session.engine(paths["li-a"])
        dcg = engine.dcg()
        weights = {}
        for func_idx, pair_id in zip(dcg.node_func, dcg.node_trace):
            weights[(func_idx, pair_id)] = (
                weights.get((func_idx, pair_id), 0) + 1
            )
        for entry in engine.header.entries:
            fc = engine.extract(entry.name)
            for pair_id in range(len(fc.pairs)):
                weight = weights.get((entry.original_index, pair_id), 0)
                if not weight:
                    continue
                for block in fc.expand_pair(pair_id):
                    key = (entry.name, block)
                    expected[key] = expected.get(key, 0) + weight
        assert got == expected

    def test_analyses_validate_run_names(self, corpus_env):
        _, corpus, _, _ = corpus_env
        with pytest.raises(KeyError):
            corpus.hot_paths(runs=["nosuch"])
        with pytest.raises(KeyError):
            corpus.diff("li-a", "nosuch")


class TestStorage:
    def test_stats_report(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        report = corpus.stats()
        assert len(report["runs"]) == len(paths)
        assert report["twpp_bytes"] > report["corpus_bytes"] > 0
        assert report["compaction_factor"] > 1.0
        assert set(report["blobs"]) == {"body", "dict", "dcg"}
        for kind in report["blobs"].values():
            assert kind["count"] > 0 and kind["bytes"] > 0

    def test_pack_replay_matches_catalog(self, corpus_env):
        _, corpus, _, _ = corpus_env
        replayed = list(corpus._pack.iter_records())
        rows = corpus._catalog.blob_rows()
        assert replayed == [
            (sha, kind, offset, length)
            for _id, sha, kind, offset, length, _refs in rows
        ]
        for _sha, kind, _offset, _length in replayed:
            assert kind in (KIND_BODY, KIND_DICT, KIND_DCG)

    def test_manifest_files_decode(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        for record in corpus.runs():
            manifest = decode_manifest(
                (corpus.root / "runs" / f"{record.run}.manifest").read_bytes()
            )
            assert manifest.run == record.run
            assert len(manifest.functions) == record.functions
            assert manifest.dcg_nodes == record.dcg_nodes

    def test_corpus_reopens_from_disk(self, corpus_env):
        _, corpus, paths, _ = corpus_env
        with TraceCorpus(corpus.root) as reopened:
            assert [r.run for r in reopened.runs()] == list(paths)
            name = reopened.functions("li-a")[0]
            assert reopened.traces("li-a", name) == corpus.traces(
                "li-a", name
            )

    def test_corrupt_pack_detected(self, corpus_env, tmp_path):
        session, _, paths, _ = corpus_env
        with TraceCorpus(tmp_path / "c", session=session) as corpus:
            corpus.ingest(paths["li-a"], run="r")
            pack = tmp_path / "c" / "blobs.pack"
            data = bytearray(pack.read_bytes())
            data[-1] ^= 0xFF  # flip one payload byte
            pack.write_bytes(bytes(data))
        with TraceCorpus(tmp_path / "c", session=session) as corpus:
            # The last record appended is a DCG chunk (digest blob
            # order puts them after every body and dictionary).
            with pytest.raises(ValueError, match="content check"):
                corpus.dcg("r")


class TestSessionFacade:
    def test_session_corpus_shares_metrics(self, corpus_env, tmp_path):
        with Session() as session:
            _, _, paths, _ = corpus_env
            with session.corpus(tmp_path / "c") as corpus:
                corpus.ingest(paths["li-a"], run="r")
            assert session.metrics.counter("corpus.runs_ingested") == 1

    def test_session_ingest_run_verb(self, corpus_env, tmp_path):
        _, _, paths, _ = corpus_env
        with Session() as session:
            result = session.ingest_run(
                tmp_path / "c", paths["li-a"], run="r"
            )
            assert result.run == "r" and result.blobs_added > 0


class TestCli:
    @pytest.fixture(scope="class")
    def cli_root(self, corpus_env, tmp_path_factory):
        from repro.cli import main

        _, _, paths, _ = corpus_env
        root = tmp_path_factory.mktemp("cli-corpus")
        corpus_dir = root / "corpus"
        rc = main(
            ["corpus", "ingest", str(corpus_dir)]
            + [str(paths[name]) for name in ("li-a", "li-c")]
        )
        assert rc == 0
        return corpus_dir

    def test_ingest_reports_compaction(self, cli_root, capsys):
        from repro.cli import main

        assert main(["corpus", "stats", str(cli_root)]) == 0
        out = capsys.readouterr().out
        assert "li-a" in out and "li-c" in out
        assert "blobs[body]" in out and "total:" in out

    def test_diff_exit_codes_and_parity(self, corpus_env, cli_root, capsys):
        from repro.cli import main

        _, _, paths, _ = corpus_env
        rc = main(["corpus", "diff", str(cli_root), "li-a", "li-c"])
        corpus_out = capsys.readouterr().out
        file_rc = main(["diff", str(paths["li-a"]), str(paths["li-c"])])
        file_out = capsys.readouterr().out
        assert rc == file_rc == 1
        assert corpus_out == file_out
        assert main(["corpus", "diff", str(cli_root), "li-a", "li-a"]) == 0

    def test_hot_prints_profile(self, cli_root, capsys):
        from repro.cli import main

        assert main(["corpus", "hot", str(cli_root), "--top", "3"]) == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_run_is_a_clean_error(self, cli_root, capsys):
        from repro.cli import main

        assert main(["corpus", "diff", str(cli_root), "li-a", "nosuch"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_hot_json_is_the_daemon_document(self, cli_root, capsys):
        """``corpus hot --json`` and ``GET /corpus/hot`` share one shape."""
        import json

        from repro.cli import main
        from repro.corpus import TraceCorpus, hot_doc

        assert main(
            ["corpus", "hot", str(cli_root), "--top", "3", "--json"]
        ) == 0
        out = capsys.readouterr().out
        with TraceCorpus(cli_root) as corpus:
            expected = hot_doc(corpus.hot_paths(), top=3)
        assert json.loads(out) == expected

    def test_diff_json_is_the_daemon_document(self, cli_root, capsys):
        import json

        from repro.cli import main
        from repro.corpus import TraceCorpus, diff_doc

        rc = main(
            ["corpus", "diff", str(cli_root), "li-a", "li-c", "--json"]
        )
        out = capsys.readouterr().out
        with TraceCorpus(cli_root) as corpus:
            delta = corpus.diff("li-a", "li-c")
        assert rc == 1  # still signals "runs differ" in json mode
        assert json.loads(out) == diff_doc(delta)
