"""Tests for repro.corpus: ingest, dedup, cross-run analyses, CLI.

The module fixture builds a small family of runs -- one workload at
three scales plus an unrelated workload -- because scaled runs of the
same program are exactly the sharing case the corpus exists for:
smaller runs' bodies, dictionaries, and DCG prefix chunks all reappear
in larger runs.
"""

import shutil
import sqlite3

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
from repro.corpus.catalog import SCHEMA_VERSION
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


class TestCatalog:
    @staticmethod
    def schema(db):
        con = sqlite3.connect(db)
        try:
            return con.execute(
                "SELECT type, name FROM sqlite_master ORDER BY name"
            ).fetchall()
        finally:
            con.close()

    def test_catalog_holds_only_blobs_and_runs(self, corpus_env, tmp_path):
        """Membership lives in the manifests: no table repeats it."""
        _, corpus, _, _ = corpus_env
        TraceCorpus(tmp_path / "fresh").close()
        for root in (tmp_path / "fresh", corpus.root):
            rows = self.schema(root / "corpus.sqlite")
            tables = {name for kind, name in rows if kind == "table"}
            assert tables == {"meta", "blobs", "runs"}
            for kind, name in rows:
                if kind != "table":
                    assert kind == "index"
                    assert name.startswith("sqlite_autoindex_"), name

    def test_schema_version_recorded(self, corpus_env):
        _, corpus, _, _ = corpus_env
        con = sqlite3.connect(corpus.root / "corpus.sqlite")
        try:
            (version,) = con.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        finally:
            con.close()
        assert version == str(SCHEMA_VERSION) == "2"

    @pytest.mark.parametrize("damage", ["truncated", "header", "version"])
    def test_bad_catalog_is_an_error_naming_the_file(
        self, corpus_env, tmp_path, capsys, damage
    ):
        from repro.cli import main

        _, corpus, _, _ = corpus_env
        root = tmp_path / "c"
        shutil.copytree(corpus.root, root)
        db = root / "corpus.sqlite"
        if damage == "truncated":
            db.write_bytes(db.read_bytes()[:5000])
            message = "malformed"
        elif damage == "header":
            data = bytearray(db.read_bytes())
            data[0] ^= 0xFF
            db.write_bytes(bytes(data))
            message = "not a database"
        else:
            con = sqlite3.connect(db)
            with con:
                con.execute(
                    "UPDATE meta SET value = '1'"
                    " WHERE key = 'schema_version'"
                )
            con.close()
            message = "schema version 1, expected 2"
        with pytest.raises(ValueError, match=message) as info:
            TraceCorpus(root)
        assert str(db) in str(info.value)
        for verb in ("check", "stats"):
            assert main(["corpus", verb, str(root)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {db}: ") and message in err

    def test_reads_decode_each_manifest_once(
        self, corpus_env, tmp_path, monkeypatch
    ):
        """A diff decodes at most its two manifests and no DCG; a second
        corpus-wide profile reads no blob at all."""
        _, _, paths, _ = corpus_env
        reads = []
        read_manifest = TraceCorpus._read_manifest

        def counted(corpus, run):
            reads.append(run)
            return read_manifest(corpus, run)

        with Session() as session:
            with TraceCorpus(tmp_path / "c", session=session) as corpus:
                corpus.ingest(paths["li-a"], run="a")
                corpus.ingest(paths["li-a"], run="b")
                monkeypatch.setattr(TraceCorpus, "_read_manifest", counted)
                counter = session.metrics.counter
                blob_reads = counter("corpus.blob_reads")
                for _ in range(2):
                    assert corpus.diff("a", "b").identical
                assert sorted(reads) == ["a", "b"]
                assert counter("corpus.blob_reads") == blob_reads
                first = corpus.hot_paths()
                blob_reads = counter("corpus.blob_reads")
                assert corpus.hot_paths().counts == first.counts
                assert counter("corpus.blob_reads") == blob_reads
                assert sorted(reads) == ["a", "b"]


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

    @pytest.fixture(scope="class")
    def daemon(self, cli_root, tmp_path_factory):
        """``cli_root`` attached to a served (otherwise empty) store."""
        from repro.store import TraceServer

        session = Session()
        store = session.store(
            tmp_path_factory.mktemp("cli-store"), corpus=cli_root
        )
        server = TraceServer(store).start()
        yield server, store
        server.stop()
        store.close()
        session.close()

    @staticmethod
    def http(server, target):
        """``(status, parsed body)`` of one ``GET``."""
        import json
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(server.url + target) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    @staticmethod
    def cli_json(capsys, root, argv):
        """``(exit code, parsed stdout)`` of ``corpus VERB ... --json``."""
        import json

        from repro.cli import main

        rc = main(["corpus", argv[0], str(root)] + argv[1:] + ["--json"])
        return rc, json.loads(capsys.readouterr().out)

    def test_hot_json_is_the_daemon_document(self, cli_root, daemon, capsys):
        """``corpus hot --json`` == ``GET /corpus/hot`` == the store verb."""
        from repro.corpus import TraceCorpus, hot_doc
        from repro.store import CorpusHotRequest

        server, store = daemon
        rc, doc = self.cli_json(capsys, cli_root, ["hot", "--top", "3"])
        assert rc == 0
        with TraceCorpus(cli_root) as corpus:
            assert doc == hot_doc(corpus.hot_paths(), top=3)
        assert self.http(server, "/corpus/hot?top=3") == (200, doc)
        assert doc == store.corpus_hot(CorpusHotRequest(top=3))
        argv = ["hot", "--run", "li-c", "--top", "0", "--coverage", "0.5"]
        rc, doc = self.cli_json(capsys, cli_root, argv)
        assert rc == 0
        target = "/corpus/hot?run=li-c&top=0&coverage=0.5"
        assert self.http(server, target) == (200, doc)
        assert doc == store.corpus_hot(
            CorpusHotRequest(runs=("li-c",), top=0, coverage=0.5)
        )

    def test_diff_json_is_the_daemon_document(self, cli_root, daemon, capsys):
        from repro.corpus import TraceCorpus, diff_doc
        from repro.store import CorpusDiffRequest

        server, store = daemon
        rc, doc = self.cli_json(capsys, cli_root, ["diff", "li-a", "li-c"])
        with TraceCorpus(cli_root) as corpus:
            delta = corpus.diff("li-a", "li-c")
        assert rc == 1  # still signals "runs differ" in json mode
        assert doc == diff_doc(delta)
        assert self.http(server, "/corpus/diff?a=li-a&b=li-c") == (200, doc)
        assert doc == store.corpus_diff(
            CorpusDiffRequest(run_a="li-a", run_b="li-c")
        )
        argv = ["diff", "li-c", "li-a", "--limit", "0"]
        rc, doc = self.cli_json(capsys, cli_root, argv)
        assert rc == 1 and doc["changed"] == []
        target = "/corpus/diff?a=li-c&b=li-a&limit=0"
        assert self.http(server, target) == (200, doc)

    def test_stats_json_is_the_daemon_document(self, cli_root, daemon, capsys):
        server, store = daemon
        rc, doc = self.cli_json(capsys, cli_root, ["stats"])
        assert rc == 0
        assert self.http(server, "/corpus/stats") == (200, doc)
        assert doc == store.corpus_stats()

    @pytest.mark.parametrize(
        "argv,target",
        [
            (["hot", "--top", "-1"], "/corpus/hot?top=-1"),
            (["hot", "--coverage", "0"], "/corpus/hot?coverage=0"),
            (["hot", "--coverage", "1.5"], "/corpus/hot?coverage=1.5"),
            (["hot", "--top", "x"], "/corpus/hot?top=x"),
            (["hot", "--top", ""], "/corpus/hot?top="),
            (["hot", "--top", "1", "--top", "2"], "/corpus/hot?top=1&top=2"),
            (["hot", "--run", ""], "/corpus/hot?run="),
            (["hot", "--function", ""], "/corpus/hot?fn="),
            (["hot", "--run", "nosuch"], "/corpus/hot?run=nosuch"),
            (["diff", "li-a", "li-c", "--limit", "-1"],
             "/corpus/diff?a=li-a&b=li-c&limit=-1"),
            (["diff", "li-a", "li-c", "--limit", "x"],
             "/corpus/diff?a=li-a&b=li-c&limit=x"),
            (["diff", "", "li-c"], "/corpus/diff?a=&b=li-c"),
            (["diff", "li-a", "nosuch"], "/corpus/diff?a=li-a&b=nosuch"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_rejects_what_the_daemon_rejects(
        self, cli_root, daemon, capsys, argv, target
    ):
        """Each input the daemon refuses, the CLI refuses with exit 2
        and the daemon's message (text and ``--json`` alike)."""
        from repro.cli import main

        server, _store = daemon
        status, body = self.http(server, target)
        assert status in (400, 404)
        for extra in ([], ["--json"]):
            rc = main(["corpus", argv[0], str(cli_root)] + argv[1:] + extra)
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            assert captured.err == f"error: {body['error']}\n"
