"""Crash consistency of corpus ingest, and ``TraceCorpus.check``.

An ingest writes the run's new pack records (fsynced), then commits
one catalog transaction holding the run's row and manifest.  Each
kill-point test runs an ingest in a subprocess whose script wraps one
of those steps to ``os._exit`` right after the pack write (or right
before the commit), then reopens the corpus here: ``check()`` must
come back clean, the killed run must be absent, and re-ingesting it
must give exactly what a clean ingest gives -- the same
``CorpusRun``, pack bytes and manifest.  Opening a corpus drops a torn
pack tail only when no ingest holds the pack's writer lock, so a
reader that opens it mid-ingest leaves that ingest's records alone.
"""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import Session
from repro.corpus import BlobPack, CorpusCatalog, CorruptRun, TraceCorpus
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import workload

KILLED = 86

KILL_SCRIPT = """
import os
import sys

from repro.corpus import BlobPack, TraceCorpus

root, twpp, step = sys.argv[1:4]


def then_exit(original):
    def wrapper(*args, **kwargs):
        original(*args, **kwargs)
        os._exit(%(code)d)
    return wrapper


corpus = TraceCorpus(root)
if step == "pack":
    BlobPack.append_many = then_exit(BlobPack.append_many)
elif step == "commit":
    corpus._catalog._db.set_trace_callback(
        lambda sql: sql == "COMMIT" and os._exit(%(code)d)
    )
corpus.ingest(twpp, run="b")
""" % {"code": KILLED}

OPEN_SCRIPT = """
import sys

from repro.corpus import TraceCorpus

with TraceCorpus(sys.argv[1]) as corpus:
    corpus.stats()
    print(corpus.recovered_bytes)
"""


def commits(statements):
    return sum(1 for sql in statements if sql == "COMMIT")


def stored_manifest(root: Path, run: str) -> bytes:
    """One run's manifest bytes, as its catalog row holds them."""
    con = sqlite3.connect(root / "corpus.sqlite")
    try:
        (data,) = con.execute(
            "SELECT manifest FROM runs WHERE run = ?", (run,)
        ).fetchone()
    finally:
        con.close()
    return data


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Three .twpp runs of one program: each shares blobs with the
    last and adds some of its own."""
    root = tmp_path_factory.mktemp("crash")
    paths = {}
    with Session() as session:
        for name, scale in (("a", 0.05), ("b", 0.08), ("c", 0.1)):
            program, _spec = workload("li-like", scale=scale)
            paths[name] = root / f"{name}.twpp"
            session.compact(partition_wpp(collect_wpp(program))).save(
                paths[name]
            )
    return paths


@pytest.fixture(scope="module")
def clean(runs, tmp_path_factory):
    """A corpus that ingested a then b with no interruption."""
    root = tmp_path_factory.mktemp("clean") / "corpus"
    with TraceCorpus(root) as corpus:
        corpus.ingest(runs["a"], run="a")
        result = corpus.ingest(runs["b"], run="b")
        assert result.blobs_shared > 0 and result.blobs_added > 0
        assert corpus.check() == []
    return root, result


def _run_script(script: str, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _kill_ingest(root: Path, twpp: Path, step: str) -> None:
    proc = _run_script(KILL_SCRIPT, root, twpp, step)
    assert proc.returncode == KILLED, proc.stderr


class TestKillPoints:
    @pytest.mark.parametrize("step", ["pack", "commit"])
    def test_killed_ingest_recovers(self, runs, clean, tmp_path, step):
        clean_root, clean_result = clean
        root = tmp_path / "corpus"
        with TraceCorpus(root) as corpus:
            corpus.ingest(runs["a"], run="a")
        pack = root / "blobs.pack"
        before = pack.stat().st_size

        _kill_ingest(root, runs["b"], step)

        # The kill left a pack tail that no committed row accounts for.
        torn = pack.stat().st_size - before
        assert torn > 0

        with TraceCorpus(root) as corpus:
            assert pack.stat().st_size == before
            assert corpus.recovered_bytes == torn
            assert corpus.check() == []
            assert [r.run for r in corpus.runs()] == ["a"]

            result = corpus.ingest(runs["b"], run="b")
            assert result == clean_result
            assert corpus.check() == []
        assert pack.read_bytes() == (clean_root / "blobs.pack").read_bytes()
        assert stored_manifest(root, "b") == stored_manifest(clean_root, "b")
        assert sorted(p.name for p in root.iterdir()) == [
            "blobs.pack",
            "corpus.sqlite",
        ]


class TestFailedIngest:
    def test_failure_before_commit_drops_pack_records(
        self, runs, clean, tmp_path, monkeypatch
    ):
        """An ingest that raises after its pack write leaves nothing a
        retry in the same process would have to step over."""
        clean_root, clean_result = clean
        root = tmp_path / "corpus"
        with TraceCorpus(root) as corpus:
            corpus.ingest(runs["a"], run="a")
            size = (root / "blobs.pack").stat().st_size

            def disk_full(*args):
                raise OSError("no space left on device")

            with monkeypatch.context() as patch:
                patch.setattr(CorpusCatalog, "add_run", disk_full)
                with pytest.raises(OSError, match="no space"):
                    corpus.ingest(runs["b"], run="b")
            assert (root / "blobs.pack").stat().st_size == size
            assert corpus.check() == []
            assert corpus.ingest(runs["b"], run="b") == clean_result
        assert (root / "blobs.pack").read_bytes() == (
            clean_root / "blobs.pack"
        ).read_bytes()


class TestOneCommitPerRun:
    def test_ingest_commits_once(self, runs, tmp_path):
        with TraceCorpus(tmp_path / "corpus") as corpus:
            statements = []
            corpus._catalog._db.set_trace_callback(statements.append)
            corpus.ingest(runs["a"], run="a")
            assert commits(statements) == 1
            corpus.ingest(runs["b"], run="b")
            assert commits(statements) == 2
            corpus.ingest(runs["b"], run="b2")  # every blob shared
            assert commits(statements) == 3

    def test_batch_commits_once_per_run(self, runs, tmp_path):
        with TraceCorpus(tmp_path / "corpus") as corpus:
            statements = []
            corpus._catalog._db.set_trace_callback(statements.append)
            results = corpus.ingest_runs([runs[name] for name in "abc"])
            assert len(results) == 3
            assert commits(statements) == 3


class TestRecoveryOnOpen:
    def test_pack_tail_truncated(self, runs, tmp_path):
        root = tmp_path / "corpus"
        with TraceCorpus(root) as corpus:
            corpus.ingest(runs["a"], run="a")
            assert corpus.recovered_bytes == 0
        pack = root / "blobs.pack"
        size = pack.stat().st_size
        with open(pack, "ab") as fh:
            fh.write(b"\x01\x05torn")
        with TraceCorpus(root) as corpus:
            assert pack.stat().st_size == size
            assert corpus.recovered_bytes == 6
            assert corpus.check() == []

    def test_open_while_a_writer_holds_the_pack(self, runs, tmp_path):
        """Bytes past the last row may be a live ingest's records, not
        yet committed: an open that cannot take the writer lock keeps
        them."""
        root = tmp_path / "corpus"
        with TraceCorpus(root) as writer:
            writer.ingest(runs["a"], run="a")
            pack = root / "blobs.pack"
            with writer._pack.locked():
                with open(pack, "ab") as fh:
                    fh.write(b"\x01\x05inbox")
                size = pack.stat().st_size
                with TraceCorpus(root) as reader:
                    assert reader.recovered_bytes == 0
                    assert pack.stat().st_size == size
                    assert reader.runs()[0].run == "a"
        with TraceCorpus(root) as corpus:
            assert corpus.recovered_bytes == 7

    def test_ingest_drops_a_tail_left_after_open(self, runs, clean, tmp_path):
        """A writer killed after this corpus opened is recovered by the
        next ingest, before it appends."""
        clean_root, clean_result = clean
        root = tmp_path / "corpus"
        with TraceCorpus(root) as corpus:
            corpus.ingest(runs["a"], run="a")
            with open(root / "blobs.pack", "ab") as fh:
                fh.write(b"\x01\x05torn")
            assert corpus.ingest(runs["b"], run="b") == clean_result
            assert corpus.check() == []
        assert (root / "blobs.pack").read_bytes() == (
            clean_root / "blobs.pack"
        ).read_bytes()

    def test_empty_catalog_truncates_to_header(self, tmp_path):
        root = tmp_path / "corpus"
        TraceCorpus(root).close()
        pack = root / "blobs.pack"
        with open(pack, "ab") as fh:
            fh.write(b"\x03\x10partial record")
        TraceCorpus(root).close()
        assert pack.read_bytes() == b"CWPK\x01"


class TestConcurrentOpen:
    def test_open_mid_ingest_keeps_the_ingest(
        self, runs, clean, tmp_path, monkeypatch
    ):
        """Another process opening the corpus between the pack write and
        the commit must not drop the records the commit will point at."""
        clean_root, clean_result = clean
        root = tmp_path / "corpus"
        opened = []
        append_many = BlobPack.append_many

        def then_open(pack, records):
            spans = append_many(pack, records)
            proc = _run_script(OPEN_SCRIPT, root)
            assert proc.returncode == 0, proc.stderr
            opened.append(proc.stdout.strip())
            return spans

        with TraceCorpus(root) as corpus:
            corpus.ingest(runs["a"], run="a")
            monkeypatch.setattr(BlobPack, "append_many", then_open)
            assert corpus.ingest(runs["b"], run="b") == clean_result
            assert corpus.check() == []
        assert opened == ["0"]
        assert (root / "blobs.pack").read_bytes() == (
            clean_root / "blobs.pack"
        ).read_bytes()


class TestCheck:
    @pytest.fixture
    def corpus_root(self, runs, tmp_path):
        root = tmp_path / "corpus"
        with TraceCorpus(root) as corpus:
            corpus.ingest(runs["a"], run="a")
            corpus.ingest(runs["b"], run="b")
        return root

    def test_clean_corpus(self, corpus_root):
        with TraceCorpus(corpus_root) as corpus:
            assert corpus.check() == []

    def test_refs_drift_reported(self, corpus_root):
        con = sqlite3.connect(corpus_root / "corpus.sqlite")
        with con:
            con.execute("UPDATE blobs SET refs = refs + 1 WHERE id = 1")
        con.close()
        with TraceCorpus(corpus_root) as corpus:
            (problem,) = corpus.check()
        assert problem.startswith("blob 1: refs")

    @staticmethod
    def damage_manifests(corpus_root, damage):
        """Truncate b's stored manifest, or swap a's and b's."""
        con = sqlite3.connect(corpus_root / "corpus.sqlite")
        with con:
            if damage == "truncated":
                con.execute(
                    "UPDATE runs SET manifest ="
                    " substr(manifest, 1, length(manifest) - 3)"
                    " WHERE run = 'b'"
                )
            else:
                stored = dict(con.execute("SELECT run, manifest FROM runs"))
                con.executemany(
                    "UPDATE runs SET manifest = ? WHERE run = ?",
                    [(stored["b"], "a"), (stored["a"], "b")],
                )
        con.close()

    def test_truncated_manifest_reported(self, corpus_root):
        self.damage_manifests(corpus_root, "truncated")
        with TraceCorpus(corpus_root) as corpus:
            problems = corpus.check()
        assert problems[0].startswith("run b: unreadable manifest")
        # Without b's manifest, every blob b shares now looks over-counted.
        assert any("refs 2, but 1" in p for p in problems)

    @pytest.mark.parametrize("damage", ["truncated", "swapped"])
    def test_unreadable_manifest_is_a_typed_read_error(
        self, corpus_root, damage
    ):
        """Reads take membership from the stored manifest alone, so a
        damaged one fails every read of its run, naming the run;
        ``check`` reports it as before."""
        with TraceCorpus(corpus_root) as corpus:
            name = corpus.functions("a")[0]
        self.damage_manifests(corpus_root, damage)
        if damage == "truncated":
            damaged = {"b": "run b: unreadable manifest"}
        else:
            damaged = {
                "a": "run a: manifest names run 'b'",
                "b": "run b: manifest names run 'a'",
            }
        with TraceCorpus(corpus_root) as corpus:
            if "a" not in damaged:
                assert corpus.traces("a", name)
            for run, message in damaged.items():
                reads = (
                    lambda: corpus.functions(run),
                    lambda: corpus.traces(run, name),
                    lambda: corpus.dcg(run),
                    lambda: corpus.diff(run, "a" if run == "b" else "b"),
                    lambda: corpus.hot_paths(runs=[run]),
                    lambda: corpus.block_frequencies(runs=[run]),
                )
                for read in reads:
                    with pytest.raises(CorruptRun, match=message):
                        read()
            problems = corpus.check()
        if damage == "truncated":
            assert problems[0].startswith("run b: unreadable manifest")
        else:
            assert problems[:2] == list(damaged.values())

    def test_corrupt_payload_reported(self, corpus_root):
        pack = corpus_root / "blobs.pack"
        data = bytearray(pack.read_bytes())
        data[-1] ^= 0xFF
        pack.write_bytes(bytes(data))
        with TraceCorpus(corpus_root) as corpus:
            (problem,) = corpus.check()
        assert "sha mismatch" in problem

    def test_unaccounted_pack_tail_reported(self, corpus_root):
        with TraceCorpus(corpus_root) as corpus:
            # Bytes that land after open are not recovered until the
            # next open, so check sees them.
            with open(corpus_root / "blobs.pack", "ab") as fh:
                fh.write(b"tail")
            (problem,) = corpus.check()
        assert problem == "pack: 4 byte(s) past the last catalogued record"

    def test_cli_exit_codes(self, corpus_root, capsys):
        from repro.cli import main

        assert main(["corpus", "check", str(corpus_root), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "ok": True,
            "problems": [],
            "recovered_bytes": 0,
        }
        assert main(["corpus", "check", str(corpus_root)]) == 0
        assert "0 problem(s)" in capsys.readouterr().out

        pack = corpus_root / "blobs.pack"
        data = bytearray(pack.read_bytes())
        data[-1] ^= 0xFF
        pack.write_bytes(bytes(data))
        assert main(["corpus", "check", str(corpus_root), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and len(doc["problems"]) == 1

    def test_cli_reports_recovery(self, corpus_root, capsys):
        """The tail a killed ingest left is dropped on open, and said."""
        from repro.cli import main

        with open(corpus_root / "blobs.pack", "ab") as fh:
            fh.write(b"tail")
        assert main(["corpus", "check", str(corpus_root)]) == 0
        out = capsys.readouterr().out
        assert "opening dropped 4 pack byte(s)" in out
        assert "0 problem(s)" in out
