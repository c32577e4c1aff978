"""Golden corpus bytes: what ingesting five analogue runs writes.

Ingest is free to change *how* it writes (batching, transactions,
fsync order) but not *what*: the pack's bytes, every run's manifest,
the catalog's blob rows (ids, offsets, reference counts) and its
``pairs`` table are pinned here as sha1s of the bytes the reference
ingest produced.  The input ``.twpp`` sha1s are pinned too, so a
failure says whether the inputs or the ingest moved.

Regenerate ``tests/data/corpus_golden.json`` (only when the corpus
format is *meant* to change) with::

    PYTHONPATH=src python tests/test_corpus_identity.py
"""

import hashlib
import json
import os
import sqlite3
import sys
import tempfile
from pathlib import Path

from repro.api import Session
from repro.corpus import TraceCorpus
from repro.ir.printer import format_program
from repro.workloads import generate_program, spec_for

GOLDEN = Path(__file__).parent / "data" / "corpus_golden.json"
#: (run name, workload family, scale): two scales of one program share
#: blobs, the rest are unrelated programs.
RUNS = (
    ("li-a", "li-like", 0.1),
    ("li-b", "li-like", 0.15),
    ("perl", "perl-like", 0.1),
    ("ijpeg", "ijpeg-like", 0.1),
    ("gcc", "gcc-like", 0.1),
)


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def _dump(db: Path, query: str) -> str:
    con = sqlite3.connect(db)
    try:
        rows = con.execute(query).fetchall()
    finally:
        con.close()
    lines = "\n".join(
        " ".join(v.hex() if isinstance(v, bytes) else str(v) for v in row)
        for row in rows
    )
    return _sha1(lines.encode())


def corpus_digests() -> dict:
    """Trace every run to ``.twpp``, ingest all five, hash the corpus.

    Runs in the current directory with relative paths, because each
    manifest records its run's source path.
    """
    paths = []
    with Session() as session:
        for name, family, scale in RUNS:
            ir = Path(f"{name}.ir")
            ir.write_text(format_program(generate_program(spec_for(family, scale))))
            paths.append(Path(f"{name}.twpp"))
            session.trace(ir, stream=True, output=paths[-1])
        with TraceCorpus("corpus", session=session) as corpus:
            corpus.ingest_runs(paths, runs=[name for name, _, _ in RUNS])
    root = Path("corpus")
    return {
        "twpp": {p.stem: _sha1(p.read_bytes()) for p in paths},
        "pack": _sha1((root / "blobs.pack").read_bytes()),
        "manifests": {
            p.stem: _sha1(p.read_bytes())
            for p in sorted((root / "runs").glob("*.manifest"))
        },
        "blobs": _dump(
            root / "corpus.sqlite",
            "SELECT sha, kind, offset, length, refs FROM blobs ORDER BY id",
        ),
        "pairs": _dump(
            root / "corpus.sqlite",
            "SELECT run_id, func, position, body_blob, dict_blob, weight"
            " FROM pairs ORDER BY run_id, func, position",
        ),
    }


def test_corpus_bytes_match_golden(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    got = corpus_digests()
    assert got["twpp"] == golden["twpp"], "input .twpp files changed"
    assert got == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        doc = corpus_digests()
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
