"""Golden corpus bytes: what ingesting five analogue runs writes.

Ingest is free to change *how* it writes (batching, transactions,
fsync order) but not *what*: the pack's bytes, every run's manifest,
the catalog's blob rows (ids, offsets, reference counts) and every
run's pair membership with its activation weights are pinned here as
sha1s of the bytes the reference ingest produced.  The ``pairs`` digest
hashes one row per section position, ``run_id func position body_blob
dict_blob weight`` (``run_id`` the 1-based ingest order, rows ordered
by run, function, position), computed from each run's manifest and
the DCG the pack stores.  The input ``.twpp`` sha1s are pinned too, so
a failure says whether the inputs or the ingest moved.

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
from collections import Counter
from pathlib import Path

from repro.api import Session
from repro.corpus import TraceCorpus, decode_manifest
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


def _digest_rows(rows) -> str:
    lines = "\n".join(
        " ".join(v.hex() if isinstance(v, bytes) else str(v) for v in row)
        for row in rows
    )
    return _sha1(lines.encode())


def _dump(db: Path, query: str) -> str:
    con = sqlite3.connect(db)
    try:
        rows = con.execute(query).fetchall()
    finally:
        con.close()
    return _digest_rows(rows)


def _pair_rows(corpus, run_id: int, run: str) -> list:
    """One run's ``pairs`` rows, from its manifest file and its DCG."""
    manifest = decode_manifest(
        (corpus.root / "runs" / f"{run}.manifest").read_bytes()
    )
    dcg = corpus.dcg(run)
    weights = Counter(zip(dcg.node_func, dcg.node_trace))
    rows = []
    for index, fn in enumerate(manifest.functions):
        for position, (body, dictionary) in enumerate(fn.pairs):
            rows.append(
                (
                    run_id,
                    fn.name,
                    position,
                    fn.bodies[body],
                    fn.dicts[dictionary],
                    weights[(index, position)],
                )
            )
    return sorted(rows)


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
            pairs = _digest_rows(
                row
                for run_id, (name, _, _) in enumerate(RUNS, start=1)
                for row in _pair_rows(corpus, run_id, name)
            )
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
        "pairs": pairs,
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
