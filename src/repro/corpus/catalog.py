"""The corpus's SQLite catalog.

Where the trace store's catalog indexes *files*, the corpus catalog
indexes *content*: one row per unique blob (sha, kind, pack offset,
reference count), one row per ingested run with its sharing
accounting, and the per-function membership tables that make cross-run
queries pure SQL -- ``pairs`` holds every (run, function, position)
triple with its body/dict blob ids and DCG activation weight, so diff
is set algebra over blob-id pairs and corpus-wide hot paths are one
``GROUP BY`` away, with only the surviving rows ever decoded.

Schema (version 1) is documented in ``docs/FORMATS.md``.  All access
is serialized behind one lock, same discipline as
:class:`repro.store.catalog.TraceCatalog`.  :meth:`CorpusCatalog.add_run`
is the only write: a run's new blob rows, the reference bumps on the
blobs it shares, and its run, function, pair and DCG-chunk rows commit
in one transaction, so a crashed ingest leaves no partial run, no
orphan blob row and no reference-count drift behind.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

PathLike = Union[str, "os.PathLike[str]"]

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS blobs (
    id     INTEGER PRIMARY KEY,
    sha    BLOB UNIQUE NOT NULL,
    kind   INTEGER NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    refs   INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY,
    run            TEXT UNIQUE NOT NULL,
    source         TEXT NOT NULL,
    manifest_path  TEXT NOT NULL,
    twpp_bytes     INTEGER NOT NULL,
    manifest_bytes INTEGER NOT NULL,
    blobs_added    INTEGER NOT NULL,
    blobs_shared   INTEGER NOT NULL,
    bytes_added    INTEGER NOT NULL,
    bytes_shared   INTEGER NOT NULL,
    functions      INTEGER NOT NULL,
    pairs          INTEGER NOT NULL,
    calls          INTEGER NOT NULL,
    dcg_nodes      INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS functions (
    run_id         INTEGER NOT NULL,
    original_index INTEGER NOT NULL,
    name           TEXT NOT NULL,
    call_count     INTEGER NOT NULL,
    pairs          INTEGER NOT NULL,
    PRIMARY KEY (run_id, name)
);
CREATE INDEX IF NOT EXISTS functions_by_index
    ON functions (run_id, original_index);
CREATE TABLE IF NOT EXISTS pairs (
    run_id    INTEGER NOT NULL,
    func      TEXT NOT NULL,
    position  INTEGER NOT NULL,
    body_blob INTEGER NOT NULL,
    dict_blob INTEGER NOT NULL,
    weight    INTEGER NOT NULL,
    PRIMARY KEY (run_id, func, position)
);
CREATE INDEX IF NOT EXISTS pairs_by_content
    ON pairs (func, body_blob, dict_blob);
CREATE TABLE IF NOT EXISTS dcg_chunks (
    run_id   INTEGER NOT NULL,
    position INTEGER NOT NULL,
    blob_id  INTEGER NOT NULL,
    PRIMARY KEY (run_id, position)
);
"""

__all__ = ["CorpusCatalog", "CorpusRun", "SCHEMA_VERSION"]


@dataclass(frozen=True)
class CorpusRun:
    """One ingested run's catalog row."""

    run: str
    source: str
    manifest_path: str
    twpp_bytes: int
    manifest_bytes: int
    blobs_added: int
    blobs_shared: int
    bytes_added: int
    bytes_shared: int
    functions: int
    pairs: int
    calls: int
    dcg_nodes: int

    def to_dict(self) -> Dict:
        return {
            "run": self.run,
            "source": self.source,
            "twpp_bytes": self.twpp_bytes,
            "manifest_bytes": self.manifest_bytes,
            "blobs_added": self.blobs_added,
            "blobs_shared": self.blobs_shared,
            "bytes_added": self.bytes_added,
            "bytes_shared": self.bytes_shared,
            "functions": self.functions,
            "pairs": self.pairs,
            "calls": self.calls,
            "dcg_nodes": self.dcg_nodes,
        }


_RUN_COLUMNS = (
    "run, source, manifest_path, twpp_bytes, manifest_bytes,"
    " blobs_added, blobs_shared, bytes_added, bytes_shared,"
    " functions, pairs, calls, dcg_nodes"
)


class CorpusCatalog:
    """SQLite-backed index of a corpus's blobs, runs, and membership."""

    def __init__(self, db_path: PathLike = ":memory:") -> None:
        self.db_path = os.fspath(db_path)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(self.db_path, check_same_thread=False)
        with self._lock, self._db:
            self._db.executescript(_SCHEMA)
            self._db.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )

    def close(self) -> None:
        with self._lock:
            self._db.close()

    # ---- blobs --------------------------------------------------------

    def known_blobs(
        self, shas: Iterable[bytes]
    ) -> Tuple[Dict[bytes, int], int]:
        """Ids of the already-catalogued ``shas``, and the next free id.

        The next id is the one SQLite would give the next inserted row
        (one past the largest id), so ids handed out from it before a
        commit are the ids an insert-per-blob catalog assigns.
        """
        known: Dict[bytes, int] = {}
        with self._lock:
            for sha in shas:
                row = self._db.execute(
                    "SELECT id FROM blobs WHERE sha = ?", (sha,)
                ).fetchone()
                if row is not None:
                    known[sha] = row[0]
            (next_id,) = self._db.execute(
                "SELECT COALESCE(MAX(id), 0) + 1 FROM blobs"
            ).fetchone()
        return known, next_id

    def pack_end(self) -> Optional[int]:
        """One past the last pack byte any blob row covers (None: no blobs)."""
        with self._lock:
            (end,) = self._db.execute(
                "SELECT MAX(offset + length) FROM blobs"
            ).fetchone()
        return end

    def blob_rows(self) -> List[Tuple[int, bytes, int, int, int, int]]:
        """Every blob's (id, sha, kind, offset, length, refs), id order."""
        with self._lock:
            return self._db.execute(
                "SELECT id, sha, kind, offset, length, refs FROM blobs"
                " ORDER BY id"
            ).fetchall()

    def blob(self, blob_id: int) -> Tuple[bytes, int, int, int, int]:
        """(sha, kind, offset, length, refs) for one blob id."""
        with self._lock:
            row = self._db.execute(
                "SELECT sha, kind, offset, length, refs FROM blobs"
                " WHERE id = ?",
                (blob_id,),
            ).fetchone()
        if row is None:
            raise KeyError(f"no blob with id {blob_id}")
        return row

    def blob_totals(self) -> Dict[int, Tuple[int, int]]:
        """Per kind: (blob count, total payload bytes)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT kind, COUNT(*), SUM(length) FROM blobs GROUP BY kind"
            ).fetchall()
        return {kind: (count, total or 0) for kind, count, total in rows}

    # ---- runs ---------------------------------------------------------

    def add_run(
        self,
        record: CorpusRun,
        new_blobs: Sequence[Tuple[int, bytes, int, int, int]],
        shared_ids: Sequence[int],
        function_rows: Sequence[Tuple[int, str, int, int]],
        pair_rows: Sequence[Tuple[str, int, int, int, int]],
        dcg_chunk_ids: Sequence[int],
    ) -> int:
        """Commit one run, its blobs and all its membership rows at once.

        ``new_blobs`` are (id, sha, kind, offset, length) for payloads
        the run added to the pack (ids from :meth:`known_blobs`, refs
        start at 1); ``shared_ids`` are the catalogued blobs it also
        references, whose refs go up by one.  ``function_rows`` are
        (original_index, name, call_count, pairs); ``pair_rows`` are
        (func, position, body_blob, dict_blob, weight).
        """
        with self._lock, self._db:
            self._db.executemany(
                "INSERT INTO blobs (id, sha, kind, offset, length, refs)"
                " VALUES (?, ?, ?, ?, ?, 1)",
                new_blobs,
            )
            self._db.executemany(
                "UPDATE blobs SET refs = refs + 1 WHERE id = ?",
                [(blob_id,) for blob_id in shared_ids],
            )
            cur = self._db.execute(
                f"INSERT INTO runs ({_RUN_COLUMNS})"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.run,
                    record.source,
                    record.manifest_path,
                    record.twpp_bytes,
                    record.manifest_bytes,
                    record.blobs_added,
                    record.blobs_shared,
                    record.bytes_added,
                    record.bytes_shared,
                    record.functions,
                    record.pairs,
                    record.calls,
                    record.dcg_nodes,
                ),
            )
            run_id = cur.lastrowid
            self._db.executemany(
                "INSERT INTO functions (run_id, original_index, name,"
                " call_count, pairs) VALUES (?, ?, ?, ?, ?)",
                [(run_id, *row) for row in function_rows],
            )
            self._db.executemany(
                "INSERT INTO pairs (run_id, func, position, body_blob,"
                " dict_blob, weight) VALUES (?, ?, ?, ?, ?, ?)",
                [(run_id, *row) for row in pair_rows],
            )
            self._db.executemany(
                "INSERT INTO dcg_chunks (run_id, position, blob_id)"
                " VALUES (?, ?, ?)",
                [(run_id, pos, bid) for pos, bid in enumerate(dcg_chunk_ids)],
            )
            return run_id

    def run(self, run: str) -> Optional[CorpusRun]:
        with self._lock:
            row = self._db.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs WHERE run = ?", (run,)
            ).fetchone()
        return CorpusRun(*row) if row is not None else None

    def runs(self) -> List[CorpusRun]:
        """Every ingested run, in ingestion order."""
        with self._lock:
            rows = self._db.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs ORDER BY id"
            ).fetchall()
        return [CorpusRun(*row) for row in rows]

    def _run_id(self, run: str) -> int:  # caller holds the lock
        row = self._db.execute(
            "SELECT id FROM runs WHERE run = ?", (run,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run {run!r} in corpus")
        return row[0]

    # ---- membership ---------------------------------------------------

    def functions(self, run: str) -> List[Tuple[str, int, int]]:
        """One run's (name, call_count, pairs), original-index order."""
        with self._lock:
            run_id = self._run_id(run)
            rows = self._db.execute(
                "SELECT name, call_count, pairs FROM functions"
                " WHERE run_id = ? ORDER BY original_index",
                (run_id,),
            ).fetchall()
        return rows

    def function_summary(self, run: str) -> Dict[str, Tuple[int, int]]:
        """name -> (call_count, pairs) for one run."""
        return {
            name: (calls, pairs)
            for name, calls, pairs in self.functions(run)
        }

    def pair_set(self, run: str, func: str) -> Set[Tuple[int, int]]:
        """The distinct (body_blob, dict_blob) ids of one function."""
        with self._lock:
            run_id = self._run_id(run)
            rows = self._db.execute(
                "SELECT DISTINCT body_blob, dict_blob FROM pairs"
                " WHERE run_id = ? AND func = ?",
                (run_id, func),
            ).fetchall()
        return set(rows)

    def pair_rows(self, run: str, func: str) -> List[Tuple[int, int, int]]:
        """(body_blob, dict_blob, weight) in section position order."""
        with self._lock:
            run_id = self._run_id(run)
            rows = self._db.execute(
                "SELECT body_blob, dict_blob, weight FROM pairs"
                " WHERE run_id = ? AND func = ? ORDER BY position",
                (run_id, func),
            ).fetchall()
        if not rows and not self._has_function(run_id, func):
            raise KeyError(f"no function {func!r} in run {run!r}")
        return rows

    def _has_function(self, run_id: int, func: str) -> bool:
        # caller holds the lock
        return (
            self._db.execute(
                "SELECT 1 FROM functions WHERE run_id = ? AND name = ?",
                (run_id, func),
            ).fetchone()
            is not None
        )

    def pair_weights(
        self,
        runs: Optional[Sequence[str]] = None,
        functions: Optional[Sequence[str]] = None,
    ) -> List[Tuple[str, int, int, int]]:
        """(func, body_blob, dict_blob, summed weight) over a run subset.

        The corpus-wide aggregation query: weights sum across every
        selected run, so each unique pair decodes once downstream no
        matter how many runs share it.
        """
        query = (
            "SELECT p.func, p.body_blob, p.dict_blob, SUM(p.weight)"
            " FROM pairs p JOIN runs r ON p.run_id = r.id"
        )
        clauses = []
        params: List = []
        if runs is not None:
            names = list(runs)
            with self._lock:
                for name in names:
                    self._run_id(name)  # raise KeyError on unknown runs
            clauses.append(
                "r.run IN (%s)" % ",".join("?" * len(names))
            )
            params.extend(names)
        if functions is not None:
            funcs = list(functions)
            clauses.append(
                "p.func IN (%s)" % ",".join("?" * len(funcs))
            )
            params.extend(funcs)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " GROUP BY p.func, p.body_blob, p.dict_blob"
        with self._lock:
            return self._db.execute(query, params).fetchall()

    def dcg_chunk_ids(self, run: str) -> List[int]:
        """One run's DCG chunk blob ids in stream order."""
        with self._lock:
            run_id = self._run_id(run)
            rows = self._db.execute(
                "SELECT blob_id FROM dcg_chunks WHERE run_id = ?"
                " ORDER BY position",
                (run_id,),
            ).fetchall()
        return [row[0] for row in rows]

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._db.execute("SELECT COUNT(*) FROM runs").fetchone()
        return n

    def __contains__(self, run: str) -> bool:
        return self.run(run) is not None
