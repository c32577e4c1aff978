"""The corpus's SQLite catalog: the blob index and the run accounting.

Where the trace store's index covers *files*, the corpus catalog
indexes *content*: one row per unique blob (sha, kind, pack offset,
reference count) and one row per ingested run with its sharing
accounting.  Which blobs a run uses lives only in the run's manifest
(``runs/<run>.manifest``), never here.

Schema (version 2) is documented in ``docs/FORMATS.md``; a catalog of
any other version, or a file SQLite cannot read, is a ``ValueError``
naming the file.  All access is serialized behind one lock.
:meth:`CorpusCatalog.add_run` is the only write: a run's new blob
rows, the reference bumps on the blobs it shares, and its run row
commit in one transaction, so a crashed ingest leaves no partial run,
no orphan blob row and no reference-count drift behind.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

PathLike = Union[str, "os.PathLike[str]"]

SCHEMA_VERSION = 2

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
INSERT OR REPLACE INTO meta (key, value)
    VALUES ('schema_version', '%d');
""" % SCHEMA_VERSION

__all__ = ["CorpusCatalog", "CorpusRun", "SCHEMA_VERSION"]


@dataclass(frozen=True)
class CorpusRun:
    """One ingested run's catalog row."""

    run: str
    source: str
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
        return asdict(self)


#: The ``runs`` columns, in :class:`CorpusRun` field order.
_RUN_COLUMNS = ", ".join(f.name for f in fields(CorpusRun))


class CorpusCatalog:
    """SQLite-backed index of a corpus's blobs and runs."""

    def __init__(self, db_path: PathLike = ":memory:") -> None:
        self.db_path = os.fspath(db_path)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(self.db_path, check_same_thread=False)
        try:
            with self._locked():
                self._open_schema()
        except BaseException:
            self._db.close()
            raise

    def _open_schema(self) -> None:  # caller holds the lock
        """Create a fresh catalog, or check an existing one's version."""
        (objects,) = self._db.execute(
            "SELECT COUNT(*) FROM sqlite_master"
        ).fetchone()
        if objects:
            row = self._db.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            version = None if row is None else row[0]
            if version != str(SCHEMA_VERSION):
                raise ValueError(
                    f"{self.db_path}: corpus catalog schema version"
                    f" {version}, expected {SCHEMA_VERSION}"
                )
            return
        # One transaction, so a concurrent open sees all of it or none.
        self._db.executescript(f"BEGIN IMMEDIATE; {_SCHEMA} COMMIT;")

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the lock; a catalog SQLite cannot read is a ValueError."""
        with self._lock:
            try:
                yield
            except sqlite3.DatabaseError as exc:
                raise ValueError(
                    f"{self.db_path}: not a readable corpus catalog: {exc}"
                ) from exc

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
        with self._locked():
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
        with self._locked():
            (end,) = self._db.execute(
                "SELECT MAX(offset + length) FROM blobs"
            ).fetchone()
        return end

    def blob_rows(self) -> List[Tuple[int, bytes, int, int, int, int]]:
        """Every blob's (id, sha, kind, offset, length, refs), id order."""
        with self._locked():
            return self._db.execute(
                "SELECT id, sha, kind, offset, length, refs FROM blobs"
                " ORDER BY id"
            ).fetchall()

    def blob(self, blob_id: int) -> Tuple[bytes, int, int, int, int]:
        """(sha, kind, offset, length, refs) for one blob id."""
        with self._locked():
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
        with self._locked():
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
    ) -> None:
        """Commit one run's row and its blobs at once.

        ``new_blobs`` are (id, sha, kind, offset, length) for payloads
        the run added to the pack (ids from :meth:`known_blobs`, refs
        start at 1); ``shared_ids`` are the catalogued blobs it also
        references, whose refs go up by one.
        """
        with self._locked(), self._db:
            self._db.executemany(
                "INSERT INTO blobs (id, sha, kind, offset, length, refs)"
                " VALUES (?, ?, ?, ?, ?, 1)",
                new_blobs,
            )
            self._db.executemany(
                "UPDATE blobs SET refs = refs + 1 WHERE id = ?",
                [(blob_id,) for blob_id in shared_ids],
            )
            row = astuple(record)
            self._db.execute(
                f"INSERT INTO runs ({_RUN_COLUMNS})"
                f" VALUES ({', '.join('?' * len(row))})",
                row,
            )

    def run(self, run: str) -> Optional[CorpusRun]:
        with self._locked():
            row = self._db.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs WHERE run = ?", (run,)
            ).fetchone()
        return CorpusRun(*row) if row is not None else None

    def runs(self) -> List[CorpusRun]:
        """Every ingested run, in ingestion order."""
        with self._locked():
            rows = self._db.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs ORDER BY id"
            ).fetchall()
        return [CorpusRun(*row) for row in rows]

    def __len__(self) -> int:
        with self._locked():
            (n,) = self._db.execute("SELECT COUNT(*) FROM runs").fetchone()
        return n

    def __contains__(self, run: str) -> bool:
        return self.run(run) is not None
