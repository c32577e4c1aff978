"""The trace store's SQLite catalog.

A store is a directory of ``.twpp`` files; the catalog is the small
SQLite database that makes it *servable* without touching every file on
every request: one row per trace (path, mtime, size, function count)
and one row per (trace, function) with the name, call count, and
section offset/length lifted straight from the ``.twpp`` header index.
:meth:`TraceCatalog.scan` reconciles the database against the directory
using (mtime_ns, size) as the change signature -- unchanged files are
skipped entirely, new/modified files get their header re-read, and
rows for deleted files are dropped.

The schema (version 1) is documented in ``docs/FORMATS.md``.  The
catalog lives beside the traces by default (``catalog.sqlite``) so a
rescan from any process warms up instantly; pass ``":memory:"`` for a
throwaway catalog.  All access is serialized behind one lock, so the
HTTP daemon's handler threads can share a single instance.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

PathLike = Union[str, "os.PathLike[str]"]

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS traces (
    id          INTEGER PRIMARY KEY,
    trace       TEXT UNIQUE NOT NULL,
    path        TEXT NOT NULL,
    mtime_ns    INTEGER NOT NULL,
    size        INTEGER NOT NULL,
    functions   INTEGER NOT NULL,
    calls       INTEGER NOT NULL,
    has_program INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS functions (
    trace_id       INTEGER NOT NULL,
    position       INTEGER NOT NULL,
    name           TEXT NOT NULL,
    call_count     INTEGER NOT NULL,
    original_index INTEGER NOT NULL,
    section_offset INTEGER NOT NULL,
    section_length INTEGER NOT NULL,
    PRIMARY KEY (trace_id, name)
);
CREATE INDEX IF NOT EXISTS functions_by_trace
    ON functions (trace_id, position);
"""

__all__ = [
    "CatalogFunction",
    "CatalogTrace",
    "SCHEMA_VERSION",
    "ScanResult",
    "TraceCatalog",
]


@dataclass(frozen=True)
class CatalogTrace:
    """One catalogued ``.twpp`` file."""

    trace: str
    path: str
    mtime_ns: int
    size: int
    functions: int
    calls: int
    has_program: bool

    def to_dict(self) -> Dict:
        return {
            "trace": self.trace,
            "size": self.size,
            "functions": self.functions,
            "calls": self.calls,
            "has_program": self.has_program,
        }


@dataclass(frozen=True)
class CatalogFunction:
    """One function row: the header index entry, catalogued."""

    name: str
    call_count: int
    original_index: int
    section_offset: int
    section_length: int

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "calls": self.call_count,
            "section_offset": self.section_offset,
            "section_bytes": self.section_length,
        }


@dataclass(frozen=True)
class ScanResult:
    """What one :meth:`TraceCatalog.scan` reconciliation did."""

    added: int
    updated: int
    removed: int
    unchanged: int
    errors: Tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.added or self.updated or self.removed)


def _read_index(path: str):
    """(mtime_ns, size, header entries) for one ``.twpp`` file."""
    from ..compact.format import read_header

    st = os.stat(path)
    with open(path, "rb") as fh:
        header = read_header(fh)
    return st.st_mtime_ns, st.st_size, header.entries


class TraceCatalog:
    """SQLite-backed index of a directory of ``.twpp`` traces."""

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

    # ---- scanning -----------------------------------------------------

    def scan(self, root: PathLike) -> ScanResult:
        """Reconcile the catalog against ``root``'s ``.twpp`` files.

        Unchanged files (same mtime_ns and size) are skipped; new or
        modified files get their header index re-read.  Files whose
        header fails to parse are reported in ``errors`` and dropped
        from the catalog rather than aborting the scan.
        """
        root = Path(root)
        seen: Dict[str, str] = {}
        for path in sorted(root.glob("*.twpp")):
            seen[path.stem] = str(path)

        with self._lock:
            rows = self._db.execute(
                "SELECT trace, path, mtime_ns, size FROM traces"
            ).fetchall()
        known = {row[0]: row for row in rows}

        stale: List[Tuple[str, str, bool]] = []  # (trace, path, is_new)
        unchanged = 0
        removed = [trace for trace in known if trace not in seen]
        for trace, path in seen.items():
            try:
                st = os.stat(path)
            except OSError:
                st = None
            if st is None or st.st_size == 0:
                # Deleted between the glob and now, or truncated to
                # nothing (an interrupted writer): there is no header
                # to read, so this is a removal, not a parse error.
                if trace in known:
                    removed.append(trace)
                continue
            row = known.get(trace)
            if row is None or row[1] != path:
                stale.append((trace, path, True))
            elif (st.st_mtime_ns, st.st_size) == (row[2], row[3]):
                unchanged += 1
            else:
                stale.append((trace, path, False))

        indexed = [self._try_read(path) for _, path, _ in stale]

        added = updated = 0
        errors: List[str] = []
        with self._lock, self._db:
            for trace in removed:
                self._drop(trace)
            for (trace, path, is_new), result in zip(stale, indexed):
                if isinstance(result, str):
                    errors.append(f"{path}: {result}")
                    self._drop(trace)
                    continue
                mtime_ns, size, entries = result
                program = str(Path(path).with_suffix(".ir"))
                self._drop(trace)
                cur = self._db.execute(
                    "INSERT INTO traces (trace, path, mtime_ns, size,"
                    " functions, calls, has_program)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        trace,
                        path,
                        mtime_ns,
                        size,
                        len(entries),
                        sum(e.call_count for e in entries),
                        int(os.path.exists(program)),
                    ),
                )
                self._db.executemany(
                    "INSERT INTO functions (trace_id, position, name,"
                    " call_count, original_index, section_offset,"
                    " section_length) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            cur.lastrowid,
                            pos,
                            e.name,
                            e.call_count,
                            e.original_index,
                            e.offset,
                            e.length,
                        )
                        for pos, e in enumerate(entries)
                    ],
                )
                if is_new:
                    added += 1
                else:
                    updated += 1
        return ScanResult(
            added=added,
            updated=updated,
            removed=len(removed),
            unchanged=unchanged,
            errors=tuple(errors),
        )

    @staticmethod
    def _try_read(path: str):
        try:
            return _read_index(path)
        except Exception as exc:  # surfaced per-file in ScanResult.errors
            return str(exc) or type(exc).__name__

    def _drop(self, trace: str) -> None:  # caller holds the lock
        row = self._db.execute(
            "SELECT id FROM traces WHERE trace = ?", (trace,)
        ).fetchone()
        if row is not None:
            self._db.execute(
                "DELETE FROM functions WHERE trace_id = ?", (row[0],)
            )
            self._db.execute("DELETE FROM traces WHERE id = ?", (row[0],))

    # ---- lookups ------------------------------------------------------

    def traces(self) -> List[CatalogTrace]:
        """Every catalogued trace, ordered by id name."""
        with self._lock:
            rows = self._db.execute(
                "SELECT trace, path, mtime_ns, size, functions, calls,"
                " has_program FROM traces ORDER BY trace"
            ).fetchall()
        return [
            CatalogTrace(
                trace=r[0],
                path=r[1],
                mtime_ns=r[2],
                size=r[3],
                functions=r[4],
                calls=r[5],
                has_program=bool(r[6]),
            )
            for r in rows
        ]

    def trace(self, trace: str) -> Optional[CatalogTrace]:
        with self._lock:
            r = self._db.execute(
                "SELECT trace, path, mtime_ns, size, functions, calls,"
                " has_program FROM traces WHERE trace = ?",
                (trace,),
            ).fetchone()
        if r is None:
            return None
        return CatalogTrace(
            trace=r[0],
            path=r[1],
            mtime_ns=r[2],
            size=r[3],
            functions=r[4],
            calls=r[5],
            has_program=bool(r[6]),
        )

    def functions(self, trace: str) -> List[CatalogFunction]:
        """One trace's function rows in storage (hottest-first) order."""
        with self._lock:
            rows = self._db.execute(
                "SELECT f.name, f.call_count, f.original_index,"
                " f.section_offset, f.section_length"
                " FROM functions f JOIN traces t ON f.trace_id = t.id"
                " WHERE t.trace = ? ORDER BY f.position",
                (trace,),
            ).fetchall()
        return [CatalogFunction(*row) for row in rows]

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._db.execute("SELECT COUNT(*) FROM traces").fetchone()
        return n

    def __contains__(self, trace: str) -> bool:
        return self.trace(trace) is not None
