"""Blob codecs and the append-only pack file.

Three blob kinds cover everything a run's TWPP holds:

* **body** (:data:`KIND_BODY`) -- one unique compacted path trace in
  TWPP form: exactly one ``.twpp`` body record
  (:func:`repro.compact.format.encode_body`), so identical bodies
  across runs and sections serialize to identical bytes.
* **dict** (:data:`KIND_DICT`) -- one DBB dictionary, likewise one
  ``.twpp`` dictionary record
  (:func:`repro.compact.format.encode_dictionary`).
* **dcg chunk** (:data:`KIND_DCG`) -- a fixed-size slice of the DCG's
  raw ``(func, trace)`` varint stream, LZW-compressed.  The stream of
  a shorter run of the same program is a byte prefix of a longer
  run's (activations only ever append in preorder), so fixed-offset
  chunking lets runs that differ only in how long they ran share every
  chunk but the tail -- without it, each run's DCG would be a single
  never-deduplicated blob dominating corpus growth.

Every blob is addressed by ``sha1(kind byte + payload)``.  The pack
file is self-describing -- each record is ``kind byte, uvarint payload
length, payload`` after a small header -- so the catalog's blob index
can always be rebuilt by replaying the pack
(:meth:`BlobPack.iter_records`).
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import threading
from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple, Union

from ..compact.format import decode_body, decode_dictionary, record_ints
from ..compact.lzw import lzw_compress, lzw_decompress
from ..trace.encoding import read_uvarint, write_uvarint

PathLike = Union[str, "os.PathLike[str]"]

KIND_BODY = 1
KIND_DICT = 2
KIND_DCG = 3

KIND_NAMES = {KIND_BODY: "body", KIND_DICT: "dict", KIND_DCG: "dcg"}

#: Raw bytes of DCG pair stream per chunk blob.  Small enough that the
#: divergent tail of a run costs at most one chunk, large enough that
#: per-chunk LZW still compresses and per-chunk bookkeeping stays
#: negligible.
DCG_CHUNK_BYTES = 1024

#: sha1 digest size; every blob address is this long.
SHA_BYTES = 20

PACK_MAGIC = b"CWPK"
PACK_VERSION = 1
#: Magic + version byte; an empty pack is exactly this long.
PACK_HEADER_BYTES = len(PACK_MAGIC) + 1

__all__ = [
    "BlobPack",
    "DCG_CHUNK_BYTES",
    "KIND_BODY",
    "KIND_DCG",
    "KIND_DICT",
    "KIND_NAMES",
    "PACK_HEADER_BYTES",
    "PACK_MAGIC",
    "SHA_BYTES",
    "blob_sha",
    "decode_dcg_chunk",
    "decode_record",
    "encode_dcg_chunk",
    "fsync_dir",
]


def fsync_dir(path: PathLike) -> None:
    """Make a directory's entries (a created or renamed file) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def blob_sha(kind: int, payload: bytes) -> bytes:
    """Content address of one blob: sha1 over the kind byte + payload."""
    return hashlib.sha1(bytes([kind]) + payload).digest()


# ---------------------------------------------------------------------------
# blob payloads


def decode_record(kind: int, payload: bytes):
    """A body or dictionary blob, decoded by the ``.twpp`` record codec.

    A blob holds exactly one record, so bytes past its end are
    corruption and raise :class:`ValueError`.
    """
    decode = decode_body if kind == KIND_BODY else decode_dictionary
    ints = record_ints(payload)
    record, end = decode(ints, 0)
    if end != len(ints):
        raise ValueError(f"{KIND_NAMES[kind]} blob has trailing bytes")
    return record


def encode_dcg_chunk(raw: bytes) -> bytes:
    """One raw DCG pair-stream slice: uvarint raw length, LZW bytes."""
    comp = lzw_compress(raw)
    buf = bytearray()
    write_uvarint(buf, len(raw))
    buf += comp
    return bytes(buf)


def decode_dcg_chunk(data: bytes) -> bytes:
    """Inverse of :func:`encode_dcg_chunk`: the raw pair-stream slice."""
    raw_len, offset = read_uvarint(data, 0)
    raw = lzw_decompress(bytes(data[offset:]))
    if len(raw) != raw_len:
        raise ValueError("DCG chunk length mismatch after LZW decompression")
    return raw


def split_dcg_stream(stream: bytes) -> list:
    """Fixed-offset chunking of a raw DCG pair stream."""
    return [
        stream[i : i + DCG_CHUNK_BYTES]
        for i in range(0, len(stream), DCG_CHUNK_BYTES)
    ] or [b""]


# ---------------------------------------------------------------------------
# pack file


class BlobPack:
    """Append-only record file holding every blob payload of a corpus.

    Records are framed ``kind byte, uvarint payload length, payload``
    after a 5-byte header (magic + version), so the file alone suffices
    to rebuild the catalog's blob index.  ``append_many`` writes one
    run's new records and returns each payload's (offset, length) --
    what the catalog stores -- and ``read`` serves one back with one
    seek.  Thread-safe behind one lock.  A run's records are written
    and fsynced before the run's commit, so a committed catalog row
    never points at bytes that are not on disk; records past the last
    committed row are a torn ingest's tail, which :meth:`truncate`
    drops.  Writers serialize on :meth:`locked`, which is also what
    tells a reader whether a tail is torn or still being written.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._fh = open(self.path, "a+b")
        if exists:
            self._fh.seek(0)
            header = self._fh.read(PACK_HEADER_BYTES)
            if len(header) < PACK_HEADER_BYTES or header[:4] != PACK_MAGIC:
                raise ValueError(f"{self.path}: not a corpus pack file")
            if header[4] != PACK_VERSION:
                raise ValueError(
                    f"{self.path}: pack version {header[4]} not supported"
                )
        else:
            self._fh.write(PACK_MAGIC + bytes([PACK_VERSION]))
            self._fh.flush()
            os.fsync(self._fh.fileno())
            fsync_dir(os.path.dirname(os.path.abspath(self.path)))

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    def __enter__(self) -> "BlobPack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def locked(
        self, exclusive: bool = True, wait: bool = True
    ) -> Iterator[bool]:
        """Hold an advisory ``flock`` on the pack file for the block.

        The lock is taken on a descriptor of its own, so it excludes
        every other holder -- another process, another ``BlobPack`` on
        the same file, another thread -- and dies with its process.
        Yields whether it was taken: with ``wait=False`` a conflicting
        holder makes it yield ``False`` at once.
        """
        fd = os.open(self.path, os.O_RDONLY)
        try:
            mode = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
            try:
                fcntl.flock(fd, mode if wait else mode | fcntl.LOCK_NB)
                held = True
            except BlockingIOError:
                held = False
            yield held
        finally:
            os.close(fd)  # releases the lock

    def append_many(
        self, records: Sequence[Tuple[int, bytes]]
    ) -> List[Tuple[int, int]]:
        """Write (kind, payload) records, then flush and fsync once.

        Returns each payload's (offset, length), in record order.
        """
        spans = []
        with self._lock:
            cursor = self._fh.seek(0, os.SEEK_END)
            for kind, payload in records:
                frame = bytearray([kind])
                write_uvarint(frame, len(payload))
                self._fh.write(frame)
                self._fh.write(payload)
                cursor += len(frame)
                spans.append((cursor, len(payload)))
                cursor += len(payload)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        return spans

    def truncate(self, end: int) -> int:
        """Drop every byte past ``end``; returns how many were dropped.

        Only for a holder of the exclusive :meth:`locked`: past ``end``
        may lie another writer's records, written but not yet committed.
        """
        with self._lock:
            size = self._fh.seek(0, os.SEEK_END)
            if size <= end:
                return 0
            self._fh.truncate(end)
            return size - end

    def read(self, offset: int, length: int) -> bytes:
        """One payload back by (offset, length).

        A span past the end of the file raises :class:`ValueError`
        before anything is read, so a corrupt length cannot allocate.
        """
        with self._lock:
            end = self._fh.seek(0, os.SEEK_END)
            if offset + length > end:
                raise ValueError(
                    f"{self.path}: truncated blob at offset {offset}"
                )
            self._fh.seek(offset)
            return self._fh.read(length)

    def size(self) -> int:
        with self._lock:
            self._fh.seek(0, os.SEEK_END)
            return self._fh.tell()

    def iter_records(self) -> Iterator[Tuple[bytes, int, int, int]]:
        """Replay the pack: yields (sha, kind, offset, length) per record.

        The rebuild path for a lost catalog, and the integrity walk for
        tests: shas are recomputed from the payloads as they stream by.
        A damaged record (unknown kind, bad or overlong length) raises
        :class:`ValueError`.
        """
        with self._lock:
            self._fh.seek(0, os.SEEK_END)
            end = self._fh.tell()
        cursor = PACK_HEADER_BYTES
        while cursor < end:
            with self._lock:
                self._fh.seek(cursor)
                head = self._fh.read(10)
            if not head:
                return
            kind = head[0]
            if kind not in KIND_NAMES:
                raise ValueError(
                    f"{self.path}: unknown blob kind {kind} at offset {cursor}"
                )
            length, varint_end = read_uvarint(head, 1)
            offset = cursor + 1 + (varint_end - 1)
            payload = self.read(offset, length)
            yield blob_sha(kind, payload), kind, offset, length
            cursor = offset + length
