"""Run manifests and scan digests.

A **manifest** is what a run's TWPP becomes once its content lives in
the corpus: per function (in original DCG index order) the call count
and the blob ids of its unique bodies and dictionaries, the local
(body, dictionary) pairs exactly as the ``.twpp`` section stored them,
and the ordered DCG chunk blob ids plus node count.  It is the only
record of which blobs a run uses, stored encoded in the run's catalog
row: every corpus read takes membership from the decoded manifest, and
per-pair activation weights from the run's DCG.  Blob ids are the
corpus catalog's -- varint-small where a 20-byte sha per reference
would rival the sections it replaces -- and resolve through the
catalog's blob index or by replaying the self-describing pack.

A **digest** (:class:`RunDigest`) is the intermediate :func:`scan_run`
produces from a warm query engine: the same structure but carrying
shas and full blob payloads, so a whole run can be scanned before the
corpus commits any of it.  Ingestion order is the digest's blob order,
which makes catalog and pack contents byte-identical for the same
sequence of runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..compact.format import encode_body, encode_dictionary
from ..trace.dcg import DynamicCallGraph
from ..trace.encoding import (
    check_count,
    decode_uvarints,
    encode_uvarints,
    read_string,
    read_uvarint,
    write_string,
    write_uvarint,
)
from .blobs import (
    KIND_BODY,
    KIND_DCG,
    KIND_DICT,
    blob_sha,
    encode_dcg_chunk,
    split_dcg_stream,
)

MANIFEST_MAGIC = b"CWPM"
MANIFEST_VERSION = 1

__all__ = [
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "DigestFunction",
    "ManifestFunction",
    "RunDigest",
    "RunManifest",
    "decode_manifest",
    "encode_manifest",
    "scan_run",
]


# ---------------------------------------------------------------------------
# on-disk manifest


@dataclass(frozen=True)
class ManifestFunction:
    """One function's membership: catalog blob ids plus local pairs."""

    name: str
    call_count: int
    bodies: Tuple[int, ...]  # blob ids, in body-table order
    dicts: Tuple[int, ...]  # blob ids, in dict-table order
    pairs: Tuple[Tuple[int, int], ...]  # (body idx, dict idx), local

    def blob_pairs(self) -> List[Tuple[int, int]]:
        """(body blob id, dict blob id) per pair, in section position order."""
        return [(self.bodies[b], self.dicts[d]) for b, d in self.pairs]


@dataclass(frozen=True)
class RunManifest:
    """One ingested run, as stored in its catalog row's ``manifest``."""

    run: str
    source: str
    dcg_nodes: int
    dcg_chunks: Tuple[int, ...]  # blob ids, in stream order
    functions: Tuple[ManifestFunction, ...]  # original-index order


def encode_manifest(manifest: RunManifest) -> bytes:
    buf = bytearray()
    buf += MANIFEST_MAGIC
    write_uvarint(buf, MANIFEST_VERSION)
    write_string(buf, manifest.run)
    write_string(buf, manifest.source)
    write_uvarint(buf, manifest.dcg_nodes)
    write_uvarint(buf, len(manifest.dcg_chunks))
    buf += encode_uvarints(manifest.dcg_chunks)
    write_uvarint(buf, len(manifest.functions))
    for fn in manifest.functions:
        write_string(buf, fn.name)
        write_uvarint(buf, fn.call_count)
        write_uvarint(buf, len(fn.bodies))
        buf += encode_uvarints(fn.bodies)
        write_uvarint(buf, len(fn.dicts))
        buf += encode_uvarints(fn.dicts)
        write_uvarint(buf, len(fn.pairs))
        flat: List[int] = []
        for body_idx, dict_idx in fn.pairs:
            flat.append(body_idx)
            flat.append(dict_idx)
        buf += encode_uvarints(flat)
    return bytes(buf)


def decode_manifest(data: bytes) -> RunManifest:
    if data[:4] != MANIFEST_MAGIC:
        raise ValueError("not a corpus run manifest")
    version, offset = read_uvarint(data, 4)
    if version != MANIFEST_VERSION:
        raise ValueError(f"manifest version {version} not supported")
    run, offset = read_string(data, offset)
    source, offset = read_string(data, offset)
    dcg_nodes, offset = read_uvarint(data, offset)
    n_chunks, offset = read_uvarint(data, offset)
    chunks, offset = decode_uvarints(data, offset, n_chunks)
    n_functions, offset = read_uvarint(data, offset)
    check_count(n_functions, data, offset, min_bytes=0)
    functions = []
    for _ in range(n_functions):
        name, offset = read_string(data, offset)
        call_count, offset = read_uvarint(data, offset)
        n_bodies, offset = read_uvarint(data, offset)
        bodies, offset = decode_uvarints(data, offset, n_bodies)
        n_dicts, offset = read_uvarint(data, offset)
        dicts, offset = decode_uvarints(data, offset, n_dicts)
        n_pairs, offset = read_uvarint(data, offset)
        flat, offset = decode_uvarints(data, offset, 2 * n_pairs)
        functions.append(
            ManifestFunction(
                name=name,
                call_count=call_count,
                bodies=tuple(bodies),
                dicts=tuple(dicts),
                pairs=tuple(zip(flat[0::2], flat[1::2])),
            )
        )
    if offset != len(data):
        raise ValueError("manifest has trailing bytes")
    return RunManifest(
        run=run,
        source=source,
        dcg_nodes=dcg_nodes,
        dcg_chunks=tuple(chunks),
        functions=tuple(functions),
    )


# ---------------------------------------------------------------------------
# scan digests


@dataclass(frozen=True)
class DigestFunction:
    """One scanned function: sha references plus its local pairs."""

    name: str
    call_count: int
    body_shas: Tuple[bytes, ...]
    dict_shas: Tuple[bytes, ...]
    pairs: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class RunDigest:
    """Everything ingestion needs from one ``.twpp``, engine-free."""

    functions: Tuple[DigestFunction, ...]  # original-index order
    dcg_nodes: int
    dcg_shas: Tuple[bytes, ...]  # chunk shas, stream order
    blobs: Tuple[Tuple[bytes, int, bytes], ...]  # (sha, kind, payload)
    twpp_bytes: int


def scan_run(engine) -> RunDigest:
    """Digest one ``.twpp`` through a warm query engine.

    Functions come out in original DCG index order; blobs in
    first-reference order (bodies and dictionaries function by
    function, then the DCG chunks) so every scanner emits the same
    digest for the same file.
    """
    dcg = engine.dcg()
    blobs: Dict[bytes, Tuple[int, bytes]] = {}

    def intern(kind: int, payload: bytes) -> bytes:
        sha = blob_sha(kind, payload)
        blobs.setdefault(sha, (kind, payload))
        return sha

    functions = []
    entries = sorted(engine.header.entries, key=lambda e: e.original_index)
    for entry in entries:
        fc = engine.extract(entry.name)
        body_shas = tuple(
            intern(KIND_BODY, encode_body(twpp)) for twpp in fc.twpp_table
        )
        dict_shas = tuple(
            intern(KIND_DICT, encode_dictionary(d)) for d in fc.dict_table
        )
        functions.append(
            DigestFunction(
                name=entry.name,
                call_count=entry.call_count,
                body_shas=body_shas,
                dict_shas=dict_shas,
                pairs=tuple(fc.pairs),
            )
        )

    raw = dcg.serialize()
    _, stream_start = read_uvarint(raw, 0)  # node count leads the stream
    dcg_shas = tuple(
        intern(KIND_DCG, encode_dcg_chunk(chunk))
        for chunk in split_dcg_stream(raw[stream_start:])
    )
    return RunDigest(
        functions=tuple(functions),
        dcg_nodes=len(dcg),
        dcg_shas=dcg_shas,
        blobs=tuple((sha, k, p) for sha, (k, p) in blobs.items()),
        twpp_bytes=os.stat(engine.path).st_size,
    )


def assemble_dcg(node_count: int, chunks: List[bytes]) -> DynamicCallGraph:
    """Rebuild a DCG from its node count plus raw chunk slices."""
    buf = bytearray()
    write_uvarint(buf, node_count)
    for chunk in chunks:
        buf += chunk
    return DynamicCallGraph.deserialize(bytes(buf))
