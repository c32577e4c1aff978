"""Content-addressed multi-run trace corpus.

The paper eliminates redundant path traces *within* one run; a corpus
extends the same idea *across* runs.  Unique compacted trace bodies,
DBB dictionaries, and fixed-size chunks of the DCG activation stream
are content-addressed (sha1 over kind + payload) into one append-only
pack file; each ingested run's TWPP becomes a compact manifest of blob
references -- the only record of the run's membership -- kept in the
run's row of a SQLite catalog that also indexes the blobs and accounts
for each run.  An ingest is a pack append and fsync followed by one
catalog commit.  Cross-run analyses (diff, corpus-wide hot paths,
block frequencies) run straight off the manifests, the shared
compressed form and the DCG activation counts -- no run is ever
rematerialized as a ``.twpp``.

Layout of a corpus directory::

    corpus.sqlite     the catalog (blob index; one row per run: its
                      accounting and its manifest)
    blobs.pack        self-describing append-only blob records

Build one through :meth:`repro.api.Session.corpus`.
"""

from .blobs import (
    BlobPack,
    KIND_BODY,
    KIND_DCG,
    KIND_DICT,
    blob_sha,
)
from .catalog import CorpusCatalog, CorpusRun
from .corpus import CorruptRun, TraceCorpus, diff_doc, hot_doc
from .manifest import (
    RunDigest,
    RunManifest,
    decode_manifest,
    encode_manifest,
    scan_run,
)

__all__ = [
    "BlobPack",
    "CorpusCatalog",
    "CorpusRun",
    "CorruptRun",
    "KIND_BODY",
    "KIND_DCG",
    "KIND_DICT",
    "RunDigest",
    "RunManifest",
    "TraceCorpus",
    "blob_sha",
    "decode_manifest",
    "diff_doc",
    "encode_manifest",
    "hot_doc",
    "scan_run",
]
