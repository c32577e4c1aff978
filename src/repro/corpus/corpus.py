"""The corpus facade: ingest runs, analyze across them.

:class:`TraceCorpus` owns one corpus directory (catalog + pack +
manifests) and a :class:`~repro.api.Session` for scanning ``.twpp``
files on their way in -- pass the session to share warm engines and
metrics with the rest of a pipeline, or let the corpus own a private
one.  Everything downstream of ingest works in the compressed domain:
``diff`` is set algebra over (body, dict) blob-id pairs and decodes
only the traces that actually differ, ``hot_paths`` decodes each
unique pair once no matter how many runs share it, and
``block_frequencies`` never expands a timestamp stream at all
(:func:`~repro.compact.series.series_len`).  No cross-run query ever
rematerializes a run as a ``.twpp``.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.hotpaths import PathProfile, acyclic_paths
from ..compact.delta import FunctionDelta, TwppDelta
from ..compact.dbb import expand_trace
from ..compact.qserve import DEFAULT_CACHE_BYTES, LruByteCache
from ..compact.series import series_len
from ..compact.twpp import twpp_to_trace
from ..trace.dcg import DynamicCallGraph
from .blobs import (
    BlobPack,
    KIND_BODY,
    KIND_DCG,
    KIND_DICT,
    KIND_NAMES,
    PACK_HEADER_BYTES,
    blob_sha,
    decode_body,
    decode_dcg_chunk,
    decode_dictionary,
    fsync_dir,
)
from .catalog import CorpusCatalog, CorpusRun
from .manifest import (
    ManifestFunction,
    RunDigest,
    RunManifest,
    assemble_dcg,
    decode_manifest,
    encode_manifest,
    scan_run,
)

PathLike = Union[str, "os.PathLike[str]"]
PathTrace = Tuple[int, ...]

CORPUS_DB = "corpus.sqlite"
PACK_NAME = "blobs.pack"
RUNS_DIR = "runs"

_RUN_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

__all__ = ["IngestResult", "TraceCorpus"]


@dataclass(frozen=True)
class IngestResult:
    """What ingesting one run added to (and shared with) the corpus."""

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

    @property
    def compaction_factor(self) -> float:
        """Run's ``.twpp`` bytes over its *marginal* corpus bytes."""
        marginal = self.manifest_bytes + self.bytes_added
        return self.twpp_bytes / marginal if marginal else 0.0

    def to_dict(self) -> Dict:
        return {
            "run": self.run,
            "twpp_bytes": self.twpp_bytes,
            "manifest_bytes": self.manifest_bytes,
            "blobs_added": self.blobs_added,
            "blobs_shared": self.blobs_shared,
            "bytes_added": self.bytes_added,
            "bytes_shared": self.bytes_shared,
            "functions": self.functions,
            "pairs": self.pairs,
            "calls": self.calls,
            "compaction_factor": self.compaction_factor,
        }


class TraceCorpus:
    """One corpus directory: catalog, pack, manifests, and analyses."""

    def __init__(
        self,
        root: PathLike,
        session=None,
        cache_bytes: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            (self.root / RUNS_DIR).mkdir()
        except FileExistsError:
            pass
        else:
            fsync_dir(self.root)
        if session is None:
            from ..api import Session

            session = Session()
            self._own_session = True
        else:
            self._own_session = False
        self._session = session
        self.metrics = session.metrics
        self._catalog = CorpusCatalog(self.root / CORPUS_DB)
        self._pack = BlobPack(self.root / PACK_NAME)
        #: Pack bytes of a killed ingest that opening dropped (0: none).
        self.recovered_bytes = 0
        with self._pack.locked(wait=False) as idle:
            if idle:  # no ingest in flight, so any tail is a torn one
                self.recovered_bytes = self._drop_uncommitted_tail()
        budget = (
            cache_bytes
            if cache_bytes is not None
            else getattr(session, "cache_bytes", DEFAULT_CACHE_BYTES)
        )
        self._cache = LruByteCache(
            budget,
            metrics=self.metrics,
            prefix="corpus.cache",
        )
        self._ingest_lock = threading.Lock()

    # ---- lifecycle ----------------------------------------------------

    def close(self) -> None:
        self._cache.clear()
        self._catalog.close()
        self._pack.close()
        if self._own_session:
            self._session.close()

    def __enter__(self) -> "TraceCorpus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- ingest -------------------------------------------------------

    def ingest(self, twpp: PathLike, run: Optional[str] = None) -> IngestResult:
        """Ingest one ``.twpp`` file as run ``run`` (default: file stem)."""
        path = os.fspath(twpp)
        name = run if run is not None else Path(path).stem
        self._check_run_name(name)
        return self._ingest_digest(name, path, self._scan(path))

    def ingest_runs(
        self,
        paths: Sequence[PathLike],
        runs: Optional[Sequence[str]] = None,
    ) -> List[IngestResult]:
        """Ingest many ``.twpp`` files, one catalog transaction each.

        Every file is scanned before the first ingest, so a bad name or
        an unreadable file fails the batch before anything commits;
        ingestion then runs in input order.
        """
        paths = [os.fspath(p) for p in paths]
        names = (
            [Path(p).stem for p in paths]
            if runs is None
            else list(runs)
        )
        if len(names) != len(paths):
            raise ValueError("runs must name every path")
        if len(set(names)) != len(names):
            raise ValueError("duplicate run names in one ingest batch")
        for name in names:
            self._check_run_name(name)
        digests = [self._scan(path) for path in paths]
        return [
            self._ingest_digest(name, path, digest)
            for name, path, digest in zip(names, paths, digests)
        ]

    def _scan(self, path: str) -> RunDigest:
        with self.metrics.timer("corpus.scan"):
            return scan_run(self._session.engine(path))

    def _check_run_name(self, name: str) -> None:
        if not _RUN_NAME.match(name):
            raise ValueError(f"invalid run name {name!r}")
        if name in self._catalog:
            raise ValueError(f"run {name!r} already in corpus")

    def _ingest_digest(
        self, run: str, source: str, digest: RunDigest
    ) -> IngestResult:
        writer = self._pack.locked()  # one ingest per corpus, any process
        with self._ingest_lock, self.metrics.timer("corpus.ingest"), writer:
            self._check_run_name(run)
            # A writer killed since this corpus opened left its tail.
            self._drop_uncommitted_tail()
            try:
                record = self._commit_run(run, source, digest)
            except BaseException:
                # Nothing committed: drop the run's pack records so the
                # next ingest appends where they began.
                self._drop_uncommitted_tail()
                raise

        self.metrics.inc("corpus.runs_ingested")
        self.metrics.inc("corpus.blobs_added", record.blobs_added)
        self.metrics.inc("corpus.blobs_shared", record.blobs_shared)
        self.metrics.inc("corpus.bytes_added", record.bytes_added)
        self.metrics.inc("corpus.bytes_shared", record.bytes_shared)
        self.metrics.observe("corpus.manifest_bytes", record.manifest_bytes)
        return IngestResult(
            run=run,
            source=source,
            twpp_bytes=record.twpp_bytes,
            manifest_bytes=record.manifest_bytes,
            blobs_added=record.blobs_added,
            blobs_shared=record.blobs_shared,
            bytes_added=record.bytes_added,
            bytes_shared=record.bytes_shared,
            functions=record.functions,
            pairs=record.pairs,
            calls=record.calls,
        )

    def _commit_run(
        self, run: str, source: str, digest: RunDigest
    ) -> CorpusRun:
        """Add one digested run as a single catalog transaction.

        Order is what makes a killed ingest harmless: the run's new
        pack records are written and fsynced first, then its manifest
        replaces any stale one, and the catalog commits last -- so a
        committed row never points at bytes that are not on disk, and
        anything a kill leaves behind (a pack tail, an uncommitted
        run's manifest) is dropped or overwritten by the next open or
        ingest.  The caller holds the pack's exclusive lock throughout,
        so blob ids and pack offsets are this writer's alone.
        """
        ids, next_id = self._catalog.known_blobs(
            sha for sha, _, _ in digest.blobs
        )
        shared_ids = list(ids.values())
        bytes_shared = 0
        fresh = []
        for sha, kind, payload in digest.blobs:
            if sha in ids:
                bytes_shared += len(payload)
            else:
                ids[sha] = next_id + len(fresh)
                fresh.append((sha, kind, payload))
        new_blobs = []
        if fresh:
            spans = self._pack.append_many(
                [(kind, payload) for _, kind, payload in fresh]
            )
            new_blobs = [
                (ids[sha], sha, kind, offset, length)
                for (sha, kind, _), (offset, length) in zip(fresh, spans)
            ]
        blobs_added = len(new_blobs)
        blobs_shared = len(shared_ids)
        bytes_added = sum(length for *_, length in new_blobs)

        functions = []
        function_rows = []
        pair_rows = []
        for index, fn in enumerate(digest.functions):
            bodies = tuple(ids[sha] for sha in fn.body_shas)
            dicts = tuple(ids[sha] for sha in fn.dict_shas)
            functions.append(
                ManifestFunction(
                    name=fn.name,
                    call_count=fn.call_count,
                    bodies=bodies,
                    dicts=dicts,
                    pairs=fn.pairs,
                )
            )
            function_rows.append(
                (index, fn.name, fn.call_count, len(fn.pairs))
            )
            for pos, (body_idx, dict_idx) in enumerate(fn.pairs):
                pair_rows.append(
                    (
                        fn.name,
                        pos,
                        bodies[body_idx],
                        dicts[dict_idx],
                        fn.weights[pos],
                    )
                )

        manifest = RunManifest(
            run=run,
            source=source,
            dcg_nodes=digest.dcg_nodes,
            dcg_chunks=tuple(ids[sha] for sha in digest.dcg_shas),
            functions=tuple(functions),
        )
        data = encode_manifest(manifest)
        manifest_path = self._write_manifest(run, data)

        record = CorpusRun(
            run=run,
            source=source,
            manifest_path=str(manifest_path),
            twpp_bytes=digest.twpp_bytes,
            manifest_bytes=len(data),
            blobs_added=blobs_added,
            blobs_shared=blobs_shared,
            bytes_added=bytes_added,
            bytes_shared=bytes_shared,
            functions=len(digest.functions),
            pairs=len(pair_rows),
            calls=sum(fn.call_count for fn in digest.functions),
            dcg_nodes=digest.dcg_nodes,
        )
        self._catalog.add_run(
            record,
            new_blobs,
            shared_ids,
            function_rows,
            pair_rows,
            manifest.dcg_chunks,
        )
        return record

    def _drop_uncommitted_tail(self) -> int:
        """Truncate the pack past the last committed blob's bytes.

        Only an ingest that did not commit leaves records there: no
        catalog row points at them, and re-ingesting the run rewrites
        them at the same offsets.  The caller holds the pack's
        exclusive lock.  Returns the number of bytes dropped.
        """
        end = self._catalog.pack_end()
        return self._pack.truncate(PACK_HEADER_BYTES if end is None else end)

    def _write_manifest(self, run: str, data: bytes) -> Path:
        """Write ``runs/<run>.manifest`` whole and durably.

        The temp file is fsynced before the rename and ``runs/`` after
        it, so once the run commits its manifest survives a power loss.
        """
        path = self.root / RUNS_DIR / f"{run}.manifest"
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent)
        return path

    # ---- reads --------------------------------------------------------

    def runs(self) -> List[CorpusRun]:
        """Every ingested run, in ingestion order."""
        return self._catalog.runs()

    def run(self, name: str) -> CorpusRun:
        record = self._catalog.run(name)
        if record is None:
            raise KeyError(f"no run {name!r} in corpus")
        return record

    def functions(self, run: str) -> List[str]:
        """One run's function names in original-index order."""
        return [name for name, _, _ in self._catalog.functions(run)]

    def traces(self, run: str, function: str) -> List[PathTrace]:
        """One function's unique path traces, served from the corpus.

        Byte-identical (same traces, same order) to querying the run's
        original ``.twpp``: pairs come back in section position order
        and expand through the shared blobs.
        """
        return [
            self._expand(body, dictionary)
            for body, dictionary, _ in self._catalog.pair_rows(run, function)
        ]

    def dcg(self, run: str) -> DynamicCallGraph:
        """One run's dynamic call graph, reassembled from shared chunks."""
        record = self.run(run)
        chunks = [
            decode_dcg_chunk(self._read_blob(blob_id, KIND_DCG))
            for blob_id in self._catalog.dcg_chunk_ids(run)
        ]
        return assemble_dcg(record.dcg_nodes, chunks)

    def _read_blob(self, blob_id: int, expect_kind: int) -> bytes:
        sha, kind, offset, length, _refs = self._catalog.blob(blob_id)
        if kind != expect_kind:
            raise ValueError(
                f"blob {blob_id} is a {KIND_NAMES.get(kind, kind)},"
                f" expected {KIND_NAMES[expect_kind]}"
            )
        payload = self._pack.read(offset, length)
        if blob_sha(kind, payload) != sha:
            raise ValueError(
                f"blob {blob_id} failed its content check"
                f" (pack corrupt at offset {offset})"
            )
        self.metrics.inc("corpus.blob_reads")
        return payload

    def _expand(self, body_id: int, dict_id: int) -> PathTrace:
        key = ("pair", body_id, dict_id)
        trace = self._cache.get(key)
        if trace is None:
            twpp = decode_body(self._read_blob(body_id, KIND_BODY))
            dictionary = decode_dictionary(
                self._read_blob(dict_id, KIND_DICT)
            )
            trace = expand_trace(twpp_to_trace(twpp), dictionary)
            self._cache.put(key, trace, 64 + 32 * len(trace))
        return trace

    # ---- cross-run analyses -------------------------------------------

    def diff(self, run_a: str, run_b: str) -> TwppDelta:
        """Compare two ingested runs without rematerializing either.

        Content addresses make this exact: a trace expands identically
        in two runs iff both reference the same (body, dict) blob pair,
        so per-function set algebra over blob ids finds every
        difference and only the differing traces are ever decoded.
        Output is identical to
        :func:`repro.compact.delta.diff_twpp_files` over the original
        files.
        """
        with self.metrics.timer("corpus.diff"):
            summary_a = self._catalog.function_summary(run_a)
            summary_b = self._catalog.function_summary(run_b)
            delta = TwppDelta(
                only_in_a=sorted(set(summary_a) - set(summary_b)),
                only_in_b=sorted(set(summary_b) - set(summary_a)),
            )
            for name in sorted(set(summary_a) & set(summary_b)):
                pairs_a = self._catalog.pair_set(run_a, name)
                pairs_b = self._catalog.pair_set(run_b, name)
                delta.functions[name] = FunctionDelta(
                    name=name,
                    calls_a=summary_a[name][0],
                    calls_b=summary_b[name][0],
                    traces_a=len(pairs_a),
                    traces_b=len(pairs_b),
                    only_in_a=frozenset(
                        self._expand(*pair) for pair in pairs_a - pairs_b
                    ),
                    only_in_b=frozenset(
                        self._expand(*pair) for pair in pairs_b - pairs_a
                    ),
                )
        return delta

    def hot_paths(
        self,
        runs: Optional[Sequence[str]] = None,
        functions: Optional[Sequence[str]] = None,
    ) -> PathProfile:
        """Acyclic path profile aggregated across runs (default: all).

        Activation weights sum in SQL first, so each unique (body,
        dict) pair is expanded and decomposed exactly once however many
        runs share it.  Restricted to one run, the profile equals
        :func:`repro.analysis.hotpaths.path_profile_compacted` over
        that run's original ``.twpp``.
        """
        with self.metrics.timer("corpus.hot"):
            profile = PathProfile()
            for func, body, dictionary, weight in self._catalog.pair_weights(
                runs, functions
            ):
                if not weight:
                    continue  # recorded pair that no activation followed
                for path in acyclic_paths(self._expand(body, dictionary)):
                    key = (func, path)
                    profile.counts[key] = profile.counts.get(key, 0) + weight
        return profile

    def block_frequencies(
        self, runs: Optional[Sequence[str]] = None
    ) -> Dict[Tuple[str, int], int]:
        """Block execution counts across runs, without expanding traces.

        Each timestamp stream's occurrence count comes straight from
        its series entries (:func:`~repro.compact.series.series_len`);
        DBB chains attribute a head's occurrences to every member
        block.  Returns ``{(function, block): executions}`` weighted by
        DCG activations, summed over the selected runs.
        """
        with self.metrics.timer("corpus.freq"):
            per_pair: Dict[Tuple[int, int], Dict[int, int]] = {}
            totals: Dict[Tuple[str, int], int] = {}
            for func, body, dictionary, weight in self._catalog.pair_weights(
                runs
            ):
                if not weight:
                    continue
                pair = (body, dictionary)
                counts = per_pair.get(pair)
                if counts is None:
                    twpp = decode_body(self._read_blob(body, KIND_BODY))
                    chain_map = decode_dictionary(
                        self._read_blob(dictionary, KIND_DICT)
                    ).as_map()
                    counts = {}
                    for block, stream in twpp.entries:
                        occurrences = series_len(stream)
                        for member in chain_map.get(block, (block,)):
                            counts[member] = (
                                counts.get(member, 0) + occurrences
                            )
                    per_pair[pair] = counts
                for block, occurrences in counts.items():
                    key = (func, block)
                    totals[key] = totals.get(key, 0) + occurrences * weight
        return totals

    # ---- reporting ----------------------------------------------------

    def check(self) -> List[str]:
        """Verify the corpus on disk; returns its problems (none: clean).

        Three invariants: every blob's ``refs`` equals the number of
        committed runs whose manifest references it (as a body, a
        dictionary or a DCG chunk); every blob's sha re-verifies from
        the pack; and no pack bytes lie past the last catalogued
        record.  Holds the pack's shared lock, so an ingest in flight
        first commits or fails, and none starts until the check ends:
        the catalog and pack it reads are one state, and a tail it sees
        is one no writer is still going to commit.
        """
        with self._pack.locked(exclusive=False):
            return self._check()

    def _check(self) -> List[str]:
        problems: List[str] = []
        referrers: Dict[int, int] = {}
        for record in self._catalog.runs():
            path = self.root / RUNS_DIR / f"{record.run}.manifest"
            try:
                manifest = decode_manifest(path.read_bytes())
            except (OSError, ValueError) as exc:
                problems.append(
                    f"run {record.run}: unreadable manifest: {exc}"
                )
                continue
            if manifest.run != record.run:
                problems.append(
                    f"run {record.run}: manifest names run {manifest.run!r}"
                )
            used = set(manifest.dcg_chunks)
            for fn in manifest.functions:
                used.update(fn.bodies)
                used.update(fn.dicts)
            for blob_id in used:
                referrers[blob_id] = referrers.get(blob_id, 0) + 1

        end = PACK_HEADER_BYTES
        for row in self._catalog.blob_rows():
            blob_id, sha, kind, offset, length, refs = row
            expected = referrers.pop(blob_id, 0)
            if refs != expected:
                problems.append(
                    f"blob {blob_id}: refs {refs}, but {expected} run"
                    f" manifest(s) reference it"
                )
            try:
                payload = self._pack.read(offset, length)
            except ValueError as exc:
                problems.append(f"blob {blob_id}: {exc}")
            else:
                if blob_sha(kind, payload) != sha:
                    problems.append(
                        f"blob {blob_id}: sha mismatch at pack offset {offset}"
                    )
            end = max(end, offset + length)
        for blob_id, count in sorted(referrers.items()):
            problems.append(
                f"blob {blob_id}: referenced by {count} run manifest(s)"
                f" but not catalogued"
            )
        size = self._pack.size()
        if size > end:
            problems.append(
                f"pack: {size - end} byte(s) past the last catalogued record"
            )
        return problems

    def stats(self) -> Dict:
        """Corpus-level accounting: per-run and overall compaction.

        ``compaction_factor`` compares what the runs would occupy as
        independent ``.twpp`` files against what the corpus actually
        holds (pack + manifests; the rebuildable SQLite catalog is
        reported separately).
        """
        run_reports = []
        twpp_total = manifest_total = 0
        for record in self._catalog.runs():
            report = record.to_dict()
            marginal = record.manifest_bytes + record.bytes_added
            report["compaction_factor"] = (
                record.twpp_bytes / marginal if marginal else 0.0
            )
            run_reports.append(report)
            twpp_total += record.twpp_bytes
            manifest_total += record.manifest_bytes
        pack_bytes = self._pack.size()
        corpus_bytes = pack_bytes + manifest_total
        try:
            catalog_bytes = os.path.getsize(self._catalog.db_path)
        except OSError:
            catalog_bytes = 0
        return {
            "runs": run_reports,
            "twpp_bytes": twpp_total,
            "pack_bytes": pack_bytes,
            "manifest_bytes": manifest_total,
            "corpus_bytes": corpus_bytes,
            "catalog_bytes": catalog_bytes,
            "compaction_factor": (
                twpp_total / corpus_bytes if corpus_bytes else 0.0
            ),
            "blobs": {
                KIND_NAMES[kind]: {"count": count, "bytes": total}
                for kind, (count, total) in sorted(
                    self._catalog.blob_totals().items()
                )
            },
        }


# ---------------------------------------------------------------------------
# shared JSON document shapes

def hot_doc(profile: PathProfile, top: int = 10, coverage: float = 0.9) -> Dict:
    """One corpus hot-path profile as the stable JSON wire shape.

    The CLI (``repro-wpp corpus hot --json``) and the daemon
    (``GET /corpus/hot``) both emit exactly this document, so the two
    surfaces stay byte-comparable after canonical encoding.
    """
    return {
        "distinct_paths": profile.distinct_paths(),
        "total_executions": profile.total_executions,
        "coverage": {
            "fraction": coverage,
            "paths": profile.coverage(coverage),
        },
        "hot": [
            {
                "function": entry.function,
                "path": list(entry.path),
                "count": entry.count,
                "fraction": round(entry.fraction, 6),
            }
            for entry in profile.hot_paths(top)
        ],
    }


def diff_doc(delta: TwppDelta, limit: int = 20) -> Dict:
    """One run-pair delta as the stable JSON wire shape.

    Mirrors :meth:`~repro.compact.delta.TwppDelta.render` (same
    ordering, same ``limit`` truncation) but machine-readable; shared
    by ``repro-wpp corpus diff --json`` and ``GET /corpus/diff``.
    """
    changed = delta.changed_functions()
    return {
        "identical": delta.identical,
        "only_in_a": list(delta.only_in_a),
        "only_in_b": list(delta.only_in_b),
        "changed_functions": len(changed),
        "changed": [
            {
                "function": d.name,
                "calls_a": d.calls_a,
                "calls_b": d.calls_b,
                "traces_a": d.traces_a,
                "traces_b": d.traces_b,
                "new_traces": len(d.only_in_b),
                "vanished_traces": len(d.only_in_a),
            }
            for d in changed[:limit]
        ],
    }
