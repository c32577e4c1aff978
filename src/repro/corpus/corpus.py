"""The corpus facade: ingest runs, analyze across them.

:class:`TraceCorpus` owns one corpus directory (catalog + pack) and a
:class:`~repro.api.Session` for scanning ``.twpp`` files on their way
in -- pass the session to share warm engines, metrics and the
session's one cache budget with the rest of a pipeline, or let the
corpus own a private one.  Every read takes a run's membership from
the manifest in its catalog row and its activation weights from its
DCG, and works in the compressed domain: ``diff`` is set algebra over
the manifests' (body, dict) blob-id pairs and decodes
only the traces that actually differ, ``hot_paths`` decodes each
unique pair once no matter how many runs share it, and
``block_frequencies`` never expands a timestamp set at all (its
``len`` sums the series entries).  No cross-run query ever
rematerializes a run as a ``.twpp``.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.hotpaths import PathProfile, acyclic_paths
from ..compact.delta import FunctionDelta, TwppDelta
from ..compact.dbb import expand_trace
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
    decode_dcg_chunk,
    decode_record,
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

_RUN_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

__all__ = ["CorruptRun", "TraceCorpus"]


class CorruptRun(ValueError):
    """A committed run whose stored manifest does not decode or names
    another run."""


class TraceCorpus:
    """One corpus directory: catalog, pack, and analyses."""

    def __init__(self, root: PathLike, session=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._catalog = CorpusCatalog(self.root / CORPUS_DB)
        if session is None:
            from ..api import Session

            session = Session()
            self._own_session = True
        else:
            self._own_session = False
        self._session = session
        self.metrics = session.metrics
        self._pack = BlobPack(self.root / PACK_NAME)
        #: Pack bytes of a killed ingest that opening dropped (0: none).
        self.recovered_bytes = 0
        with self._pack.locked(wait=False) as idle:
            if idle:  # no ingest in flight, so any tail is a torn one
                self.recovered_bytes = self._drop_uncommitted_tail()
        #: Expanded pairs, decoded manifests and activation counts live
        #: in the session's cache, keyed by corpus.
        self._cache = session.cache
        self._ingest_lock = threading.Lock()

    # ---- lifecycle ----------------------------------------------------

    def close(self) -> None:
        self._cache.drop(self)
        self._catalog.close()
        self._pack.close()
        if self._own_session:
            self._session.close()

    def __enter__(self) -> "TraceCorpus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- ingest -------------------------------------------------------

    def ingest(self, twpp: PathLike, run: Optional[str] = None) -> CorpusRun:
        """Ingest one ``.twpp`` file as run ``run`` (default: file stem)."""
        path = os.fspath(twpp)
        name = run if run is not None else Path(path).stem
        self._check_run_name(name)
        return self._ingest_digest(name, path, self._scan(path))

    def ingest_runs(
        self,
        paths: Sequence[PathLike],
        runs: Optional[Sequence[str]] = None,
    ) -> List[CorpusRun]:
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
        # Leased: a store evicting the path mid-scan must not close the
        # mapping the scan is reading.
        with self.metrics.timer("corpus.scan"), self._session.borrow(
            path
        ) as engine:
            return scan_run(engine)

    def _check_run_name(self, name: str) -> None:
        if not _RUN_NAME.match(name):
            raise ValueError(f"invalid run name {name!r}")
        if name in self._catalog:
            raise ValueError(f"run {name!r} already in corpus")

    def _ingest_digest(
        self, run: str, source: str, digest: RunDigest
    ) -> CorpusRun:
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
        return record

    def _commit_run(
        self, run: str, source: str, digest: RunDigest
    ) -> CorpusRun:
        """Add one digested run as a single catalog transaction.

        Order is what makes a killed ingest harmless: the run's new
        pack records are written and fsynced first, and the catalog
        transaction -- blob rows, refs bumps, and the run's row with
        its manifest -- commits last, so a committed row never points
        at bytes that are not on disk, and the only thing a kill leaves
        behind is a pack tail the next open or ingest drops.  The
        caller holds the pack's exclusive lock throughout, so blob ids
        and pack offsets are this writer's alone.
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

        functions = tuple(
            ManifestFunction(
                name=fn.name,
                call_count=fn.call_count,
                bodies=tuple(ids[sha] for sha in fn.body_shas),
                dicts=tuple(ids[sha] for sha in fn.dict_shas),
                pairs=fn.pairs,
            )
            for fn in digest.functions
        )
        manifest = RunManifest(
            run=run,
            source=source,
            dcg_nodes=digest.dcg_nodes,
            dcg_chunks=tuple(ids[sha] for sha in digest.dcg_shas),
            functions=functions,
        )
        data = encode_manifest(manifest)
        record = CorpusRun(
            run=run,
            source=source,
            twpp_bytes=digest.twpp_bytes,
            manifest_bytes=len(data),
            blobs_added=blobs_added,
            blobs_shared=blobs_shared,
            bytes_added=bytes_added,
            bytes_shared=bytes_shared,
            functions=len(functions),
            pairs=sum(len(fn.pairs) for fn in functions),
            calls=sum(fn.call_count for fn in functions),
            dcg_nodes=digest.dcg_nodes,
        )
        self._catalog.add_run(record, data, new_blobs, shared_ids)
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

    def _read_manifest(self, run: str) -> RunManifest:
        """Decode one committed run's manifest from its catalog row,
        uncached.

        Raises ``KeyError`` for a run the catalog does not hold and
        :class:`CorruptRun` for a manifest that does not decode or
        names another run.
        """
        data = self._catalog.manifest(run)
        if data is None:
            raise KeyError(f"no run {run!r} in corpus")
        try:
            manifest = decode_manifest(data)
        except ValueError as exc:
            raise CorruptRun(f"run {run}: unreadable manifest: {exc}") from exc
        if manifest.run != run:
            raise CorruptRun(f"run {run}: manifest names run {manifest.run!r}")
        return manifest

    # ---- reads --------------------------------------------------------

    def runs(self) -> List[CorpusRun]:
        """Every ingested run, in ingestion order."""
        return self._catalog.runs()

    def run(self, name: str) -> CorpusRun:
        record = self._catalog.run(name)
        if record is None:
            raise KeyError(f"no run {name!r} in corpus")
        return record

    def _manifest(self, run: str) -> RunManifest:
        """One committed run's manifest: its only membership record.

        Decoded once into the session's cache (a committed manifest
        never changes); raises as :meth:`_read_manifest` does.
        """

        def load():
            manifest = self._read_manifest(run)
            return manifest, 64 + 32 * self.run(run).manifest_bytes

        return self._cache.get_or_load((self, "manifest", run), load)

    def functions(self, run: str) -> List[str]:
        """One run's function names in original-index order."""
        return [fn.name for fn in self._manifest(run).functions]

    def traces(self, run: str, function: str) -> List[PathTrace]:
        """One function's unique path traces, served from the corpus.

        Byte-identical (same traces, same order) to querying the run's
        original ``.twpp``: pairs come back in section position order
        and expand through the shared blobs.
        """
        for fn in self._manifest(run).functions:
            if fn.name == function:
                return [self._expand(*pair) for pair in fn.blob_pairs()]
        raise KeyError(f"no function {function!r} in run {run!r}")

    def dcg(self, run: str) -> DynamicCallGraph:
        """One run's dynamic call graph, reassembled from shared chunks."""
        manifest = self._manifest(run)
        chunks = [
            decode_dcg_chunk(self._read_blob(blob_id, KIND_DCG))
            for blob_id in manifest.dcg_chunks
        ]
        return assemble_dcg(manifest.dcg_nodes, chunks)

    def _activations(self, run: str) -> Dict[Tuple[int, int], int]:
        """Activations per (function index, pair position) of one run.

        Counted from the run's DCG once and kept in the session's cache.
        """

        def load():
            counts = self.dcg(run).activation_counts()
            return counts, 64 + 96 * len(counts)

        return self._cache.get_or_load((self, "activations", run), load)

    def _pair_weights(
        self,
        runs: Optional[Sequence[str]],
        functions: Optional[Sequence[str]] = None,
    ) -> List[Tuple[Tuple[str, int, int], int]]:
        """((func, body_blob, dict_blob), summed weight) over a run subset.

        Weights sum across every selected run first, so each unique
        pair decodes once downstream no matter how many runs share it.
        Pairs no activation followed are left out; the rest come in
        (func, body_blob, dict_blob) order.
        """
        names = [r.run for r in self.runs()] if runs is None else runs
        wanted = None if functions is None else set(functions)
        totals: Dict[Tuple[str, int, int], int] = {}
        for run in names:
            manifest = self._manifest(run)
            for (index, position), weight in self._activations(run).items():
                fn = manifest.functions[index]
                if wanted is None or fn.name in wanted:
                    body, dictionary = fn.pairs[position]
                    key = (fn.name, fn.bodies[body], fn.dicts[dictionary])
                    totals[key] = totals.get(key, 0) + weight
        return sorted(totals.items())

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

    def _read_record(self, blob_id: int, kind: int):
        """One body or dictionary blob, decoded."""
        return decode_record(kind, self._read_blob(blob_id, kind))

    def _expand(self, body_id: int, dict_id: int) -> PathTrace:
        def load():
            twpp = self._read_record(body_id, KIND_BODY)
            dictionary = self._read_record(dict_id, KIND_DICT)
            trace = expand_trace(twpp_to_trace(twpp), dictionary)
            return trace, 64 + 32 * len(trace)

        return self._cache.get_or_load((self, "pair", (body_id, dict_id)), load)

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
            funcs_a = {fn.name: fn for fn in self._manifest(run_a).functions}
            funcs_b = {fn.name: fn for fn in self._manifest(run_b).functions}
            delta = TwppDelta(
                only_in_a=sorted(set(funcs_a) - set(funcs_b)),
                only_in_b=sorted(set(funcs_b) - set(funcs_a)),
            )
            for name in sorted(set(funcs_a) & set(funcs_b)):
                pairs_a = set(funcs_a[name].blob_pairs())
                pairs_b = set(funcs_b[name].blob_pairs())
                delta.functions[name] = FunctionDelta(
                    name=name,
                    calls_a=funcs_a[name].call_count,
                    calls_b=funcs_b[name].call_count,
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

        Activation weights (counted from each run's DCG) sum first, so
        each unique (body, dict) pair is expanded and decomposed exactly
        once however many runs share it.  Restricted to one run, the
        profile equals
        :func:`repro.analysis.hotpaths.path_profile_compacted` over
        that run's original ``.twpp``.
        """
        with self.metrics.timer("corpus.hot"):
            profile = PathProfile()
            for (func, body, dictionary), weight in self._pair_weights(
                runs, functions
            ):
                for path in acyclic_paths(self._expand(body, dictionary)):
                    key = (func, path)
                    profile.counts[key] = profile.counts.get(key, 0) + weight
        return profile

    def block_frequencies(
        self, runs: Optional[Sequence[str]] = None
    ) -> Dict[Tuple[str, int], int]:
        """Block execution counts across runs, without expanding traces.

        Each block's occurrence count comes straight from its
        timestamp set's series entries (``len``, no expansion);
        DBB chains attribute a head's occurrences to every member
        block.  Returns ``{(function, block): executions}`` weighted by
        DCG activations, summed over the selected runs.
        """
        with self.metrics.timer("corpus.freq"):
            per_pair: Dict[Tuple[int, int], Dict[int, int]] = {}
            totals: Dict[Tuple[str, int], int] = {}
            for (func, body, dictionary), weight in self._pair_weights(runs):
                pair = (body, dictionary)
                counts = per_pair.get(pair)
                if counts is None:
                    twpp = self._read_record(body, KIND_BODY)
                    chain_map = self._read_record(
                        dictionary, KIND_DICT
                    ).as_map()
                    counts = {}
                    for block, ts in twpp.entries:
                        occurrences = len(ts)
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
            try:
                manifest = self._read_manifest(record.run)
            except CorruptRun as exc:
                problems.append(str(exc))
                continue
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
        holds (pack + manifests; the SQLite catalog, manifests
        included, is reported separately as ``catalog_bytes``).
        """
        run_reports = []
        twpp_total = manifest_total = 0
        for record in self._catalog.runs():
            report = record.to_dict()
            report["compaction_factor"] = record.compaction_factor
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
