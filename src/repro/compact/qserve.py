"""The query-serving stack over ``.twpp`` files.

This module is the *read* path the paper motivates: "a series of
requests for profile data for individual functions" (Tables 4 and 5).
Three layers:

* **The section source** — :class:`MmapSource` maps the file once,
  parses the header once, and serves every section as a zero-copy
  :class:`memoryview` slice; positional slicing has no seek state, so
  one mapping safely serves any number of threads.  An empty or
  unmappable file, or a corrupt header, raises :class:`ValueError`
  with the file handle already closed.
* **:class:`LruByteCache`** — a byte-budgeted, thread-safe LRU keyed by
  ``(owner, kind, function)`` holding what queries return: expanded
  path-trace lists (in-process queries) and canonical-JSON trace
  fragments (wire queries).  One cache can serve
  many owners under one budget (a :class:`~repro.api.Session` shares
  one across its engines and corpora), and concurrent misses on one key
  load it once (:meth:`LruByteCache.get_or_load`).  Hit, miss,
  eviction and coalesced-wait counters feed the session's
  :class:`~repro.obs.MetricsRegistry` under ``qserve.cache.*``.
* **:class:`QueryEngine`** — the façade: cached single-function
  ``traces``/``traces_json``, an uncached ``extract`` of the decoded
  record, batch ``traces_many``, and a
  lazily decoded DCG for whole-run analyses
  (:func:`repro.analysis.hotpaths.path_profile_compacted`).  A section
  that fails to decode, or a body that fails to invert, raises
  :class:`CorruptSection`, naming the function.  Holders that must outlive an eviction take a lease
  (:meth:`QueryEngine.acquire` / :meth:`QueryEngine.release`):
  :meth:`QueryEngine.close` then defers closing the source until the
  last lease is released.

The cold-path helpers (:func:`repro.compact.query.extract_function_traces`)
open an engine with ``cache_bytes=0`` per call, so the Table 4/5
benches keep measuring true cold cost; a long-lived profile server
keeps its engines.
"""

from __future__ import annotations

import json
import mmap
import os
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..obs import MetricsRegistry
from ..trace.dcg import DynamicCallGraph
from .format import (
    FunctionIndexEntry,
    TwppHeader,
    _parse_header,
    _parse_section,
)
from .lzw import lzw_decompress
from .pipeline import FunctionCompact

PathLike = Union[str, "os.PathLike[str]"]
PathTrace = Tuple[int, ...]

#: Default query cache budget: ~64 MiB.
DEFAULT_CACHE_BYTES = 64 << 20

__all__ = [
    "CorruptSection",
    "DEFAULT_CACHE_BYTES",
    "LruByteCache",
    "MmapSource",
    "QueryEngine",
    "limit_traces_json",
]


# ---------------------------------------------------------------------------
# section source


class MmapSource:
    """Zero-copy section reads from one read-only mapping of the file.

    Sections come back as :class:`memoryview` slices of the mapping --
    no syscall, no intermediate copy -- and, because slicing carries no
    file-position state, the single mapping is shared by all threads.
    Callers must release the views they take before :meth:`close`.
    """

    def __init__(self, path: PathLike):
        with open(path, "rb") as fh:
            try:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:  # e.g. an empty file
                raise ValueError(
                    f"cannot map {os.fspath(path)!r}: {exc}"
                ) from None
        try:
            self.header: TwppHeader = _parse_header(mm)
        except Exception:
            mm.close()
            raise
        self._mm = mm

    def read_section(self, entry: FunctionIndexEntry) -> memoryview:
        start = self.header.sections_base + entry.offset
        end = start + entry.length
        if end > len(self._mm):
            raise ValueError(f"truncated section for {entry.name!r}")
        return memoryview(self._mm)[start:end]

    def read_dcg(self) -> bytes:
        start = self.header.dcg_start
        data = self._mm[start : start + self.header.dcg_comp_len]
        if len(data) != self.header.dcg_comp_len:
            raise ValueError("truncated DCG section")
        return data

    def close(self) -> None:
        self._mm.close()


# ---------------------------------------------------------------------------
# cache


class LruByteCache:
    """A byte-budgeted LRU with thread-safe counters and one load per key.

    Values carry an explicit byte cost; inserting past the budget
    evicts least-recently-used entries until the total fits.  A value
    costing more than the whole budget is simply not cached.
    :meth:`get_or_load` coalesces misses: while one caller loads a key,
    every other caller missing on it waits for that load instead of
    starting its own.  Keys are tuples whose first item names the
    entry's owner (an engine or a corpus), so :meth:`drop` can release
    one owner's entries and leave the rest.  When a registry is
    supplied, ``qserve.cache.hits`` / ``.misses`` / ``.evictions`` /
    ``.oversize`` / ``.coalesced`` counters are maintained alongside the
    cache's own tallies.
    """

    def __init__(
        self,
        capacity_bytes: int,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.capacity_bytes = max(0, int(capacity_bytes))
        self._entries: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        self._loading: Dict[object, _Load] = {}
        self._lock = threading.Lock()
        self._metrics = metrics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0
        self.bytes_cached = 0

    def _inc(self, name: str) -> None:  # caller holds the lock
        if self._metrics is not None:
            self._metrics.inc(_CACHE_METRICS[name])

    def peek(self, key, default=None):
        """The cached value of ``key``, or ``default`` -- never loads.

        The fast path for layered callers: they fall through to a
        counting lookup (:meth:`get_or_load`) on absence, so an absent
        key is not counted as a miss here.  A present key counts as a
        hit and is refreshed in the LRU order.
        """
        with self._lock:
            try:
                value, _cost = self._entries[key]
            except KeyError:
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            self._inc("hits")
            return value

    def get_or_load(self, key, load: Callable[[], Tuple[object, int]]):
        """The cached value of ``key``, loading it on a miss.

        ``load()`` returns ``(value, cost)`` and runs without the lock.
        Concurrent misses on one key run it once: the first caller
        loads, the rest wait (counted as ``coalesced``) and share its
        value or its exception.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._inc("hits")
                return entry[0]
            pending = self._loading.get(key)
            waiter = pending is not None
            if waiter:
                self.coalesced += 1
                self._inc("coalesced")
                if pending.done is None:  # the first waiter brings the event
                    pending.done = threading.Event()
            else:
                pending = self._loading[key] = _Load()
                self.misses += 1
                self._inc("misses")
        if waiter:
            return pending.wait()
        try:
            value, cost = load()
        except BaseException as exc:
            pending.error = exc
            self._finish(key, pending, 0)
            raise
        pending.value = value
        self._finish(key, pending, cost)
        return value

    def _finish(self, key, pending: "_Load", cost: int) -> None:
        """End ``key``'s load: cache its value unless it failed, then
        wake the waiters, if any came."""
        with self._lock:
            del self._loading[key]
            if pending.error is None:
                self._put(key, pending.value, cost)
            done = pending.done
        if done is not None:
            done.set()

    def _put(self, key, value, cost: int) -> None:  # caller holds the lock
        # The key is absent: only its one loader reaches here.
        if cost > self.capacity_bytes:
            self._inc("oversize")
            return
        self._entries[key] = (value, cost)
        self.bytes_cached += cost
        while self.bytes_cached > self.capacity_bytes and self._entries:
            _, (_evicted, evicted_cost) = self._entries.popitem(last=False)
            self.bytes_cached -= evicted_cost
            self.evictions += 1
            self._inc("evictions")

    def drop(self, owner) -> None:
        """Remove every entry whose key names ``owner`` first."""
        with self._lock:
            for key in [k for k in self._entries if k[0] is owner]:
                self.bytes_cached -= self._entries.pop(key)[1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes_cached = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict:
        """A point-in-time snapshot of occupancy and traffic."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "capacity_bytes": self.capacity_bytes,
                "bytes": self.bytes_cached,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "coalesced": self.coalesced,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }


_CACHE_METRICS = {
    name: f"qserve.cache.{name}"
    for name in ("hits", "misses", "evictions", "oversize", "coalesced")
}


class _Load:
    """One :meth:`LruByteCache.get_or_load` in progress: waiters block
    until the loader publishes its value or its exception.

    ``done`` stays ``None`` until a second caller finds the load in
    progress; that caller creates the event under the cache lock, and
    the loader reads it under the same lock once the key is out of the
    loading table, so an uncontended miss never builds one.
    """

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done: Optional[threading.Event] = None
        self.value = None
        self.error: Optional[BaseException] = None

    def wait(self):
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.value


def _traces_cost(traces: List[PathTrace]) -> int:
    """Estimated in-memory bytes of an expanded path-trace list."""
    return 128 + sum(64 + 32 * len(t) for t in traces)


def _fragment_cost(fragment: bytes) -> int:
    """Bytes of one cached JSON fragment plus its object and entry overhead."""
    return 128 + len(fragment)


def limit_traces_json(fragment: bytes, limit: int) -> bytes:
    """The first ``limit`` traces of a :meth:`QueryEngine.traces_json`
    fragment, still canonical JSON.

    Every trace is a flat list of ints, so the N-th ``]`` closes the
    N-th trace; reaching the outer ``]`` means there are no more than
    ``limit`` traces and the whole fragment is the answer.
    """
    if limit == 0:
        return b"[]"
    last = len(fragment) - 1
    end = -1
    for _ in range(limit):
        end = fragment.find(b"]", end + 1)
        if end >= last:
            return fragment
    return fragment[: end + 1] + b"]"


# ---------------------------------------------------------------------------
# engine


class CorruptSection(ValueError):
    """A function's section in a ``.twpp`` file failed to decode, or one
    of its bodies to invert.

    Raised by :class:`QueryEngine` in place of the decoder's or the
    inversion's :class:`ValueError` (same message); ``function`` names the function
    whose section is damaged.
    """

    def __init__(self, function: str, message: str):
        super().__init__(message)
        self.function = function


class QueryEngine:
    """Cached, thread-safe profile queries over one ``.twpp`` file.

    One engine owns one :class:`MmapSource` shared by every thread that
    queries it, and keeps the answers it serves in an
    :class:`LruByteCache`: its own (``cache_bytes``; 0 disables
    caching, so every query decodes), or ``cache``, one shared with
    other engines under a single budget (a :class:`~repro.api.Session`
    passes its own).  Each served form is the only entry for its key:
    :meth:`traces` caches the expanded tuples under
    ``(engine, "traces", function)`` and :meth:`traces_json` the JSON
    fragment under ``(engine, "json", function)``, each decoding the
    section straight into that one entry.  Engines sharing a cache
    never answer for each other, and concurrent misses on one key
    decode once.  :meth:`traces_many` calls :meth:`traces` once per
    name, in request order.  :meth:`extract` caches nothing and decodes
    on every call: its callers (whole-file loads, corpus ingest, path
    profiles) read each function once.  :meth:`traces` hands back a
    fresh list each call (the traces themselves are immutable tuples).

    :meth:`close` drops the engine's cache entries at once but closes
    the section source only when no lease (:meth:`acquire`) is
    outstanding; the last :meth:`release` closes it otherwise, so a
    decode in progress never reads from a closed mapping.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        cache: Optional[LruByteCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._source = MmapSource(path)
        self.path = os.fspath(path)
        self._header = self._source.header
        self._by_name: Dict[str, FunctionIndexEntry] = {
            e.name: e for e in self._header.entries
        }
        self._name_by_original: Dict[int, str] = {
            e.original_index: e.name for e in self._header.entries
        }
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._cache = (
            cache
            if cache is not None
            else LruByteCache(cache_bytes, metrics=self._metrics)
        )
        self._dcg: Optional[DynamicCallGraph] = None
        self._leases = 0
        self._closing = False

    # ---- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Drop the cache entries; close the source now, or at the last
        release."""
        self._cache.drop(self)
        with self._lock:
            self._closing = True
            idle = self._leases == 0
        if idle:
            self._source.close()

    def acquire(self) -> None:
        """Take a lease: the source stays open until :meth:`release`."""
        with self._lock:
            self._leases += 1

    def release(self) -> None:
        """Return a lease; the last one after :meth:`close` closes the
        source and drops what decodes finished meanwhile."""
        with self._lock:
            self._leases -= 1
            last = self._closing and self._leases == 0
        if last:
            self._cache.drop(self)
            self._source.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- introspection ------------------------------------------------

    @property
    def header(self) -> TwppHeader:
        return self._header

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def function_names(self) -> List[str]:
        """Function names in storage (hottest-first) order."""
        return [e.name for e in self._header.entries]

    def call_count(self, name: str) -> int:
        return self._entry(name).call_count

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._header.entries)

    def cache_stats(self) -> Dict:
        """Occupancy/traffic snapshot of the engine's cache -- the
        shared one, all owners included, when the engine was given one
        (also in the metrics export)."""
        return self._cache.stats()

    # ---- single-function queries --------------------------------------

    def extract(self, name: str) -> FunctionCompact:
        """One function's decoded record, decoded afresh on every call
        (records are never cached)."""
        return self._decode(self._entry(name))

    def cached_traces(self, name: str) -> Optional[List[PathTrace]]:
        """One function's traces if already cached, else ``None``.

        Never decodes.  A hit counts toward the cache metrics; an
        absence does not count as a miss -- callers fall through to
        :meth:`traces`, which will.  The serving layer uses this to
        answer warm keys without a freshness check.
        """
        traces = self._cache.peek((self, "traces", name))
        return None if traces is None else list(traces)

    def traces(self, name: str) -> List[PathTrace]:
        """One function's unique original path traces (DBBs expanded)."""

        def load():
            traces = self._expand(name)
            return traces, _traces_cost(traces)

        return list(self._cache.get_or_load((self, "traces", name), load))

    def cached_traces_json(self, name: str) -> Optional[bytes]:
        """:meth:`traces_json` if already cached, else ``None``.

        Never decodes; counts like :meth:`cached_traces`.
        """
        return self._cache.peek((self, "json", name))

    def traces_json(self, name: str) -> bytes:
        """One function's traces as canonical JSON bytes, ``[[b,…],…]``.

        The wire form of :meth:`traces`: equal to the traces' part of
        ``canonical_json`` output.  A miss decodes the section, expands
        and encodes it, and caches only the fragment -- not the tuples,
        not the record -- at its length plus a fixed overhead, so a warm
        wire request does no JSON encoding at all.
        """

        def load():
            traces = self._expand(name)
            t0 = time.perf_counter()
            fragment = json.dumps(traces, separators=(",", ":")).encode("ascii")
            self._time("qserve.encode", t0)
            return fragment, _fragment_cost(fragment)

        return self._cache.get_or_load((self, "json", name), load)

    def traces_many(
        self, names: Optional[Iterable[str]] = None
    ) -> Dict[str, List[PathTrace]]:
        """Expanded path traces for many functions (default: all), in
        request order."""
        names = self.function_names() if names is None else list(names)
        self._metrics.inc("qserve.batches")
        t0 = time.perf_counter()
        out = {name: self.traces(name) for name in names}
        self._time("qserve.batch", t0)
        return out

    # ---- whole-run data -----------------------------------------------

    def dcg(self) -> DynamicCallGraph:
        """The run's dynamic call graph, decoded once and kept."""
        with self._lock:
            if self._dcg is not None:
                return self._dcg
        raw = lzw_decompress(bytes(self._source.read_dcg()))
        if len(raw) != self._header.dcg_raw_len:
            raise ValueError("DCG length mismatch after LZW decompression")
        dcg = DynamicCallGraph.deserialize(raw)
        with self._lock:
            if self._dcg is None:
                self._dcg = dcg
            return self._dcg

    def name_of_original_index(self, original_index: int) -> str:
        """Map a DCG function index back to its name."""
        try:
            return self._name_by_original[original_index]
        except KeyError:
            raise KeyError(
                f"no function with original index {original_index}"
            ) from None

    # ---- internals ----------------------------------------------------

    def _entry(self, name: str) -> FunctionIndexEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"function {name!r} not in .twpp file") from None

    def _expand(self, name: str) -> List[PathTrace]:
        fc = self.extract(name)
        t0 = time.perf_counter()
        try:
            traces = fc.traces()
        except ValueError as exc:
            raise CorruptSection(name, str(exc)) from exc
        self._time("qserve.expand", t0)
        return traces

    def _decode(self, entry: FunctionIndexEntry) -> FunctionCompact:
        t0 = time.perf_counter()
        self._metrics.inc("qserve.decodes")
        try:
            data = self._source.read_section(entry)
            try:
                fc = _parse_section(data, entry.name, entry.call_count)
            finally:
                data.release()
        except ValueError as exc:
            raise CorruptSection(entry.name, str(exc)) from exc
        self._time("qserve.decode", t0)
        return fc

    def _time(self, name: str, t0: float) -> None:
        self._metrics.add_ms(name, (time.perf_counter() - t0) * 1000.0)
