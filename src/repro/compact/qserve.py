"""The production query-serving stack over ``.twpp`` files.

PR 1 engineered the *write* path (parallel sharded compaction); this
module is its mirror for the *read* path the paper actually motivates:
"a series of requests for profile data for individual functions"
(Tables 4 and 5).  Three layers:

* **Section sources** — :class:`MmapSource` maps the file once and
  serves every section as a zero-copy :class:`memoryview` slice;
  positional slicing has no seek state, so one mapping safely serves
  any number of threads.  :class:`PooledFileSource` is the fallback
  when mapping is unavailable (special filesystems, ``use_mmap=False``):
  a checkout/checkin pool of positioned file handles, each query doing
  the classic seek + bounded read.  Both parse the header exactly once
  and close the handle on a parse failure instead of leaking it.
* **:class:`LruByteCache`** — a byte-budgeted, thread-safe LRU keyed by
  ``(kind, function)`` holding decoded :class:`FunctionCompact` records
  and expanded path-trace lists.  Hit/miss/eviction counters feed the
  session's :class:`~repro.obs.MetricsRegistry` under ``qserve.cache.*``.
* **:class:`QueryEngine`** — the façade: cached single-function
  ``extract``/``traces``, batch ``extract_many``/``traces_many``, and a
  lazily decoded DCG for whole-run analyses
  (:func:`repro.analysis.hotpaths.path_profile_compacted`).

The cold-path helpers (:func:`repro.compact.query.extract_function_traces`)
remain thin uncached wrappers so the Table 4/5 benches keep measuring
true cold cost; this module is what a long-lived profile server runs.
"""

from __future__ import annotations

import mmap
import os
import threading
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..obs import MetricsRegistry
from ..trace.dcg import DynamicCallGraph
from .format import FunctionIndexEntry, TwppHeader, _parse_section, read_header
from .lzw import lzw_decompress
from .pipeline import FunctionCompact

PathLike = Union[str, "os.PathLike[str]"]
PathTrace = Tuple[int, ...]

#: Default decoded-record cache budget: ~64 MiB.
DEFAULT_CACHE_BYTES = 64 << 20

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "LruByteCache",
    "MmapSource",
    "PooledFileSource",
    "QueryEngine",
    "open_source",
]


# ---------------------------------------------------------------------------
# section sources


class MmapSource:
    """Zero-copy section reads from one read-only mapping of the file.

    Sections come back as :class:`memoryview` slices of the mapping --
    no syscall, no intermediate copy -- and, because slicing carries no
    file-position state, the single mapping is shared by all threads.
    Callers must release the views they take before :meth:`close`.
    """

    def __init__(self, mm: mmap.mmap):
        try:
            self.header: TwppHeader = read_header(mm)
        except Exception:
            mm.close()
            raise
        self._mm = mm

    @classmethod
    def try_open(cls, path: PathLike) -> Optional["MmapSource"]:
        """Map ``path``; None when the OS refuses (e.g. empty file)."""
        fh = open(path, "rb")
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return None
        finally:
            fh.close()
        return cls(mm)

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


class PooledFileSource:
    """Seek-and-read fallback behind a thread-safe handle pool.

    A handle is checked out per read (opening a new one when the free
    list is empty) and checked back in afterwards; at most ``max_idle``
    idle handles are retained, so the pool's size tracks the peak
    concurrency actually seen rather than a configured ceiling.
    """

    def __init__(self, path: PathLike, max_idle: int = 8):
        self._path = os.fspath(path)
        fh = open(self._path, "rb")
        try:
            self.header: TwppHeader = read_header(fh)
        except Exception:
            fh.close()
            raise
        self._lock = threading.Lock()
        self._idle: List = [fh]
        self._max_idle = max_idle
        self._closed = False

    def _checkout(self):
        with self._lock:
            if self._closed:
                raise ValueError("source is closed")
            if self._idle:
                return self._idle.pop()
        return open(self._path, "rb")

    def _checkin(self, fh) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self._max_idle:
                self._idle.append(fh)
                return
        fh.close()

    def _read_at(self, offset: int, length: int, what: str) -> bytes:
        fh = self._checkout()
        try:
            fh.seek(offset)
            data = fh.read(length)
        finally:
            self._checkin(fh)
        if len(data) != length:
            raise ValueError(f"truncated {what}")
        return data

    def read_section(self, entry: FunctionIndexEntry) -> bytes:
        return self._read_at(
            self.header.sections_base + entry.offset,
            entry.length,
            f"section for {entry.name!r}",
        )

    def read_dcg(self) -> bytes:
        return self._read_at(
            self.header.dcg_start, self.header.dcg_comp_len, "DCG section"
        )

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for fh in idle:
            fh.close()


SectionSource = Union[MmapSource, PooledFileSource]


def open_source(path: PathLike, use_mmap: bool = True) -> SectionSource:
    """Open the best available section source for ``path``."""
    if use_mmap:
        source = MmapSource.try_open(path)
        if source is not None:
            return source
    return PooledFileSource(path)


# ---------------------------------------------------------------------------
# cache


class LruByteCache:
    """A byte-budgeted LRU with thread-safe counters.

    Values carry an explicit byte cost; inserting past the budget
    evicts least-recently-used entries until the total fits.  A value
    costing more than the whole budget is simply not cached.  When a
    registry is supplied, ``<prefix>.hits`` / ``.misses`` /
    ``.evictions`` / ``.oversize`` counters are maintained alongside
    the cache's own tallies.
    """

    def __init__(
        self,
        capacity_bytes: int,
        metrics: Optional[MetricsRegistry] = None,
        prefix: str = "qserve.cache",
    ):
        self.capacity_bytes = max(0, int(capacity_bytes))
        self._entries: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = metrics
        self._prefix = prefix
        self._metric_names: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_cached = 0

    def _inc(self, name: str) -> None:  # caller holds the lock
        if self._metrics is not None:
            full = self._metric_names.get(name)
            if full is None:
                full = f"{self._prefix}.{name}"
                self._metric_names[name] = full
            self._metrics.inc(full)

    def get(self, key, default=None):
        with self._lock:
            try:
                value, _cost = self._entries[key]
            except KeyError:
                self.misses += 1
                self._inc("misses")
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            self._inc("hits")
            return value

    def peek(self, key, default=None):
        """Like :meth:`get`, but an absent key is not counted as a miss.

        The fast path for layered callers: they fall through to a
        counting lookup (:meth:`get`) on absence, so counting the miss
        here would double it.  A present key still counts as a hit and
        is refreshed in the LRU order.
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

    def put(self, key, value, cost: int) -> None:
        cost = int(cost)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes_cached -= old[1]
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
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }


def _record_cost(entry: FunctionIndexEntry) -> int:
    """Estimated in-memory bytes of one decoded FunctionCompact.

    Varint-packed sections expand into Python ints and tuples; ~48x the
    serialized size plus a fixed object overhead tracks measured sizes
    closely enough for budget accounting.
    """
    return 48 * entry.length + 256


def _traces_cost(traces: List[PathTrace]) -> int:
    """Estimated in-memory bytes of an expanded path-trace list."""
    return 128 + sum(64 + 32 * len(t) for t in traces)


# ---------------------------------------------------------------------------
# engine


class QueryEngine:
    """Cached, thread-safe profile queries over one ``.twpp`` file.

    One engine owns one section source (mmap by default) and one
    :class:`LruByteCache` shared by every thread that queries it.
    Single-function reads (:meth:`extract`, :meth:`traces`) consult the
    cache first; batch reads (:meth:`extract_many`, :meth:`traces_many`)
    call them once per name, in request order.  Decoded records are
    shared with callers -- treat them as read-only; :meth:`traces`
    hands back a fresh list each call (the traces themselves are
    immutable tuples).

    ``cache_bytes=0`` disables caching (every query decodes).
    """

    def __init__(
        self,
        path: PathLike,
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        metrics: Optional[MetricsRegistry] = None,
        use_mmap: bool = True,
    ):
        self._source = open_source(path, use_mmap=use_mmap)
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
        self._cache = LruByteCache(cache_bytes, metrics=self._metrics)
        self._dcg: Optional[DynamicCallGraph] = None

    # ---- lifecycle ----------------------------------------------------

    def close(self) -> None:
        self._cache.clear()
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
        """Cache occupancy/traffic snapshot (also in the metrics export)."""
        return self._cache.stats()

    # ---- single-function queries --------------------------------------

    def extract(self, name: str) -> FunctionCompact:
        """One function's decoded record, from cache when warm."""
        entry = self._entry(name)
        self._metrics.inc("qserve.queries")
        key = ("record", name)
        fc = self._cache.get(key)
        if fc is None:
            fc = self._decode(entry)
            self._cache.put(key, fc, _record_cost(entry))
        return fc

    def cached_traces(self, name: str) -> Optional[List[PathTrace]]:
        """One function's traces if already cached, else ``None``.

        Never decodes.  A hit counts toward the cache metrics; an
        absence does not count as a miss -- callers fall through to
        :meth:`traces`, which will.  The serving layer uses this to
        skip its decode-coalescing protocol on warm keys.
        """
        traces = self._cache.peek(("traces", name))
        return None if traces is None else list(traces)

    def traces(self, name: str) -> List[PathTrace]:
        """One function's unique original path traces (DBBs expanded)."""
        key = ("traces", name)
        traces = self._cache.get(key)
        if traces is None:
            fc = self.extract(name)
            t0 = time.perf_counter()
            traces = [fc.expand_pair(p) for p in range(len(fc.pairs))]
            self._time("qserve.expand", t0)
            self._cache.put(key, traces, _traces_cost(traces))
        return list(traces)

    # ---- batch queries ------------------------------------------------

    def extract_many(
        self, names: Optional[Iterable[str]] = None
    ) -> Dict[str, FunctionCompact]:
        """Decoded records for many functions (default: all), in order."""
        return self._many(self.extract, names)

    def traces_many(
        self, names: Optional[Iterable[str]] = None
    ) -> Dict[str, List[PathTrace]]:
        """Expanded path traces for many functions (default: all)."""
        return self._many(self.traces, names)

    def _many(self, fn, names):
        names = self.function_names() if names is None else list(names)
        self._metrics.inc("qserve.batches")
        t0 = time.perf_counter()
        out = {name: fn(name) for name in names}
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

    def _decode(self, entry: FunctionIndexEntry) -> FunctionCompact:
        t0 = time.perf_counter()
        self._metrics.inc("qserve.decodes")
        data = self._source.read_section(entry)
        try:
            fc = _parse_section(data, entry.name, entry.call_count)
        finally:
            if isinstance(data, memoryview):
                data.release()
        self._time("qserve.decode", t0)
        return fc

    def _time(self, name: str, t0: float) -> None:
        self._metrics.add_ms(name, (time.perf_counter() - t0) * 1000.0)
