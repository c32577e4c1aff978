"""A lightweight in-process metrics registry.

Three instrument kinds, all addressed by dotted string names:

* **counters** — monotonically increasing integers (events seen, bytes
  produced, shards dispatched);
* **timers** — accumulated wall-clock milliseconds per pipeline stage,
  used as context managers so nesting stages is natural;
* **byte histograms** — power-of-two bucketed size distributions
  (per-function section sizes, per-body trace sizes) that keep the
  shape of the data without storing every observation.

A registry is deliberately small: no background threads, no global
state, and one lock of its own around every read-modify-write, so any
number of threads (the HTTP workers, the store and its engines) may
share one registry and no update is lost.  The
pipeline threads one registry object through partition -> compact ->
LZW -> write; parallel workers do their own accounting and the
coordinator folds the results in deterministically, so two runs over
the same input report identical counters and histograms (timers, being
wall-clock, differ).

The JSON export (:meth:`MetricsRegistry.to_dict`) is a stable schema,
``repro.metrics/1``, documented in ``docs/FORMATS.md``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

METRICS_SCHEMA = "repro.metrics/1"


def _bucket_bound(value: int) -> int:
    """Smallest power of two >= value (>= 1); the histogram bucket key."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


@dataclass
class ByteHistogram:
    """A power-of-two bucketed distribution of non-negative sizes."""

    count: int = 0
    total: int = 0
    min: Optional[int] = None
    max: Optional[int] = None
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: int) -> None:
        """Record one observation."""
        if value < 0:
            raise ValueError(f"histogram value must be >= 0, got {value}")
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bound = _bucket_bound(value)
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    def merge(self, other: "ByteHistogram") -> None:
        """Fold another histogram's observations into this one."""
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for bound, n in other.buckets.items():
            self.buckets[bound] = self.buckets.get(bound, 0) + n

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                str(bound): self.buckets[bound]
                for bound in sorted(self.buckets)
            },
        }


class StageTimer:
    """Context manager accumulating elapsed wall-clock ms into a registry."""

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed_ms = (time.perf_counter() - self._start) * 1000.0
        self._registry.add_ms(self._name, elapsed_ms)


class MetricsRegistry:
    """Counters, stage timers and byte histograms behind one object.

    Every update and export holds the registry's own lock, so one
    registry is safe to share between threads.  Reading a single value
    (:meth:`counter`, ``timers_ms.get``) needs no lock.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers_ms: Dict[str, float] = {}
        self.histograms: Dict[str, ByteHistogram] = {}
        self._lock = threading.Lock()

    # ---- counters -----------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self.counters.get(name, 0)

    # ---- timers -------------------------------------------------------

    def timer(self, name: str) -> StageTimer:
        """Context manager timing one stage; repeated uses accumulate."""
        return StageTimer(self, name)

    def add_ms(self, name: str, elapsed_ms: float) -> None:
        """Add already-measured milliseconds to timer ``name``."""
        with self._lock:
            self.timers_ms[name] = self.timers_ms.get(name, 0.0) + elapsed_ms

    # ---- histograms ---------------------------------------------------

    def observe(self, name: str, value: int) -> None:
        """Record one size observation into histogram ``name``."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = ByteHistogram()
            hist.observe(value)

    # ---- combination and export --------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (e.g. a worker's) into this one."""
        with other._lock:
            counters = list(other.counters.items())
            timers = list(other.timers_ms.items())
            histograms = []
            for name, hist in other.histograms.items():
                copy = ByteHistogram()
                copy.merge(hist)
                histograms.append((name, copy))
        with self._lock:
            for name, value in counters:
                self.counters[name] = self.counters.get(name, 0) + value
            for name, ms in timers:
                self.timers_ms[name] = self.timers_ms.get(name, 0.0) + ms
            for name, hist in histograms:
                mine = self.histograms.get(name)
                if mine is None:
                    mine = self.histograms[name] = ByteHistogram()
                mine.merge(hist)

    def to_dict(self) -> Dict:
        """Export as the ``repro.metrics/1`` JSON-ready document."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "counters": {k: self.counters[k] for k in sorted(self.counters)},
                "timers_ms": {
                    k: round(self.timers_ms[k], 3) for k in sorted(self.timers_ms)
                },
                "histograms": {
                    k: self.histograms[k].to_dict()
                    for k in sorted(self.histograms)
                },
            }

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`to_dict` document as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    def write_json(self, path) -> None:
        """Write the JSON export to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
