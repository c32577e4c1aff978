"""Observability: lightweight metrics for the compaction pipeline.

The compaction pipeline is a staged byte-shrinking machine, and the
only way to *see* where its time and bytes go is a metrics layer.
:class:`~repro.obs.metrics.MetricsRegistry` carries counters,
wall-clock stage timers and power-of-two byte histograms behind its own
lock, is cheap enough to thread through every stage unconditionally, and
exports a stable JSON document (``repro.metrics/1``, documented in
``docs/FORMATS.md``) from both the library and the CLI
(``repro-wpp compact --metrics-out``).
"""

from .metrics import (
    METRICS_SCHEMA,
    ByteHistogram,
    MetricsRegistry,
    StageTimer,
)

__all__ = [
    "ByteHistogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "StageTimer",
]
