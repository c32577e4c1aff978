"""The staged WPP -> compacted-TWPP pipeline with size accounting.

Stages (paper, Section 2):

1. partition into per-call path traces + DCG (done upstream in
   :mod:`repro.trace.partition`);
2. eliminate redundant path traces (also upstream: traces are interned
   per function while partitioning; this stage is pure accounting);
3. create DBB dictionaries and compact each unique trace, then
   re-intern trace bodies and dictionaries separately -- two raw traces
   may share one compacted body with different dictionaries, exactly as
   the paper's Figure 5 shows for function ``f``;
4. convert each unique trace body to compacted TWPP form;
5. LZW-compress the DCG.

Stages 3 and 4 are per-function work with no cross-function coupling,
so :class:`FunctionCompactor` packages them (plus the per-function size
accounting) as one unit; :func:`compact_wpp` feeds each function's
trace list to one, in function index order.  It is the one finalize of
every route from a run to a ``.twpp``: streaming ingest
(:mod:`repro.compact.stream`) calls it on the partition its tracer
built, and the two-phase route on :func:`~repro.trace.partition_wpp`'s.

The returned :class:`CompactionStats` carries the serialized byte size
after every stage, which is precisely the data behind the paper's
Tables 1-3.  Passing a :class:`~repro.obs.MetricsRegistry` additionally
records per-stage wall-clock timers, counters and byte histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import MetricsRegistry
from ..trace.dcg import DynamicCallGraph
from ..trace.partition import PartitionedWpp, PathTrace, trace_size
from .dbb import DbbDictionary, compact_trace, expand_trace
from .lzw import lzw_compress
from .twpp import TwppPathTrace, trace_to_twpp, twpp_to_trace


@dataclass
class FunctionCompact:
    """All compacted data for one function.

    ``pairs[k]`` is the (trace body id, dictionary id) tuple the paper
    attaches to DCG nodes; DCG ``node_trace`` values index ``pairs``.
    Each unique body is stored once, in TWPP form (``twpp_table``);
    the positional view is recovered by inverting it.
    """

    name: str
    call_count: int = 0
    dict_table: List[DbbDictionary] = field(default_factory=list)
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    twpp_table: List[TwppPathTrace] = field(default_factory=list)

    # The encoded ``.twpp`` record of each body and dictionary that
    # :class:`FunctionCompactor` encoded to measure it, beside the
    # record it encodes (empty for a decoded or hand-built function).
    _kept_bodies: Sequence[Tuple[TwppPathTrace, bytes]] = field(
        default=(), init=False, repr=False, compare=False
    )
    _kept_dicts: Sequence[Tuple[DbbDictionary, bytes]] = field(
        default=(), init=False, repr=False, compare=False
    )

    def encoded_tables(self) -> Tuple[List[bytes], List[bytes]]:
        """The encoded ``.twpp`` record of every body and every
        dictionary, in table order.

        Reuses the bytes :class:`FunctionCompactor` kept for a record
        while the table still holds that very record; any other record
        (decoded, built by hand, or put in its place since) is encoded
        here.
        """
        # Deferred: the format module imports this one.
        from .format import encode_body, encode_dictionary

        return (
            _encoded(self.twpp_table, self._kept_bodies, encode_body),
            _encoded(self.dict_table, self._kept_dicts, encode_dictionary),
        )

    def expand_pair(self, pair_id: int) -> PathTrace:
        """Recover the original (uncompacted) path trace of one pair.

        Inverts the pair's body on every call; :meth:`traces` inverts
        each body once for all pairs.
        """
        body_id, dict_id = self.pairs[pair_id]
        return expand_trace(
            twpp_to_trace(self.twpp_table[body_id]), self.dict_table[dict_id]
        )

    def traces(self) -> List[PathTrace]:
        """Every pair's original path trace, in pair order.

        Each body is inverted once however many pairs share it.  Raises
        :class:`ValueError` if a body does not invert.
        """
        bodies = [twpp_to_trace(twpp) for twpp in self.twpp_table]
        dicts = self.dict_table
        return [expand_trace(bodies[b], dicts[d]) for b, d in self.pairs]


def _encoded(table, kept, encode) -> List[bytes]:
    return [
        kept[i][1] if i < len(kept) and kept[i][0] is record else encode(record)
        for i, record in enumerate(table)
    ]


@dataclass
class CompactedWpp:
    """A fully compacted WPP: per-function tables plus the DCG."""

    func_names: List[str]
    functions: List[FunctionCompact]
    dcg: DynamicCallGraph

    _dcg_lzw: Optional[Tuple[int, bytes]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _name_index: Optional[Dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def compressed_dcg(self) -> Tuple[int, bytes]:
        """``(raw length, LZW bytes)`` of the DCG as a ``.twpp`` stores
        it.  Serialized and compressed on first use and kept, so the
        bytes :func:`compact_wpp` counts are the bytes the writer writes
        (the DCG must not change afterwards)."""
        if self._dcg_lzw is None:
            raw = self.dcg.serialize()
            self._dcg_lzw = (len(raw), lzw_compress(raw))
        return self._dcg_lzw

    def function(self, name: str) -> FunctionCompact:
        """Look up one function's compacted record by name."""
        index = self._name_index
        if index is None or len(index) != len(self.functions):
            index = {fc.name: i for i, fc in enumerate(self.functions)}
            self._name_index = index
        try:
            return self.functions[index[name]]
        except KeyError:
            raise KeyError(f"function {name!r} not in compacted WPP") from None

    def to_partitioned(self) -> PartitionedWpp:
        """Expand back to partitioned (uncompacted path trace) form.

        Pair ids map one-to-one onto original unique traces, so the
        DCG's trace references remain valid unchanged.
        """
        traces = [fc.traces() for fc in self.functions]
        return PartitionedWpp(
            func_names=list(self.func_names), dcg=self.dcg, traces=traces
        )


@dataclass
class CompactionStats:
    """Serialized sizes (bytes) after each pipeline stage.

    ``owpp_trace_bytes`` counts every activation's trace individually
    (the original WPP traces of Table 1); the remaining fields follow
    Tables 2 and 3.
    """

    owpp_trace_bytes: int = 0
    dcg_raw_bytes: int = 0
    dedup_trace_bytes: int = 0
    dict_stage_trace_bytes: int = 0
    dictionary_bytes: int = 0
    ctwpp_trace_bytes: int = 0
    dcg_lzw_bytes: int = 0

    @property
    def owpp_total_bytes(self) -> int:
        """Table 1 "Total size": DCG + per-activation traces."""
        return self.dcg_raw_bytes + self.owpp_trace_bytes

    @property
    def compacted_total_bytes(self) -> int:
        """Table 3 "Total": compacted DCG + TWPP traces + dictionaries."""
        return self.dcg_lzw_bytes + self.ctwpp_trace_bytes + self.dictionary_bytes

    @property
    def dedup_factor(self) -> float:
        """Table 2 redundancy-removal factor."""
        return _ratio(self.owpp_trace_bytes, self.dedup_trace_bytes)

    @property
    def dictionary_factor(self) -> float:
        """Table 2 dictionary-creation factor."""
        return _ratio(self.dedup_trace_bytes, self.dict_stage_trace_bytes)

    @property
    def twpp_factor(self) -> float:
        """Table 2 TWPP-conversion factor."""
        return _ratio(self.dict_stage_trace_bytes, self.ctwpp_trace_bytes)

    @property
    def trace_compaction_factor(self) -> float:
        """Table 2 OWPP/CTWPP trace factor."""
        return _ratio(self.owpp_trace_bytes, self.ctwpp_trace_bytes)

    @property
    def overall_factor(self) -> float:
        """Table 3 overall WPP compaction factor."""
        return _ratio(self.owpp_total_bytes, self.compacted_total_bytes)


def _ratio(a: int, b: int) -> float:
    return a / b if b else float("inf")


class FunctionCompactor:
    """Pipeline stages 3-4 for one function, one unique raw trace at a time.

    Owns the function's body and dictionary intern tables, the tables of
    its :class:`FunctionCompact`, and the serialized size of each unique
    body (dictionary-compacted form), each DBB dictionary and each
    TWPP-converted body -- the last two are the lengths of their
    ``.twpp`` records (:func:`repro.compact.format.encode_body`,
    :func:`~repro.compact.format.encode_dictionary`), whose bytes the
    function keeps for the writer
    (:meth:`FunctionCompact.encoded_tables`).  Each :meth:`add`
    appends exactly one pair, so the ``k``-th raw trace added becomes
    pair ``k`` and DCG trace references need no rewrite.
    """

    __slots__ = (
        "function", "body_sizes", "dict_sizes", "twpp_sizes",
        "_bodies", "_dicts",
    )

    def __init__(self, name: str, call_count: int = 0) -> None:
        self.function = FunctionCompact(name=name, call_count=call_count)
        self.function._kept_bodies = []
        self.function._kept_dicts = []
        self.body_sizes: List[int] = []
        self.dict_sizes: List[int] = []
        self.twpp_sizes: List[int] = []
        self._bodies: Dict[PathTrace, int] = {}
        self._dicts: Dict[DbbDictionary, int] = {}

    def add(self, raw_trace: PathTrace) -> None:
        """Compact one unique raw trace into the next pair."""
        # Deferred: the format module imports this one.
        from .format import encode_body, encode_dictionary

        fc = self.function
        body, dictionary = compact_trace(raw_trace)
        body_id = self._bodies.get(body)
        if body_id is None:
            body_id = self._bodies[body] = len(fc.twpp_table)
            twpp = trace_to_twpp(body)
            fc.twpp_table.append(twpp)
            record = encode_body(twpp)
            fc._kept_bodies.append((twpp, record))
            self.body_sizes.append(trace_size(body))
            self.twpp_sizes.append(len(record))
        dict_id = self._dicts.get(dictionary)
        if dict_id is None:
            dict_id = self._dicts[dictionary] = len(fc.dict_table)
            fc.dict_table.append(dictionary)
            record = encode_dictionary(dictionary)
            fc._kept_dicts.append((dictionary, record))
            self.dict_sizes.append(len(record))
        fc.pairs.append((body_id, dict_id))

    def account(self, stats: CompactionStats) -> None:
        """Add this function's stage 3-4 sizes to ``stats``."""
        stats.dict_stage_trace_bytes += sum(self.body_sizes)
        stats.dictionary_bytes += sum(self.dict_sizes)
        stats.ctwpp_trace_bytes += sum(self.twpp_sizes)


def compact_function(
    name: str, call_count: int, raw_traces: List[PathTrace]
) -> FunctionCompactor:
    """Compact one function's unique raw traces (pipeline stages 3-4).

    Pure and deterministic: the result depends only on the arguments.
    """
    compactor = FunctionCompactor(name, call_count)
    for raw_trace in raw_traces:
        compactor.add(raw_trace)
    return compactor


def compact_wpp(
    partitioned: PartitionedWpp,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[CompactedWpp, CompactionStats]:
    """Run the full compaction pipeline on a partitioned WPP.

    ``metrics`` (optional) collects per-stage timers, counters and byte
    histograms.
    """
    if metrics is None:
        metrics = MetricsRegistry()

    with metrics.timer("compact.total"):
        with metrics.timer("compact.accounting"):
            stats = CompactionStats(
                owpp_trace_bytes=partitioned.trace_bytes_with_redundancy(),
                dedup_trace_bytes=partitioned.trace_bytes_deduped(),
            )

        call_counts = partitioned.dcg.calls_per_function(
            len(partitioned.func_names)
        )

        with metrics.timer("compact.functions"):
            compactors = [
                compact_function(name, call_counts[i], partitioned.traces[i])
                for i, name in enumerate(partitioned.func_names)
            ]

        functions: List[FunctionCompact] = []
        for compactor in compactors:
            functions.append(compactor.function)
            for size in compactor.body_sizes:
                metrics.observe("compact.body_bytes", size)
            for size in compactor.dict_sizes:
                metrics.observe("compact.dict_bytes", size)
            compactor.account(stats)

        # Pair ids coincide with raw trace ids (one pair per unique raw
        # trace), so the partition's DCG already references pairs.
        compacted = CompactedWpp(
            func_names=list(partitioned.func_names),
            functions=functions,
            dcg=partitioned.dcg,
        )
        with metrics.timer("compact.lzw_dcg"):
            stats.dcg_raw_bytes, dcg_lzw = compacted.compressed_dcg()
            stats.dcg_lzw_bytes = len(dcg_lzw)

    metrics.inc("compact.functions", len(functions))
    metrics.inc("compact.pairs", sum(len(fc.pairs) for fc in functions))
    metrics.inc(
        "compact.unique_bodies", sum(len(fc.twpp_table) for fc in functions)
    )
    metrics.inc(
        "compact.unique_dicts", sum(len(fc.dict_table) for fc in functions)
    )
    for name, value in (
        ("compact.bytes.owpp_traces", stats.owpp_trace_bytes),
        ("compact.bytes.dcg_raw", stats.dcg_raw_bytes),
        ("compact.bytes.dedup_traces", stats.dedup_trace_bytes),
        ("compact.bytes.dict_stage_traces", stats.dict_stage_trace_bytes),
        ("compact.bytes.dictionaries", stats.dictionary_bytes),
        ("compact.bytes.ctwpp_traces", stats.ctwpp_trace_bytes),
        ("compact.bytes.dcg_lzw", stats.dcg_lzw_bytes),
    ):
        metrics.inc(name, value)

    return compacted, stats
