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
so :func:`compact_function` packages them (plus the per-function size
accounting) as a pure unit.  :func:`compact_wpp` runs the units in
function index order; the streaming pipeline
(:mod:`repro.compact.stream`) runs the same units on its consumer
threads, and the output is byte-identical either way.

The returned :class:`CompactionStats` carries the serialized byte size
after every stage, which is precisely the data behind the paper's
Tables 1-3.  Passing a :class:`~repro.obs.MetricsRegistry` additionally
records per-stage wall-clock timers, counters and byte histograms.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import MetricsRegistry
from ..trace.dcg import DynamicCallGraph
from ..trace.encoding import uvarint_size
from ..trace.partition import PartitionedWpp, PathTrace
from .dbb import DbbDictionary, compact_trace, expand_trace
from .lzw import lzw_compress
from .twpp import TwppPathTrace, trace_to_twpp


@dataclass
class FunctionCompact:
    """All compacted data for one function.

    ``pairs[k]`` is the (trace body id, dictionary id) tuple the paper
    attaches to DCG nodes; DCG ``node_trace`` values index ``pairs``.
    ``twpp_table`` parallels ``trace_table``: same body, inverted form.
    """

    name: str
    call_count: int = 0
    trace_table: List[PathTrace] = field(default_factory=list)
    dict_table: List[DbbDictionary] = field(default_factory=list)
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    twpp_table: List[TwppPathTrace] = field(default_factory=list)

    def expand_pair(self, pair_id: int) -> PathTrace:
        """Recover the original (uncompacted) path trace of one pair."""
        trace_id, dict_id = self.pairs[pair_id]
        return expand_trace(
            self.trace_table[trace_id], self.dict_table[dict_id]
        )

    def unique_trace_count(self) -> int:
        """Unique original path traces == number of pairs."""
        return len(self.pairs)


@dataclass
class CompactedWpp:
    """A fully compacted WPP: per-function tables plus the DCG."""

    func_names: List[str]
    functions: List[FunctionCompact]
    dcg: DynamicCallGraph

    _name_index: Optional[Dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

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
        traces = [
            [fc.expand_pair(p) for p in range(len(fc.pairs))]
            for fc in self.functions
        ]
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


@dataclass
class FunctionCompactResult:
    """One function's compaction output plus its size accounting.

    This is the per-function unit of work: everything in it derives
    from a single function's raw trace table, so functions can be
    compacted in any order (the streaming consumers do) and merged by
    function index.
    ``pair_map`` maps the function's raw trace ids to pair ids (needed
    to rewrite DCG trace references); the ``*_sizes`` tuples hold the
    serialized size of each unique body (dictionary-compacted form),
    each DBB dictionary, and each TWPP-converted body respectively.
    """

    function: FunctionCompact
    pair_map: List[int]
    body_sizes: Tuple[int, ...]
    dict_sizes: Tuple[int, ...]
    twpp_sizes: Tuple[int, ...]


def compact_function(
    name: str, call_count: int, raw_traces: List[PathTrace]
) -> FunctionCompactResult:
    """Compact one function's unique raw traces (pipeline stages 3-4).

    Pure and deterministic: the result depends only on the arguments,
    which is what makes per-function sharding safe.
    """
    fc = FunctionCompact(name=name, call_count=call_count)
    body_intern: Dict[PathTrace, int] = {}
    dict_intern: Dict[DbbDictionary, int] = {}
    pair_map: List[int] = []
    for raw_trace in raw_traces:
        body, dictionary = compact_trace(raw_trace)
        body_id = body_intern.get(body)
        if body_id is None:
            body_id = len(fc.trace_table)
            body_intern[body] = body_id
            fc.trace_table.append(body)
            fc.twpp_table.append(trace_to_twpp(body))
        dict_id = dict_intern.get(dictionary)
        if dict_id is None:
            dict_id = len(fc.dict_table)
            dict_intern[dictionary] = dict_id
            fc.dict_table.append(dictionary)
        pair_map.append(len(fc.pairs))
        fc.pairs.append((body_id, dict_id))
    return FunctionCompactResult(
        function=fc,
        pair_map=pair_map,
        body_sizes=tuple(_trace_bytes(b) for b in fc.trace_table),
        dict_sizes=tuple(dictionary_bytes(d) for d in fc.dict_table),
        twpp_sizes=tuple(twpp_bytes(t) for t in fc.twpp_table),
    )


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
                dcg_raw_bytes=partitioned.dcg_bytes(),
                dedup_trace_bytes=partitioned.trace_bytes_deduped(),
            )

        call_counts = partitioned.dcg.calls_per_function(
            len(partitioned.func_names)
        )

        with metrics.timer("compact.functions"):
            results = [
                compact_function(name, call_counts[i], partitioned.traces[i])
                for i, name in enumerate(partitioned.func_names)
            ]

        functions: List[FunctionCompact] = []
        pair_maps: List[List[int]] = []
        for res in results:
            functions.append(res.function)
            pair_maps.append(res.pair_map)
            for size in res.body_sizes:
                metrics.observe("compact.body_bytes", size)
            for size in res.dict_sizes:
                metrics.observe("compact.dict_bytes", size)
            stats.dict_stage_trace_bytes += sum(res.body_sizes)
            stats.dictionary_bytes += sum(res.dict_sizes)
            stats.ctwpp_trace_bytes += sum(res.twpp_sizes)

        # Rewrite DCG trace references from raw-trace ids to pair ids.
        with metrics.timer("compact.dcg"):
            new_trace = array("I")
            for func_idx, trace_id in zip(
                partitioned.dcg.node_func, partitioned.dcg.node_trace
            ):
                new_trace.append(pair_maps[func_idx][trace_id])
            dcg = DynamicCallGraph(
                node_func=partitioned.dcg.node_func,
                node_trace=new_trace,
                node_parent=partitioned.dcg.node_parent,
            )

        with metrics.timer("compact.lzw_dcg"):
            stats.dcg_lzw_bytes = len(lzw_compress(dcg.serialize()))

    metrics.inc("compact.functions", len(functions))
    metrics.inc("compact.pairs", sum(len(fc.pairs) for fc in functions))
    metrics.inc(
        "compact.unique_bodies", sum(len(fc.trace_table) for fc in functions)
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

    return CompactedWpp(
        func_names=list(partitioned.func_names),
        functions=functions,
        dcg=dcg,
    ), stats


def _trace_bytes(trace: PathTrace) -> int:
    return uvarint_size(len(trace)) + sum(uvarint_size(b) for b in trace)


def dictionary_bytes(dictionary: DbbDictionary) -> int:
    """Serialized size of one DBB dictionary."""
    size = uvarint_size(len(dictionary.chains))
    for chain in dictionary.chains:
        size += uvarint_size(len(chain)) + sum(uvarint_size(b) for b in chain)
    return size


def twpp_bytes(twpp: TwppPathTrace) -> int:
    """Serialized size of one compacted TWPP path trace."""
    from ..trace.encoding import svarint_size

    size = uvarint_size(len(twpp.entries))
    for block, stream in twpp.entries:
        size += uvarint_size(block) + uvarint_size(len(stream))
        size += sum(svarint_size(v) for v in stream)
    return size
