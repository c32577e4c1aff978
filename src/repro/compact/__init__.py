"""The paper's core contribution: WPP compaction and the TWPP form.

Pipeline entry point::

    from repro.trace import collect_wpp, partition_wpp
    from repro.compact import compact_wpp, write_twpp

    wpp = collect_wpp(program)
    compacted, stats = compact_wpp(partition_wpp(wpp))
    write_twpp(compacted, "run.twpp")

``stats`` carries the per-stage serialized sizes behind the paper's
Tables 1-3; :mod:`repro.compact.query` provides the fast per-function
extraction of Tables 4-5.
"""

from .delta import (
    FunctionDelta,
    TwppDelta,
    diff_compacted,
    diff_twpp_files,
)
from .dbb import (
    DbbDictionary,
    compact_trace,
    dynamic_cfg,
    dynamic_cfg_edges,
    expand_trace,
    find_dbb_chains,
    verify_dictionary,
)
from .format import (
    FunctionIndexEntry,
    TwppHeader,
    extract_function,
    read_header,
    read_twpp,
    serialize_twpp,
    write_twpp,
)
from .lzw import lzw_compress, lzw_decompress
from .pipeline import (
    CompactedWpp,
    CompactionStats,
    FunctionCompact,
    FunctionCompactResult,
    compact_function,
    compact_wpp,
    dictionary_bytes,
    twpp_bytes,
)
from .qserve import (
    DEFAULT_CACHE_BYTES,
    LruByteCache,
    MmapSource,
    PooledFileSource,
    QueryEngine,
    open_source,
)
from .query import (
    TwppReader,
    extract_function_record,
    extract_function_traces,
)
from .stream import (
    STREAM_QUEUE_CAP,
    StreamResult,
    stream_compact,
)
from .series import (
    compress_series,
    decompress_series,
    entry_count,
    iter_entries,
    series_contains,
    series_len,
)
from .twpp import TwppPathTrace, trace_to_twpp, twpp_to_trace
from .verify import IntegrityError, verify_compacted

__all__ = [
    "CompactedWpp",
    "CompactionStats",
    "DEFAULT_CACHE_BYTES",
    "DbbDictionary",
    "FunctionCompact",
    "FunctionCompactResult",
    "FunctionDelta",
    "FunctionIndexEntry",
    "IntegrityError",
    "LruByteCache",
    "MmapSource",
    "PooledFileSource",
    "QueryEngine",
    "STREAM_QUEUE_CAP",
    "StreamResult",
    "TwppDelta",
    "TwppHeader",
    "TwppPathTrace",
    "TwppReader",
    "compact_function",
    "compact_trace",
    "compact_wpp",
    "compress_series",
    "decompress_series",
    "dictionary_bytes",
    "diff_compacted",
    "diff_twpp_files",
    "dynamic_cfg",
    "dynamic_cfg_edges",
    "entry_count",
    "expand_trace",
    "extract_function",
    "extract_function_record",
    "extract_function_traces",
    "find_dbb_chains",
    "iter_entries",
    "lzw_compress",
    "lzw_decompress",
    "open_source",
    "read_header",
    "read_twpp",
    "serialize_twpp",
    "series_contains",
    "series_len",
    "stream_compact",
    "trace_to_twpp",
    "twpp_bytes",
    "twpp_to_trace",
    "verify_compacted",
    "verify_dictionary",
    "write_twpp",
]
