"""Whole program path collection, modelling and storage.

This package owns the raw (uncompacted) side of the paper: the WPP event
model, collection from the interpreter, the linear ``.wpp`` file format,
and the first structural transformation -- partitioning into per-call
path traces linked by a dynamic call graph.
"""

from .dcg import DynamicCallGraph, dcg_children
from .format import read_wpp, scan_function_traces, write_wpp
from .partition import (
    OnlinePartitioner,
    PartitionedWpp,
    PathTrace,
    partition_wpp,
)
from .reconstruct import (
    block_call_counts,
    pair_call_counts,
    reconstruct_wpp,
    trace_call_count,
)
from .wpp import (
    BLOCK,
    ENTER,
    LEAVE,
    WppBuilder,
    WppTrace,
    collect_wpp,
    pack_event,
    trace_from_tuples,
    unpack_event,
)

__all__ = [
    "BLOCK",
    "DynamicCallGraph",
    "ENTER",
    "LEAVE",
    "OnlinePartitioner",
    "PartitionedWpp",
    "PathTrace",
    "WppBuilder",
    "WppTrace",
    "block_call_counts",
    "collect_wpp",
    "dcg_children",
    "pack_event",
    "pair_call_counts",
    "partition_wpp",
    "read_wpp",
    "reconstruct_wpp",
    "scan_function_traces",
    "trace_call_count",
    "trace_from_tuples",
    "unpack_event",
    "write_wpp",
]
