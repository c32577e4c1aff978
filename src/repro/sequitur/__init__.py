"""The Sequitur-compressed WPP baseline (Larus, PLDI 1999).

The paper compares its compacted TWPP against WPPs compressed with
Sequitur on two axes -- total size and per-function extraction time
(Table 5).  This package implements the baseline end to end: the online
grammar-inference algorithm, a frozen grammar with codec, and the
read+process extraction path.
"""

from .algorithm import SequiturBuilder, build_grammar
from .grammar import (
    Grammar,
    verify_grammar_invariants,
)
from .wpp_codec import (
    compress_wpp,
    decompress_wpp,
    extract_function_traces_sequitur,
    process_step,
    read_step,
    serialize_compressed_wpp,
    write_compressed_wpp,
)

__all__ = [
    "Grammar",
    "SequiturBuilder",
    "build_grammar",
    "compress_wpp",
    "decompress_wpp",
    "extract_function_traces_sequitur",
    "process_step",
    "read_step",
    "serialize_compressed_wpp",
    "verify_grammar_invariants",
    "write_compressed_wpp",
]
