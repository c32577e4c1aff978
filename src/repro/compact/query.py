"""Cold per-function queries over ``.twpp`` files.

The paper's motivating usage pattern is "a series of requests for
profile data for individual functions"; these helpers are that request
path at its coldest.  Each call opens a
:class:`~repro.compact.qserve.QueryEngine` with ``cache_bytes=0`` --
map the file, parse the header, decode one section -- so
:func:`extract_function_traces` measures the full cold-query cost that
Table 4's column C times.  Long-lived servers should hold an engine
(or a :class:`~repro.api.Session`) and call it directly instead.
:func:`read_twpp` loads a whole file through the same cold engine.
"""

from __future__ import annotations

import os
from typing import List, Tuple, Union

from .pipeline import CompactedWpp
from .qserve import QueryEngine

PathLike = Union[str, "os.PathLike[str]"]
PathTrace = Tuple[int, ...]


def extract_function_traces(path: PathLike, name: str) -> List[PathTrace]:
    """Cold extraction of one function's unique path traces.

    Opens the file, reads the header and the one relevant section.
    This is the compacted-side operation of the paper's access-time
    study (Table 4, column C; Table 5, TWPP extraction time).
    """
    with QueryEngine(path, cache_bytes=0) as cold:
        return cold.traces(name)


def read_twpp(path: PathLike) -> CompactedWpp:
    """Load an entire ``.twpp`` file back into memory."""
    with QueryEngine(path, cache_bytes=0) as cold:
        entries = sorted(cold.header.entries, key=lambda e: e.original_index)
        functions = [cold.extract(e.name) for e in entries]
        dcg = cold.dcg()
    return CompactedWpp(
        func_names=[fc.name for fc in functions],
        functions=functions,
        dcg=dcg,
    )
