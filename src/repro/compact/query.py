"""Cold per-function queries over ``.twpp`` files.

The paper's motivating usage pattern is "a series of requests for
profile data for individual functions"; these helpers are that request
path at its coldest.  Each call opens a
:class:`~repro.compact.qserve.QueryEngine` with ``cache_bytes=0`` --
map the file, parse the header, decode one section -- so
:func:`extract_function_traces` measures the full cold-query cost that
Table 4's column C times.  Long-lived servers should hold an engine
instead; the helpers accept one via ``engine=`` so call sites can opt
in without changing shape.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple, Union

from .pipeline import FunctionCompact
from .qserve import QueryEngine

PathLike = Union[str, "os.PathLike[str]"]
PathTrace = Tuple[int, ...]


def extract_function_traces(
    path: PathLike, name: str, engine: Optional[QueryEngine] = None
) -> List[PathTrace]:
    """Cold extraction of one function's unique path traces.

    Opens the file, reads the header and the one relevant section.
    This is the compacted-side operation of the paper's access-time
    study (Table 4, column C; Table 5, TWPP extraction time).  Pass a
    warm :class:`~repro.compact.qserve.QueryEngine` via ``engine=`` to
    serve the request from its cache instead (``path`` is then ignored).
    """
    if engine is not None:
        return engine.traces(name)
    with QueryEngine(path, cache_bytes=0) as cold:
        return cold.traces(name)


def extract_function_record(
    path: PathLike, name: str, engine: Optional[QueryEngine] = None
) -> FunctionCompact:
    """Cold extraction of one function's full compacted record.

    ``engine=`` routes the request through a warm cached engine, as in
    :func:`extract_function_traces`.
    """
    if engine is not None:
        return engine.extract(name)
    with QueryEngine(path, cache_bytes=0) as cold:
        return cold.extract(name)
