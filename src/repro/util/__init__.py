"""Small shared utilities (deterministic RNG, timing helpers, format
sniffing)."""

import os
from typing import Union

from .lcg import Lcg
from .timing import Timer

__all__ = ["Lcg", "Timer", "read_magic"]


def read_magic(path: Union[str, "os.PathLike[str]"]) -> bytes:
    """The first four bytes of a file: the magic of every trace format
    (``WPP1``, ``TWPP``, ``SQWP``)."""
    with open(path, "rb") as fh:
        return fh.read(4)
