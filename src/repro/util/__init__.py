"""Small shared utilities (deterministic RNG, format sniffing)."""

import os
from typing import Union

from .lcg import Lcg

__all__ = ["Lcg", "read_magic"]


def read_magic(path: Union[str, "os.PathLike[str]"]) -> bytes:
    """The first four bytes of a file: the magic of every trace format
    (``WPP1``, ``TWPP``, ``SQWP``)."""
    with open(path, "rb") as fh:
        return fh.read(4)
