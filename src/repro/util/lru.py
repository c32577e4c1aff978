"""One bounded, thread-safe LRU lookup for process-wide caches."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Tuple, TypeVar

V = TypeVar("V")


def lru_lookup(
    cache: "OrderedDict[Hashable, V]",
    lock: threading.Lock,
    bound: int,
    key: Hashable,
    make: Callable[[], V],
) -> Tuple[V, bool]:
    """``cache[key]``, or ``make()`` stored under ``key``; and whether
    ``make`` ran (a miss).

    ``cache`` holds at most ``bound`` entries (none when ``bound`` is 0),
    least recently used first.  ``make`` runs outside ``lock``, so two
    threads missing on one key may both run it; either value is kept.
    """
    with lock:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            return value, False
    value = make()
    with lock:
        if key in cache:
            cache.move_to_end(key)
        elif bound > 0:
            # Evict before inserting, so that even a reader that does not
            # take the lock never sees more than the bound.
            while len(cache) >= bound:
                cache.popitem(last=False)
            cache[key] = value
    return value, True
