"""Thread-pool helper with deterministic ordering.

Results are returned in input order. Combined with an RNG stream
derived per work item (see seeding.py) this makes outputs
byte-identical for any thread count, including 1.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_ordered(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Apply fn to each item, preserving input order in the result.

    At most one thread per item and per CPU is started, whatever
    `threads` asks for.
    """
    threads = min(threads or 1, len(items), os.cpu_count() or 1)
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

