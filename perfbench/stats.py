"""The benchmark's own arithmetic: latency summaries, failure share and
span self time.

Kept free of any import from the program under test so that it can be
tested on its own (``python -m pytest perfbench``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """1-based rank of the tail sample in a sample of ``n``: the highest
    rank that still has at least ``beyond`` samples above it, i.e.
    ``n - beyond``.  None when the sample is too small to have one."""
    rank = n - beyond
    return rank if rank >= 1 else None


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND
         ) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples beyond it.

    Returns ``(value, percentile, n)``: the sample at rank
    :func:`tail_rank` of the sorted values, the percentile that rank
    stands for (``100 * rank / n``, floored to a whole percent) and the
    sample count.  With ``beyond`` or fewer samples there is no such
    percentile and the sample maximum is returned as the 100th."""
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    rank = tail_rank(n, beyond)
    if rank is None:
        return float(ordered[-1]), 100.0, n
    return float(ordered[rank - 1]), float(math.floor(100 * rank / n)), n


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted operations (0 when none ran)."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError(f"bad counts: attempted={attempted} failed={failed}")
    return failed / attempted if attempted else 0.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Tuple[float, float, Optional[int]]]
               ) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct child spans cover.

    ``spans`` holds ``(start, end, parent)`` triples, ``parent`` being
    the index of the enclosing span or None.  Children are clipped to
    their parent's interval, and overlapping children (spans opened on
    other threads under the same parent) are counted once."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _parent) in enumerate(spans):
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(index, ()) if e > start
                   and s < end]
        out.append((end - start) - union_length(clipped))
    return out
