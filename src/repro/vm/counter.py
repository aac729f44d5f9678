"""Dynamic candidate counting for profiling and checkpoint recording.

A fault-injection candidate is a static property of an instruction
(``id(inst)`` in a category's candidate set), so counting dynamic
candidates needs no hook call per instruction:

* the scalar loops look up the instruction's precomputed tuple of set
  indices (:attr:`CandidateCounter.by_inst`) — one dict lookup per
  retired instruction;
* a compiled segment adds one per-set count vector, computed from the
  segment's ``ids`` the first time the counter meets the segment and
  memoised per segment (:meth:`CandidateCounter.add_segment`).

Engines take a counter as ``counter=``; runs without one (every trial)
pay nothing per block.  At the IR tier the scalar loop counts
value-producing instructions only, which is all a candidate set holds.

Counts are exact at every instruction boundary a checkpoint can land on
and at the end of a completed run.  A run that traps or hangs inside a
compiled segment stops counting at the segment's start; such runs are
failed preparation runs, whose counts are never used.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


class CandidateCounter:
    """Per-set dynamic candidate counts for one engine run."""

    __slots__ = ("by_inst", "totals", "_vectors")

    def __init__(self, sets: Sequence[Iterable[int]]) -> None:
        by_inst: Dict[int, Tuple[int, ...]] = {}
        for i, ids in enumerate(sets):
            for x in ids:
                by_inst[x] = by_inst.get(x, ()) + (i,)
        #: id(instruction) -> indices of the sets it belongs to.
        self.by_inst = by_inst
        #: Running count per set, in set order (mutated in place).
        self.totals: List[int] = [0] * len(sets)
        #: compiled segment -> its sparse ((set index, count), ...) vector.
        self._vectors: Dict[object, Tuple[Tuple[int, int], ...]] = {}

    def add_segment(self, cb) -> None:
        """Count one dispatch of compiled segment ``cb``."""
        vector = self._vectors.get(cb)
        if vector is None:
            hits = [0] * len(self.totals)
            for x in cb.ids:
                for i in self.by_inst.get(x, ()):
                    hits[i] += 1
            vector = self._vectors[cb] = tuple(
                (i, n) for i, n in enumerate(hits) if n)
        totals = self.totals
        for i, n in vector:
            totals[i] += n
