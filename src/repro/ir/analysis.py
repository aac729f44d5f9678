"""Control-flow analyses: predecessors, reachability, dominator tree,
dominance frontiers.

The dominator tree uses the Cooper–Harvey–Kennedy "simple, fast dominance"
algorithm; frontiers use their frontier construction. mem2reg consumes both
to place pruned-SSA phi nodes.

Predecessors come from one sweep over the function (:func:`predecessor_map`)
that each analysis or pass builds once and consults per block; a block
itself never rescans its function for predecessors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.module import BasicBlock, Function


def predecessor_map(func: Function) -> Dict[int, List[BasicBlock]]:
    """Map from block id to that block's predecessors, for every block in
    ``func.blocks``: one sweep over the terminators.

    Predecessors are listed in block order, and a block that branches to
    the same target twice is listed once.  Branches to blocks outside
    ``func.blocks`` are ignored.
    """
    preds: Dict[int, List[BasicBlock]] = {id(b): [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            entry = preds.get(id(succ))
            # Blocks are swept in order, so a repeat edge from ``block``
            # can only follow its own first entry.
            if entry is not None and (not entry or entry[-1] is not block):
                entry.append(block)
    return preds


def reachable_blocks(func: Function) -> List[BasicBlock]:
    """Blocks reachable from the entry, in reverse postorder."""
    if not func.blocks:
        return []
    visited: Set[int] = set()
    postorder: List[BasicBlock] = []

    # Iterative DFS (recursion would overflow on long block chains).
    stack: List[tuple] = [(func.entry, iter(func.entry.successors()))]
    visited.add(id(func.entry))
    while stack:
        block, succs = stack[-1]
        advanced = False
        for succ in succs:
            if id(succ) not in visited:
                visited.add(id(succ))
                stack.append((succ, iter(succ.successors())))
                advanced = True
                break
        if not advanced:
            postorder.append(block)
            stack.pop()
    postorder.reverse()
    return postorder


class DominatorTree:
    """Immediate-dominator tree over the reachable CFG of a function."""

    def __init__(self, func: Function) -> None:
        self.function = func
        self.rpo = reachable_blocks(func)
        self._rpo_index: Dict[int, int] = {id(b): i for i, b in enumerate(self.rpo)}
        preds = predecessor_map(func)
        #: Reachable predecessors of each reachable block.
        self._preds: Dict[int, List[BasicBlock]] = {
            id(b): [p for p in preds.get(id(b), ())
                    if id(p) in self._rpo_index]
            for b in self.rpo}
        self.idom: Dict[int, BasicBlock] = {}
        self._children: Dict[int, List[BasicBlock]] = {id(b): [] for b in self.rpo}
        self._compute()

    def _compute(self) -> None:
        if not self.rpo:
            return
        entry = self.rpo[0]
        idom: Dict[int, Optional[BasicBlock]] = {id(b): None for b in self.rpo}
        idom[id(entry)] = entry
        changed = True
        while changed:
            changed = False
            for block in self.rpo[1:]:
                preds = [p for p in self._preds[id(block)]
                         if idom[id(p)] is not None]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom, idom)
                if idom[id(block)] is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True
        for block in self.rpo:
            dom = idom[id(block)]
            assert dom is not None, f"unreachable block {block.name} in RPO"
            self.idom[id(block)] = dom
            if block is not self.rpo[0]:
                self._children[id(dom)].append(block)

    def _intersect(self, b1: BasicBlock, b2: BasicBlock,
                   idom: Dict[int, Optional[BasicBlock]]) -> BasicBlock:
        f1, f2 = b1, b2
        while f1 is not f2:
            while self._rpo_index[id(f1)] > self._rpo_index[id(f2)]:
                f1 = idom[id(f1)]  # type: ignore[assignment]
            while self._rpo_index[id(f2)] > self._rpo_index[id(f1)]:
                f2 = idom[id(f2)]  # type: ignore[assignment]
        return f1

    def immediate_dominator(self, block: BasicBlock) -> BasicBlock:
        return self.idom[id(block)]

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return list(self._children[id(block)])

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        entry = self.rpo[0]
        node = b
        while True:
            if node is a:
                return True
            if node is entry:
                return False
            node = self.idom[id(node)]

    def dominance_frontiers(self) -> Dict[int, Set[int]]:
        """Map from block id to the set of block ids in its frontier."""
        frontiers: Dict[int, Set[int]] = {id(b): set() for b in self.rpo}
        for block in self.rpo:
            preds = self._preds[id(block)]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner is not self.idom[id(block)]:
                    frontiers[id(runner)].add(id(block))
                    runner = self.idom[id(runner)]
        return frontiers

    def blocks_by_id(self) -> Dict[int, BasicBlock]:
        return {id(b): b for b in self.rpo}
