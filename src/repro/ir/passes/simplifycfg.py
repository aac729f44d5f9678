"""CFG simplification.

Three cleanups, iterated to a fixed point:

1. remove blocks unreachable from the entry,
2. fold conditional branches on constant conditions into unconditional ones,
3. merge a block into its unique predecessor when that predecessor has a
   single successor (straight-line merge).

All phi edges are kept consistent throughout.
"""

from __future__ import annotations

from typing import List

from repro.ir.analysis import predecessor_map, reachable_blocks
from repro.ir.instructions import Branch, Phi
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import ConstantInt


def simplify_cfg(module: Module) -> int:
    total = 0
    for func in module.defined_functions():
        total += _simplify_function(func)
    return total


def _simplify_function(func: Function) -> int:
    changes = 0
    changed = True
    while changed:
        changed = False
        changed |= _fold_constant_branches(func)
        changed |= _remove_unreachable(func)
        changed |= _merge_straightline(func)
        if changed:
            changes += 1
    return changes


def _fold_constant_branches(func: Function) -> bool:
    changed = False
    for block in func.blocks:
        if not block.is_terminated():
            continue
        term = block.terminator
        if isinstance(term, Branch) and term.is_conditional \
                and isinstance(term.condition, ConstantInt):
            taken = term.targets[0] if term.condition.value else term.targets[1]
            dead = term.targets[1] if term.condition.value else term.targets[0]
            if dead is not taken:
                for phi in dead.phis():
                    try:
                        phi.remove_incoming(block)
                    except Exception:
                        pass
            block.remove(term)
            block.append(Branch(taken))
            changed = True
    return changed


def _remove_unreachable(func: Function) -> bool:
    live = {id(b) for b in reachable_blocks(func)}
    dead = [b for b in func.blocks if id(b) not in live]
    for block in dead:
        func.remove_block(block)
    return bool(dead)


def _merge_straightline(func: Function) -> bool:
    changed = False
    preds_of = predecessor_map(func)
    for block in list(func.blocks):
        if block is func.entry:
            continue
        preds = preds_of[id(block)]
        if len(preds) != 1:
            continue
        pred = preds[0]
        if pred is block or len(pred.successors()) != 1:
            continue
        if block.phis():
            # Single predecessor: phis are trivially replaceable.
            for phi in block.phis():
                phi.replace_all_uses_with(phi.incoming_for_block(pred))
                phi.erase_from_parent()
        # Splice instructions into the predecessor.
        pred_term = pred.terminator
        pred.remove(pred_term)
        moved, block.instructions = block.instructions, []
        for inst in moved:
            inst.parent = pred
        pred.instructions.extend(moved)
        # Phi edges and predecessor lists of the successors must now name
        # `pred` (it was not one of their predecessors: its only successor
        # was `block`, and `block` has no self-edge).
        for succ in dict.fromkeys(pred.successors()):
            for phi in succ.phis():
                phi._blocks = [pred if b is block else b for b in phi._blocks]
            succ_preds = preds_of[id(succ)]
            succ_preds[succ_preds.index(block)] = pred
        del preds_of[id(block)]
        func.blocks.remove(block)
        block.parent = None
        changed = True
    return changed
