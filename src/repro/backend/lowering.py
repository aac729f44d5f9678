"""IR-level preparation passes run just before instruction selection.

Phi elimination inserts copies at the end of predecessor blocks, which is
only sound when (a) no critical edge carries a phi value and (b) phi copies
never share a block with copies for a different successor. Two passes
establish that:

* ``split_critical_edges`` — insert a forwarding block on every edge whose
  source has multiple successors and whose target has multiple predecessors;
* ``remove_single_pred_phis`` — a phi in a single-predecessor block is just
  a rename; replace it with its unique incoming value.

A third pass, ``order_blocks_rpo``, reorders each function's block list
into reverse post-order. Instruction selection walks ``func.blocks`` in
list order and requires every non-phi operand to have been selected
already; codegen emits blocks in *creation* order, which differs from a
dominance-compatible order whenever a loop's exit block (created early as
the ``break`` target) ends up listed before blocks created for later
statements of the loop body. In RPO a dominator always precedes the
blocks it dominates, which is exactly the def-before-use guarantee isel
needs (phis are exempt: their destinations are pre-created).
"""

from __future__ import annotations

from repro.ir.analysis import predecessor_map, reachable_blocks
from repro.ir.instructions import Branch
from repro.ir.module import Function, Module
from repro.ir.verifier import verify_module


def split_critical_edges(module: Module) -> int:
    count = 0
    for func in module.defined_functions():
        count += _split_function(func)
    return count


def _split_function(func: Function) -> int:
    count = 0
    preds = predecessor_map(func)
    # Snapshot: we add blocks while iterating.
    for block in list(func.blocks):
        if not block.is_terminated():
            continue
        term = block.terminator
        if not isinstance(term, Branch) or not term.is_conditional:
            continue
        for succ in dict.fromkeys(term.successors()):
            succ_preds = preds[id(succ)]
            if len(succ_preds) < 2 or not succ.phis():
                continue
            mid = func.add_block(f"{block.name}.{succ.name}.split")
            mid.append(Branch(succ))
            term.replace_target(succ, mid)
            # `block` now reaches `succ` only through `mid`.
            succ_preds[succ_preds.index(block)] = mid
            preds[id(mid)] = [block]
            for phi in succ.phis():
                # Retarget the incoming edge. A conditional branch may have
                # had both targets equal; replace only one matching edge.
                for i, pred in enumerate(phi._blocks):
                    if pred is block:
                        phi._blocks[i] = mid
                        break
            count += 1
    return count


def remove_single_pred_phis(module: Module) -> int:
    count = 0
    for func in module.defined_functions():
        preds_of = predecessor_map(func)
        for block in func.blocks:
            preds = preds_of[id(block)]
            if len(preds) != 1:
                continue
            for phi in list(block.phis()):
                phi.replace_all_uses_with(phi.incoming_for_block(preds[0]))
                phi.erase_from_parent()
                count += 1
    return count


def order_blocks_rpo(module: Module) -> int:
    """Reorder every function's block list into reverse post-order from
    the entry. Unreachable blocks are removed (they have no dominance
    relation to the rest of the CFG, so their operands may legitimately
    be "used" before any def isel will ever see). Returns the number of
    functions whose block list changed."""
    changed = 0
    for func in module.defined_functions():
        rpo = reachable_blocks(func)
        live = {id(b) for b in rpo}
        for block in [b for b in func.blocks if id(b) not in live]:
            func.remove_block(block)
        if func.blocks != rpo:
            func.blocks = list(rpo)
            changed += 1
    return changed


def prepare_for_backend(module: Module, verify: bool = True) -> None:
    """Run all preparation passes (idempotent)."""
    from repro.vm.blockcache import invalidate_cache

    remove_single_pred_phis(module)
    split_critical_edges(module)
    order_blocks_rpo(module)
    # The passes rewrite blocks and branch targets in place; compiled
    # blocks from any earlier execution of this module are now stale.
    invalidate_cache(module)
    if verify:
        verify_module(module)
