"""mem2reg: promote allocas to SSA registers (pruned SSA construction).

This is the pass that gives the IR its "high-level" character: after it
runs, scalar local variables live in virtual registers connected by phi
nodes, exactly the state in which LLFI sees programs (Clang at -O1+ runs
mem2reg before anything else). Without it every local access would be a
load/store pair and the IR-vs-assembly instruction-count comparison
(paper Table IV) would be meaningless.

Algorithm: standard iterated-dominance-frontier phi placement over the
defining blocks of each promotable alloca, followed by a dominator-tree
renaming walk with per-variable value stacks.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.analysis import DominatorTree
from repro.ir.instructions import Alloca, Instruction, Load, Phi, Store
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import ConstantUndef, Value


def promote_memory_to_registers(module: Module) -> int:
    """Promote all eligible allocas in every function. Returns the number
    of allocas promoted."""
    total = 0
    for func in module.defined_functions():
        total += _promote_function(func)
    return total


def _is_promotable(alloca: Alloca) -> bool:
    """An alloca is promotable when it holds a first-class value and is only
    ever directly loaded from or stored to (never has its address taken,
    indexed, or passed to a call)."""
    if not alloca.allocated_type.is_first_class():
        return False
    for use in alloca.uses:
        user = use.user
        if isinstance(user, Load):
            continue
        if isinstance(user, Store) and user.pointer is alloca \
                and user.value is not alloca:
            continue
        return False
    return True


def _promote_function(func: Function) -> int:
    allocas = [inst for inst in func.entry.instructions
               if isinstance(inst, Alloca) and _is_promotable(inst)]
    if not allocas:
        return 0

    dt = DominatorTree(func)
    frontiers = dt.dominance_frontiers()
    blocks_by_id = dt.blocks_by_id()
    reachable: Set[int] = set(blocks_by_id)

    # ---- phi placement ----------------------------------------------------
    # For each alloca, compute blocks containing stores (defs) and insert
    # phi nodes on the iterated dominance frontier. Pruning: skip blocks
    # where the variable is not live-in.
    live_in = _compute_live_in(func, allocas, reachable)

    phi_for: Dict[Tuple[int, int], Phi] = {}  # (alloca id, block id) -> phi
    for alloca in allocas:
        def_blocks: List[int] = []
        for use in alloca.uses:
            user = use.user
            if isinstance(user, Store) and user.parent is not None \
                    and id(user.parent) in reachable:
                def_blocks.append(id(user.parent))
        worklist = list(dict.fromkeys(def_blocks))
        placed: Set[int] = set()
        while worklist:
            bid = worklist.pop()
            for fid in frontiers.get(bid, ()):
                if fid in placed:
                    continue
                placed.add(fid)
                if id(alloca) not in live_in.get(fid, set()):
                    continue  # pruned: dead phi
                block = blocks_by_id[fid]
                phi = Phi(alloca.allocated_type,
                          func.unique_name(alloca.name or "v"))
                phi.source_line = alloca.source_line
                block.insert(0, phi)
                phi_for[(id(alloca), fid)] = phi
                worklist.append(fid)

    # ---- renaming -----------------------------------------------------------
    owner_of: Dict[int, int] = {}  # id(phi) -> alloca id
    phis_by_block: Dict[int, List[Tuple[int, Phi]]] = {}
    for (aid, bid), phi in phi_for.items():
        owner_of[id(phi)] = aid
        phis_by_block.setdefault(bid, []).append((aid, phi))
    alloca_ids = {id(a): a for a in allocas}
    stacks: Dict[int, List[Value]] = {id(a): [] for a in allocas}
    to_delete: List[Instruction] = []
    visited: Set[int] = set()

    # Iterative dominator-tree DFS with explicit push/pop bookkeeping.
    def current(aid: int, alloca: Alloca) -> Value:
        stack = stacks[aid]
        if stack:
            return stack[-1]
        return ConstantUndef(alloca.allocated_type)

    work: List[Tuple[str, BasicBlock, List[int]]] = [("enter", func.entry, [])]
    while work:
        action, block, pushed = work.pop()
        if action == "exit":
            for aid in pushed:
                stacks[aid].pop()
            continue
        if id(block) in visited:
            continue
        visited.add(id(block))
        pushed_here: List[int] = []
        for inst in list(block.instructions):
            if isinstance(inst, Phi):
                owner = owner_of.get(id(inst))
                if owner is not None:
                    stacks[owner].append(inst)
                    pushed_here.append(owner)
            elif isinstance(inst, Load) and id(inst.pointer) in alloca_ids:
                aid = id(inst.pointer)
                inst.replace_all_uses_with(current(aid, alloca_ids[aid]))
                to_delete.append(inst)
            elif isinstance(inst, Store) and id(inst.pointer) in alloca_ids:
                aid = id(inst.pointer)
                stacks[aid].append(inst.value)
                pushed_here.append(aid)
                to_delete.append(inst)
        # Fill phi operands in successors.
        for succ in block.successors():
            for aid, phi in phis_by_block.get(id(succ), ()):
                phi.add_incoming(current(aid, alloca_ids[aid]), block)
        work.append(("exit", block, pushed_here))
        for child in dt.children(block):
            work.append(("enter", child, []))

    for inst in to_delete:
        inst.erase_from_parent()
    for alloca in allocas:
        if not alloca.is_used():
            alloca.erase_from_parent()
    return len(allocas)


def _compute_live_in(func: Function, allocas: List[Alloca],
                     reachable: Set[int]) -> Dict[int, Set[int]]:
    """Backward liveness of promotable allocas at block entry. Used to
    prune phis for variables that are dead on some frontier blocks."""
    alloca_ids = {id(a) for a in allocas}
    # use/def per block, in instruction order.
    upward_exposed: Dict[int, Set[int]] = {}
    killed: Dict[int, Set[int]] = {}
    for block in func.blocks:
        if id(block) not in reachable:
            continue
        ue: Set[int] = set()
        kill: Set[int] = set()
        for inst in block.instructions:
            if isinstance(inst, Load) and id(inst.pointer) in alloca_ids:
                if id(inst.pointer) not in kill:
                    ue.add(id(inst.pointer))
            elif isinstance(inst, Store) and id(inst.pointer) in alloca_ids:
                kill.add(id(inst.pointer))
        upward_exposed[id(block)] = ue
        killed[id(block)] = kill

    live_in: Dict[int, Set[int]] = {bid: set() for bid in upward_exposed}
    changed = True
    while changed:
        changed = False
        for block in func.blocks:
            bid = id(block)
            if bid not in live_in:
                continue
            live_out: Set[int] = set()
            for succ in block.successors():
                live_out |= live_in.get(id(succ), set())
            new_in = upward_exposed[bid] | (live_out - killed[bid])
            if new_in != live_in[bid]:
                live_in[bid] = new_in
                changed = True
    return live_in
