"""IR verifier: structural and SSA-dominance checks.

Run after the front end and after every optimization pass (the pass manager
does this automatically in checked mode). Catches the classic compiler bugs:
blocks without terminators, uses that don't dominate defs, phi edge
mismatches, type confusion that slipped past construction.
"""

from __future__ import annotations

from typing import List, Set

from repro.errors import VerificationError
from repro.ir.analysis import DominatorTree, predecessor_map
from repro.ir.instructions import Branch, Call, Instruction, Phi, Ret
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Argument, Constant, GlobalVariable, Value


def verify_module(module: Module) -> None:
    errors: List[str] = []
    for func in module.functions.values():
        if func.is_declaration:
            continue
        errors.extend(_verify_function(func))
    if errors:
        raise VerificationError(
            f"module {module.name} failed verification:\n  " + "\n  ".join(errors))


def verify_function(func: Function) -> None:
    errors = _verify_function(func)
    if errors:
        raise VerificationError(
            f"function {func.name} failed verification:\n  " + "\n  ".join(errors))


def _verify_function(func: Function) -> List[str]:
    errors: List[str] = []
    where = f"in @{func.name}"

    if not func.blocks:
        return [f"{where}: defined function has no blocks"]

    block_set = {id(b) for b in func.blocks}

    for block in func.blocks:
        if not block.instructions:
            errors.append(f"{where}: block {block.name} is empty")
            continue
        if not block.is_terminated():
            errors.append(f"{where}: block {block.name} lacks a terminator")
            continue
        first_non_phi = block.first_non_phi_index()
        for i, inst in enumerate(block.instructions):
            if inst.parent is not block:
                errors.append(
                    f"{where}: instruction {inst.opcode} has wrong parent link")
            if inst.is_terminator() and i != len(block.instructions) - 1:
                errors.append(
                    f"{where}: terminator {inst.opcode} mid-block in {block.name}")
            if isinstance(inst, Phi) and i > first_non_phi:
                errors.append(f"{where}: phi after non-phi in {block.name}")
        term = block.terminator
        if isinstance(term, Branch):
            for target in term.targets:
                if id(target) not in block_set:
                    errors.append(
                        f"{where}: branch in {block.name} targets foreign block "
                        f"{target.name}")
        if isinstance(term, Ret):
            if func.return_type.is_void():
                if term.value is not None:
                    errors.append(f"{where}: ret with value in void function")
            elif term.value is None:
                errors.append(f"{where}: ret void in non-void function")
            elif term.value.type is not func.return_type:
                errors.append(
                    f"{where}: ret type {term.value.type} != {func.return_type}")

    # Phi edge consistency.
    pred_map = predecessor_map(func)
    for block in func.blocks:
        preds = pred_map[id(block)]
        pred_ids = {id(p) for p in preds}
        for phi in block.phis():
            seen: Set[int] = set()
            for value, inblock in phi.incoming:
                if id(inblock) not in pred_ids:
                    errors.append(
                        f"{where}: phi %{phi.name} has edge from non-predecessor "
                        f"{inblock.name}")
                if id(inblock) in seen:
                    errors.append(
                        f"{where}: phi %{phi.name} has duplicate edge from "
                        f"{inblock.name}")
                seen.add(id(inblock))
            missing = pred_ids - seen
            if missing:
                names = ", ".join(p.name for p in preds if id(p) in missing)
                errors.append(
                    f"{where}: phi %{phi.name} missing incoming for: {names}")

    if errors:
        return errors  # dominance check needs a sane CFG

    # SSA dominance: every use of an instruction result must be dominated
    # by its definition.
    dt = DominatorTree(func)
    reachable = {id(b) for b in dt.rpo}
    positions = {}
    for block in func.blocks:
        for i, inst in enumerate(block.instructions):
            positions[id(inst)] = (block, i)
    for block in func.blocks:
        if id(block) not in reachable:
            continue
        for i, inst in enumerate(block.instructions):
            for op_index, op in enumerate(inst.operands):
                if not isinstance(op, Instruction):
                    if not isinstance(op, (Constant, Argument, GlobalVariable)):
                        errors.append(
                            f"{where}: {inst.opcode} operand {op_index} is not a "
                            f"value ({type(op).__name__})")
                    continue
                if id(op) not in positions:
                    errors.append(
                        f"{where}: use of detached instruction %{op.name}")
                    continue
                def_block, def_pos = positions[id(op)]
                if id(def_block) not in reachable:
                    continue
                if isinstance(inst, Phi):
                    # Uses in phis must dominate the *incoming edge* source.
                    pred = inst.incoming[op_index][1]
                    if id(pred) in reachable and not dt.dominates(def_block, pred):
                        errors.append(
                            f"{where}: phi %{inst.name} operand %{op.name} does "
                            f"not dominate edge from {pred.name}")
                elif def_block is block:
                    if def_pos >= i:
                        errors.append(
                            f"{where}: %{op.name} used before definition in "
                            f"{block.name}")
                elif not dt.dominates(def_block, block):
                    errors.append(
                        f"{where}: definition of %{op.name} ({def_block.name}) "
                        f"does not dominate use in {block.name}")

    return errors
