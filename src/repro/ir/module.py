"""Module / Function / BasicBlock containers for the repro IR."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import IRError
from repro.ir import types as ty
from repro.ir.instructions import Branch, Instruction, Phi
from repro.ir.values import Argument, GlobalVariable, Value


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None) -> None:
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- structure ----------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated():
            raise IRError(
                f"block {self.name} already has a terminator; cannot append {inst.opcode}")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None
        inst.drop_all_references()

    def is_terminated(self) -> bool:
        return bool(self.instructions) and self.instructions[-1].is_terminator()

    @property
    def terminator(self) -> Instruction:
        if not self.is_terminated():
            raise IRError(f"block {self.name} has no terminator")
        return self.instructions[-1]

    # -- CFG -----------------------------------------------------------------
    # Predecessors are a whole-function query: see
    # ``repro.ir.analysis.predecessor_map``.
    def successors(self) -> List["BasicBlock"]:
        insts = self.instructions
        if insts and insts[-1].is_terminator():
            return insts[-1].successors()  # type: ignore[attr-defined]
        return []

    def phis(self) -> List[Phi]:
        result = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, Phi):
                return i
        return len(self.instructions)

    def ref(self) -> str:
        return f"%{self.name}"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name}: {len(self.instructions)} insts>"


class Function(Value):
    """A function definition (with blocks) or declaration (intrinsic)."""

    def __init__(self, name: str, function_type: ty.FunctionType,
                 parent: Optional["Module"] = None,
                 param_names: Optional[Sequence[str]] = None) -> None:
        super().__init__(function_type, name)
        self.function_type = function_type
        self.parent = parent
        names = list(param_names) if param_names else [
            f"arg{i}" for i in range(len(function_type.param_types))]
        if len(names) != len(function_type.param_types):
            raise IRError("param name/type count mismatch")
        self.args: List[Argument] = [
            Argument(t, n, i)
            for i, (t, n) in enumerate(zip(function_type.param_types, names))
        ]
        self.blocks: List[BasicBlock] = []
        #: Intrinsics (print_int, malloc, ...) are declarations handled
        #: directly by the execution engines.
        self.is_intrinsic = False
        self._next_name = 0

    @property
    def return_type(self) -> ty.Type:
        return self.function_type.return_type

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "", before: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(name or self.unique_name("bb"), self)
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        """Remove a block: detach its instructions and fix phi edges."""
        for succ in block.successors():
            for phi in succ.phis():
                try:
                    phi.remove_incoming(block)
                except IRError:
                    pass
        for inst in list(block.instructions):
            block.remove(inst)
        self.blocks.remove(block)
        block.parent = None

    def unique_name(self, prefix: str = "t") -> str:
        self._next_name += 1
        return f"{prefix}{self._next_name}"

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def ref(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function {self.name} {self.function_type}>"


class Module:
    """Top-level IR container: functions, globals and named struct types."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.structs: Dict[str, ty.StructType] = {}
        #: Compiled-block cache (``repro.vm.blockcache.cache_for``); owned
        #: here so it is collected with the module.
        self.block_cache = None

    def add_function(self, name: str, function_type: ty.FunctionType,
                     param_names: Optional[Sequence[str]] = None) -> Function:
        if name in self.functions:
            raise IRError(f"function {name} already defined")
        func = Function(name, function_type, self, param_names)
        self.functions[name] = func
        return func

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function named {name}") from None

    def add_global(self, var: GlobalVariable) -> GlobalVariable:
        if var.name in self.globals:
            raise IRError(f"global {var.name} already defined")
        self.globals[var.name] = var
        return var

    def add_struct(self, struct: ty.StructType) -> ty.StructType:
        if struct.name in self.structs:
            raise IRError(f"struct {struct.name} already defined")
        self.structs[struct.name] = struct
        return struct

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def __str__(self) -> str:
        from repro.ir.printer import format_module
        return format_module(self)
