"""SimX86 machine model: registers, operands, machine instructions.

SimX86 is an x86-64-like target, rich enough that every IR↔assembly
discrepancy from the paper's Table I exists for real:

* GEPs fold into ``[base + index*scale + disp]`` addressing modes or lower
  to ``lea``/``add``/``imul`` chains;
* phi nodes become register moves and, under pressure, spill traffic;
* calls produce caller/callee-saved ``push``/``pop`` and a return address
  written through ``rsp``;
* conditional branches read specific EFLAGS bits set by ``cmp``/``test``/
  ``ucomisd``;
* most IR casts vanish; only int↔fp conversions survive (``cvtsi2sd``,
  ``cvttsd2si``) plus the sign-extension idioms (``movsx``, ``cdq``/``cqo``).

ABI (SysV-flavoured): integer args in rdi,rsi,rdx,rcx,r8,r9; FP args in
xmm0..xmm7; returns in rax / xmm0. Callee-saved: rbx, rbp, r12..r15 and —
a deliberate deviation from SysV, documented in DESIGN.md — xmm8..xmm11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import BackendError

# -- register sets -----------------------------------------------------------

GPRS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")
XMMS = tuple(f"xmm{i}" for i in range(16))

INT_ARG_REGS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
FP_ARG_REGS = ("xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5", "xmm6", "xmm7")
CALLEE_SAVED_GPRS = ("rbx", "r12", "r13", "r14", "r15")  # plus rbp (frame)
CALLEE_SAVED_XMMS = ("xmm8", "xmm9", "xmm10", "xmm11")

#: Registers the linear-scan allocator may hand out.
ALLOC_GPRS_CALLEE = ("rbx", "r12", "r13", "r14", "r15")
ALLOC_GPRS_CALLER = ("r10", "r11")
ALLOC_XMMS_CALLEE = CALLEE_SAVED_XMMS
ALLOC_XMMS_CALLER = ("xmm12", "xmm13")

#: Scratch registers reserved for spill reloads (never allocated).
SCRATCH_GPRS = ("rax", "rdx")
SCRATCH_XMMS = ("xmm14", "xmm15")

# EFLAGS bit positions (matching real x86 encodings).
FLAG_BITS = {"CF": 0, "PF": 2, "ZF": 6, "SF": 7, "OF": 11}
FLAG_NAMES = tuple(FLAG_BITS)


# -- condition codes ------------------------------------------------------------

#: cond -> tuple of flag names the condition *reads* (this table IS the
#: paper's PINFI heuristic: inject only into the dependent bit(s) of the
#: flag register before a conditional jump).
CONDITION_FLAGS: Dict[str, Tuple[str, ...]] = {
    "e": ("ZF",), "ne": ("ZF",),
    "l": ("SF", "OF"), "ge": ("SF", "OF"),
    "le": ("ZF", "SF", "OF"), "g": ("ZF", "SF", "OF"),
    "b": ("CF",), "ae": ("CF",),
    "be": ("CF", "ZF"), "a": ("CF", "ZF"),
    "p": ("PF",), "np": ("PF",),
    # synthetic (un)ordered-equality conditions used for fcmp oeq/one/une
    # (real compilers emit jp+je pairs; one fused jcc keeps blocks simple)
    "eq_o": ("ZF", "PF"), "ne_uo": ("ZF", "PF"), "ne_o": ("ZF", "PF"),
}


def evaluate_condition(cond: str, flags: Dict[str, int]) -> bool:
    cf, pf, zf = flags["CF"], flags["PF"], flags["ZF"]
    sf, of = flags["SF"], flags["OF"]
    if cond == "e":
        return zf == 1
    if cond == "ne":
        return zf == 0
    if cond == "l":
        return sf != of
    if cond == "ge":
        return sf == of
    if cond == "le":
        return zf == 1 or sf != of
    if cond == "g":
        return zf == 0 and sf == of
    if cond == "b":
        return cf == 1
    if cond == "ae":
        return cf == 0
    if cond == "be":
        return cf == 1 or zf == 1
    if cond == "a":
        return cf == 0 and zf == 0
    if cond == "p":
        return pf == 1
    if cond == "np":
        return pf == 0
    if cond == "eq_o":
        return zf == 1 and pf == 0
    if cond == "ne_uo":
        return zf == 0 or pf == 1
    if cond == "ne_o":
        return zf == 0 and pf == 0
    raise BackendError(f"unknown condition {cond}")


# -- operands --------------------------------------------------------------------

class Operand:
    pass


_next_vreg = [0]


class VReg(Operand):
    """Virtual register, replaced by the allocator."""

    __slots__ = ("id", "cls", "hint")

    def __init__(self, cls: str, hint: str = "") -> None:
        assert cls in ("gpr", "xmm")
        _next_vreg[0] += 1
        self.id = _next_vreg[0]
        self.cls = cls
        self.hint = hint

    def __repr__(self) -> str:
        prefix = "%v" if self.cls == "gpr" else "%f"
        return f"{prefix}{self.id}"


class Reg(Operand):
    """Physical register."""

    __slots__ = ("name",)
    _cache: Dict[str, "Reg"] = {}

    def __new__(cls, name: str) -> "Reg":
        inst = cls._cache.get(name)
        if inst is None:
            if name not in GPRS and name not in XMMS:
                raise BackendError(f"unknown register {name}")
            inst = super().__new__(cls)
            inst.name = name
            cls._cache[name] = inst
        return inst

    @property
    def cls(self) -> str:
        return "gpr" if self.name in GPRS else "xmm"

    def __repr__(self) -> str:
        return f"%{self.name}"


RegLike = Union[Reg, VReg]


class Imm(Operand):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"${self.value}"


@dataclass
class Mem(Operand):
    """Memory operand: [base + index*scale + disp], accessing `size` bytes.

    A folded GEP lives here — the paper's "address computations compressed
    in the memory offset computation part of the assembly instruction".
    """

    base: Optional[RegLike] = None
    index: Optional[RegLike] = None
    scale: int = 1
    disp: int = 0
    size: int = 8
    #: Name of the frame slot when this is a spill/alloca reference
    #: (resolved to an rbp offset by frame lowering).
    frame_slot: Optional[int] = None
    #: Global symbol whose load-time address is added to the effective
    #: address (rip-relative global access).
    sym: Optional[str] = None

    def regs(self) -> List[RegLike]:
        out = []
        if self.base is not None:
            out.append(self.base)
        if self.index is not None:
            out.append(self.index)
        return out

    def __repr__(self) -> str:
        parts = []
        if self.sym is not None:
            parts.append(f"@{self.sym}")
        if self.frame_slot is not None:
            parts.append(f"slot{self.frame_slot}")
        if self.base is not None:
            parts.append(repr(self.base))
        if self.index is not None:
            parts.append(f"{self.index!r}*{self.scale}")
        if self.disp or not parts:
            parts.append(str(self.disp))
        return f"[{' + '.join(parts)}]"


class Label(Operand):
    """Branch target (an MBlock reference)."""

    __slots__ = ("block",)

    def __init__(self, block: "MBlock") -> None:
        self.block = block

    def __repr__(self) -> str:
        return f".{self.block.name}"


class FuncRef(Operand):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"@{self.name}"


class GlobalAddr(Operand):
    """The absolute address of a global, resolved when the program image is
    laid out (the moral equivalent of a relocation)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"$@{self.name}"


# -- instruction definitions ---------------------------------------------------

#: opcode -> (def operand indexes, use operand indexes, writes_flags,
#:            reads_flags, implicit defs, implicit uses)
#: "Operand 0 is also read" for two-address arithmetic is expressed by the
#: index appearing in both lists.
_OPCODES: Dict[str, dict] = {
    # data movement
    "mov":      dict(defs=(0,), uses=(1,)),
    "movsx":    dict(defs=(0,), uses=(1,)),
    "movzx":    dict(defs=(0,), uses=(1,)),
    "lea":      dict(defs=(0,), uses=(1,)),
    "movsd":    dict(defs=(0,), uses=(1,)),
    "movq":     dict(defs=(0,), uses=(1,)),
    # integer ALU (two-address)
    "add":      dict(defs=(0,), uses=(0, 1), wflags=True),
    "sub":      dict(defs=(0,), uses=(0, 1), wflags=True),
    "imul":     dict(defs=(0,), uses=(0, 1), wflags=True),
    # three-operand form: imul dst, src, imm (dst not read)
    "imul3":    dict(defs=(0,), uses=(1,), wflags=True),
    "and":      dict(defs=(0,), uses=(0, 1), wflags=True),
    "or":       dict(defs=(0,), uses=(0, 1), wflags=True),
    "xor":      dict(defs=(0,), uses=(0, 1), wflags=True),
    "neg":      dict(defs=(0,), uses=(0,), wflags=True),
    "not":      dict(defs=(0,), uses=(0,)),
    "shl":      dict(defs=(0,), uses=(0, 1), wflags=True),
    "sar":      dict(defs=(0,), uses=(0, 1), wflags=True),
    "shr":      dict(defs=(0,), uses=(0, 1), wflags=True),
    "cdq":      dict(defs=(), uses=(), idefs=("rdx",), iuses=("rax",)),
    "cqo":      dict(defs=(), uses=(), idefs=("rdx",), iuses=("rax",)),
    "idiv":     dict(defs=(), uses=(0,), wflags=True,
                     idefs=("rax", "rdx"), iuses=("rax", "rdx")),
    # compare / flags
    "cmp":      dict(defs=(), uses=(0, 1), wflags=True),
    "test":     dict(defs=(), uses=(0, 1), wflags=True),
    "ucomisd":  dict(defs=(), uses=(0, 1), wflags=True),
    "setcc":    dict(defs=(0,), uses=(), rflags=True),
    # control flow
    "jmp":      dict(defs=(), uses=()),
    "jcc":      dict(defs=(), uses=(), rflags=True),
    "call":     dict(defs=(), uses=(), idefs=("rsp",), iuses=("rsp",)),
    "ret":      dict(defs=(), uses=(), idefs=("rsp",), iuses=("rsp",)),
    "push":     dict(defs=(), uses=(0,), idefs=("rsp",), iuses=("rsp",)),
    "pop":      dict(defs=(0,), uses=(), idefs=("rsp",), iuses=("rsp",)),
    # SSE scalar double
    "addsd":    dict(defs=(0,), uses=(0, 1)),
    "subsd":    dict(defs=(0,), uses=(0, 1)),
    "mulsd":    dict(defs=(0,), uses=(0, 1)),
    "divsd":    dict(defs=(0,), uses=(0, 1)),
    "pxor":     dict(defs=(0,), uses=(0, 1)),
    # conversions
    "cvtsi2sd": dict(defs=(0,), uses=(1,)),
    "cvttsd2si": dict(defs=(0,), uses=(1,)),
    # conditional move (select lowering)
    "cmovcc":   dict(defs=(0,), uses=(0, 1), rflags=True),
    # invalid-opcode trap (unreachable lowering)
    "ud2":      dict(defs=(), uses=()),
}


class MInst:
    """One machine instruction.

    ``width`` is the operation width in bits (8, 32 or 64) — the bit space
    PINFI flips in when this instruction's destination is chosen.
    ``cond`` is the condition code for ``jcc``/``setcc``.
    """

    __slots__ = ("opcode", "operands", "width", "cond", "src_width",
                 "source_line", "ir_origin")

    def __init__(self, opcode: str, operands: Sequence[Operand] = (),
                 width: int = 64, cond: str = "",
                 src_width: int = 0, source_line: int = 0,
                 ir_origin: str = "") -> None:
        if opcode not in _OPCODES:
            raise BackendError(f"unknown opcode {opcode}")
        self.opcode = opcode
        self.operands = list(operands)
        self.width = width
        self.cond = cond
        self.src_width = src_width
        self.source_line = source_line
        #: Opcode of the IR instruction this was selected from (diagnostics
        #: and the Table I report).
        self.ir_origin = ir_origin

    # -- def/use queries (registers only) -------------------------------------
    def spec(self) -> dict:
        return _OPCODES[self.opcode]

    def reg_defs(self) -> List[RegLike]:
        """Registers written (explicit operand defs that are registers,
        plus implicit physical defs)."""
        spec = self.spec()
        out: List[RegLike] = []
        for i in spec["defs"]:
            op = self.operands[i]
            if isinstance(op, (Reg, VReg)):
                out.append(op)
        for name in spec.get("idefs", ()):
            out.append(Reg(name))
        return out

    def reg_uses(self) -> List[RegLike]:
        """Registers read: explicit uses that are registers, registers
        inside any memory operand (address computation), implicit uses."""
        spec = self.spec()
        out: List[RegLike] = []
        for i in spec["uses"]:
            op = self.operands[i]
            if isinstance(op, (Reg, VReg)):
                out.append(op)
        for i, op in enumerate(self.operands):
            if isinstance(op, Mem):
                out.extend(op.regs())
        for name in spec.get("iuses", ()):
            out.append(Reg(name))
        return out

    def writes_flags(self) -> bool:
        return bool(self.spec().get("wflags"))

    def reads_flags(self) -> bool:
        return bool(self.spec().get("rflags"))

    def flags_read(self) -> Tuple[str, ...]:
        """The specific EFLAGS bits this instruction depends on."""
        if self.opcode in ("jcc", "setcc"):
            return CONDITION_FLAGS[self.cond]
        return ()

    def is_terminator(self) -> bool:
        return self.opcode in ("jmp", "jcc", "ret")

    def dest_operand(self) -> Optional[Operand]:
        """The first explicit destination operand, if any."""
        spec = self.spec()
        if spec["defs"]:
            return self.operands[spec["defs"][0]]
        return None

    def dest_register(self) -> Optional[RegLike]:
        """The explicit destination *register* — PINFI's injection target.
        None when the destination is memory (e.g. a store) or absent."""
        dest = self.dest_operand()
        if isinstance(dest, (Reg, VReg)):
            return dest
        return None

    def implicit_dest_register(self) -> Optional[Reg]:
        """First implicit register def (e.g. rax for idiv, rsp for push)."""
        spec = self.spec()
        idefs = spec.get("idefs", ())
        if idefs:
            return Reg(idefs[0])
        return None

    def __repr__(self) -> str:
        cond = self.cond if self.cond else ""
        name = f"{self.opcode[:-2]}{cond}" \
            if self.opcode in ("jcc", "setcc", "cmovcc") else self.opcode
        ops = ", ".join(repr(op) for op in self.operands)
        suffix = {8: "b", 32: "l", 64: "q"}.get(self.width, "")
        return f"{name}{suffix} {ops}".rstrip()


@dataclass
class MBlock:
    name: str
    insts: List[MInst] = field(default_factory=list)

    def append(self, inst: MInst) -> MInst:
        self.insts.append(inst)
        return inst


@dataclass
class MFunction:
    name: str
    blocks: List[MBlock] = field(default_factory=list)
    #: Frame slot sizes, by slot id (allocas and spills); offsets assigned
    #: during frame lowering.
    frame_slots: List[int] = field(default_factory=list)
    frame_size: int = 0
    used_callee_saved: List[str] = field(default_factory=list)

    def add_block(self, name: str) -> MBlock:
        block = MBlock(name)
        self.blocks.append(block)
        return block

    def new_frame_slot(self, size: int) -> int:
        self.frame_slots.append(max(size, 8))
        return len(self.frame_slots) - 1

    def instructions(self):
        for block in self.blocks:
            yield from block.insts


@dataclass
class MProgram:
    """A linked SimX86 program: functions plus the global data image
    description (shared with the IR interpreter via repro.vm.image)."""

    functions: Dict[str, MFunction] = field(default_factory=dict)
    ir_module: Optional[object] = None
    #: Compiled-block cache (``repro.vm.blockcache.cache_for``); owned
    #: here so it is collected with the program.
    block_cache: Optional[object] = field(default=None, repr=False,
                                          compare=False)
    #: Simulator tables (``repro.vm.asmsim.program_tables``); owned here
    #: for the same reason.
    sim_tables: Optional[object] = field(default=None, repr=False,
                                         compare=False)

    def add_function(self, func: MFunction) -> MFunction:
        self.functions[func.name] = func
        return func
