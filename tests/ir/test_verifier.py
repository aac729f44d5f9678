"""Tests for the IR verifier."""

import pytest

from repro.errors import VerificationError
from repro.ir import types as ty
from repro.ir.analysis import predecessor_map
from repro.ir.builder import IRBuilder
from repro.ir.instructions import BinaryOp, Branch, Phi, Ret
from repro.ir.module import Module
from repro.ir.values import ConstantInt
from repro.ir.verifier import verify_function, verify_module


def make_function(ret=ty.I32, params=(ty.I32,)):
    m = Module()
    f = m.add_function("f", ty.FunctionType(ret, list(params)))
    return m, f


class TestStructural:
    def test_valid_function_passes(self):
        m, f = make_function()
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.add(f.args[0], b.const_int(1)))
        verify_module(m)

    def test_missing_terminator(self):
        m, f = make_function()
        block = f.add_block("entry")
        block.append(BinaryOp("add", f.args[0], ConstantInt(ty.I32, 1)))
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(f)

    def test_empty_block(self):
        m, f = make_function()
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.const_int(0))
        f.add_block("orphan")
        with pytest.raises(VerificationError, match="empty"):
            verify_function(f)

    def test_ret_type_mismatch(self):
        m, f = make_function(ret=ty.I64)
        b = IRBuilder(f.add_block("entry"))
        b.block.append(Ret(ConstantInt(ty.I32, 0)))
        with pytest.raises(VerificationError, match="ret type"):
            verify_function(f)

    def test_ret_void_in_value_function(self):
        m, f = make_function()
        block = f.add_block("entry")
        block.append(Ret())
        with pytest.raises(VerificationError):
            verify_function(f)


class TestPhiChecks:
    def test_phi_missing_incoming(self):
        m, f = make_function()
        entry = f.add_block("entry")
        left = f.add_block("left")
        right = f.add_block("right")
        join = f.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp("slt", f.args[0], b.const_int(0))
        b.cond_br(cond, left, right)
        b.set_insert_point(left)
        b.br(join)
        b.set_insert_point(right)
        b.br(join)
        b.set_insert_point(join)
        phi = b.phi(ty.I32)
        phi.add_incoming(b.const_int(1), left)  # right edge missing
        b.ret(phi)
        with pytest.raises(VerificationError, match="missing incoming"):
            verify_function(f)

    def test_phi_from_non_predecessor(self):
        m, f = make_function()
        entry = f.add_block("entry")
        other = f.add_block("other")
        join = f.add_block("join")
        b = IRBuilder(entry)
        b.br(join)
        b.set_insert_point(other)
        b.ret(b.const_int(0))
        b.set_insert_point(join)
        phi = b.phi(ty.I32)
        phi.add_incoming(b.const_int(1), entry)
        phi.add_incoming(b.const_int(2), other)  # not a predecessor
        b.ret(phi)
        with pytest.raises(VerificationError, match="non-predecessor"):
            verify_function(f)


    def test_phi_after_non_phi(self):
        m, f = make_function()
        entry = f.add_block("entry")
        join = f.add_block("join")
        b = IRBuilder(entry)
        b.br(join)
        b.set_insert_point(join)
        x = b.add(f.args[0], b.const_int(1))
        b.ret(x)
        late = Phi(ty.I32, "late")
        late.add_incoming(b.const_int(0), entry)
        join.insert(1, late)  # after the add: not in the phi prefix
        with pytest.raises(VerificationError, match="phi after non-phi"):
            verify_function(f)


def same_target_branch():
    """entry: cond_br c, join, join -- both edges land on one block."""
    m, f = make_function()
    entry = f.add_block("entry")
    join = f.add_block("join")
    b = IRBuilder(entry)
    cond = b.icmp("slt", f.args[0], b.const_int(0))
    b.cond_br(cond, join, join)
    b.set_insert_point(join)
    phi = b.phi(ty.I32)
    phi.add_incoming(b.const_int(1), entry)
    b.ret(phi)
    return f, entry, join, phi


class TestPredecessorSemantics:
    """The verifier's view of predecessors: one entry per predecessor
    block, however many edges it has, and only blocks of the function."""

    def test_same_target_branch_is_one_predecessor(self):
        f, entry, join, _ = same_target_branch()
        preds = predecessor_map(f)
        assert preds[id(join)] == [entry]
        verify_function(f)  # one incoming entry is exactly right

    def test_two_entries_from_one_block_is_duplicate_edge(self):
        f, entry, _, phi = same_target_branch()
        phi.add_incoming(ConstantInt(ty.I32, 2), entry)
        with pytest.raises(VerificationError, match="duplicate edge"):
            verify_function(f)

    def test_branch_to_other_function_is_foreign_block(self):
        m, f = make_function()
        g = m.add_function("g", ty.FunctionType(ty.I32, [ty.I32]))
        g_entry = g.add_block("g_entry")
        IRBuilder(g_entry).ret(g.args[0])
        b = IRBuilder(f.add_block("entry"))
        b.br(g_entry)
        with pytest.raises(VerificationError, match="foreign block g_entry"):
            verify_function(f)


class TestDominance:
    def test_use_before_def_same_block(self):
        m, f = make_function()
        entry = f.add_block("entry")
        add1 = BinaryOp("add", f.args[0], ConstantInt(ty.I32, 1))
        add2 = BinaryOp("add", f.args[0], ConstantInt(ty.I32, 2))
        # add2 uses add1's result but is placed before it
        use = BinaryOp("add", add1, ConstantInt(ty.I32, 0))
        entry.append(use)
        entry.append(add1)
        entry.append(add2)
        entry.append(Ret(add2))
        with pytest.raises(VerificationError, match="before definition"):
            verify_function(f)

    def test_def_does_not_dominate_use(self):
        m, f = make_function()
        entry = f.add_block("entry")
        left = f.add_block("left")
        join = f.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp("slt", f.args[0], b.const_int(0))
        b.cond_br(cond, left, join)
        b.set_insert_point(left)
        x = b.add(f.args[0], b.const_int(1))  # defined only on one path
        b.br(join)
        b.set_insert_point(join)
        b.ret(x)  # used on both paths
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(f)

    def test_loop_phi_is_legal(self):
        # The canonical loop: phi uses a value from the back edge.
        m, f = make_function()
        entry = f.add_block("entry")
        loop = f.add_block("loop")
        exit_ = f.add_block("exit")
        b = IRBuilder(entry)
        b.br(loop)
        b.set_insert_point(loop)
        phi = b.phi(ty.I32)
        nxt = b.add(phi, b.const_int(1))
        cond = b.icmp("slt", nxt, f.args[0])
        b.cond_br(cond, loop, exit_)
        phi.add_incoming(b.const_int(0), entry)
        phi.add_incoming(nxt, loop)
        b.set_insert_point(exit_)
        b.ret(phi)
        verify_function(f)
