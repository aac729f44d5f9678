"""Tests for CFG analyses: predecessors, reachability, dominators,
frontiers."""

from hypothesis import given, strategies as st

from repro.ir import types as ty
from repro.ir.analysis import (
    DominatorTree, predecessor_map, reachable_blocks,
)
from repro.ir.builder import IRBuilder
from repro.ir.module import Module


def diamond():
    """entry -> (left|right) -> join -> exit"""
    m = Module()
    f = m.add_function("f", ty.FunctionType(ty.VOID, [ty.I32]))
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
    b.ret()
    return f, entry, left, right, join


def loop():
    """entry -> header <-> body; header -> exit"""
    m = Module()
    f = m.add_function("f", ty.FunctionType(ty.VOID, [ty.I32]))
    entry = f.add_block("entry")
    header = f.add_block("header")
    body = f.add_block("body")
    exit_ = f.add_block("exit")
    b = IRBuilder(entry)
    b.br(header)
    b.set_insert_point(header)
    cond = b.icmp("slt", f.args[0], b.const_int(10))
    b.cond_br(cond, body, exit_)
    b.set_insert_point(body)
    b.br(header)
    b.set_insert_point(exit_)
    b.ret()
    return f, entry, header, body, exit_


class TestReachability:
    def test_all_reachable_in_diamond(self):
        f, *blocks = diamond()
        assert set(id(b) for b in reachable_blocks(f)) == \
            set(id(b) for b in blocks)

    def test_rpo_starts_at_entry(self):
        f, entry, *_ = diamond()
        assert reachable_blocks(f)[0] is entry

    def test_unreachable_excluded(self):
        f, *_ = diamond()
        dead = f.add_block("dead")
        b = IRBuilder(dead)
        b.ret()
        assert dead not in reachable_blocks(f)

    def test_rpo_respects_dominance_in_loop(self):
        f, entry, header, body, exit_ = loop()
        rpo = reachable_blocks(f)
        assert rpo.index(entry) < rpo.index(header) < rpo.index(body)


class TestDominators:
    def test_diamond_idoms(self):
        f, entry, left, right, join = diamond()
        dt = DominatorTree(f)
        assert dt.immediate_dominator(left) is entry
        assert dt.immediate_dominator(right) is entry
        assert dt.immediate_dominator(join) is entry
        assert dt.immediate_dominator(entry) is entry

    def test_dominates_is_reflexive_and_transitive(self):
        f, entry, left, right, join = diamond()
        dt = DominatorTree(f)
        assert dt.dominates(entry, join)
        assert dt.dominates(left, left)
        assert not dt.dominates(left, join)
        assert not dt.dominates(join, entry)

    def test_loop_idoms(self):
        f, entry, header, body, exit_ = loop()
        dt = DominatorTree(f)
        assert dt.immediate_dominator(header) is entry
        assert dt.immediate_dominator(body) is header
        assert dt.immediate_dominator(exit_) is header

    def test_children(self):
        f, entry, left, right, join = diamond()
        dt = DominatorTree(f)
        kids = dt.children(entry)
        assert set(id(b) for b in kids) == {id(left), id(right), id(join)}


class TestFrontiers:
    def test_diamond_frontier_is_join(self):
        f, entry, left, right, join = diamond()
        dt = DominatorTree(f)
        frontiers = dt.dominance_frontiers()
        assert frontiers[id(left)] == {id(join)}
        assert frontiers[id(right)] == {id(join)}
        assert frontiers[id(entry)] == set()

    def test_loop_header_in_own_frontier(self):
        f, entry, header, body, exit_ = loop()
        dt = DominatorTree(f)
        frontiers = dt.dominance_frontiers()
        # body's frontier is the header (back edge target)
        assert id(header) in frontiers[id(body)]
        # header dominates itself but sits on its own frontier via the loop
        assert id(header) in frontiers[id(header)]


# -- properties over random CFGs ------------------------------------------------

@st.composite
def cfgs(draw, entry_targets=True):
    """A function of 1-10 blocks with random terminators: ``ret``, ``br``
    or ``cond_br`` to any block, so self-loops, two edges to one target
    and unreachable blocks all occur.  With ``entry_targets=False`` no
    branch targets the entry (a function's entry has no predecessors)."""
    n = draw(st.integers(1, 10))
    lo = 0 if entry_targets else 1
    target = st.integers(lo, n - 1)
    kinds = ["ret", "br", "cond_br"] if lo < n else ["ret"]
    m = Module()
    f = m.add_function("f", ty.FunctionType(ty.VOID, [ty.I32]))
    blocks = [f.add_block(f"b{i}") for i in range(n)]
    for block in blocks:
        b = IRBuilder(block)
        kind = draw(st.sampled_from(kinds))
        if kind == "ret":
            b.ret()
        elif kind == "br":
            b.br(blocks[draw(target)])
        else:
            cond = b.icmp("slt", f.args[0], b.const_int(0))
            b.cond_br(cond, blocks[draw(target)], blocks[draw(target)])
    return f


def naive_predecessors(func):
    """The per-block scan predecessor_map replaces."""
    return {id(block): [b for b in func.blocks if block in b.successors()]
            for block in func.blocks}


def reference_dominators(func):
    """Set-based iterative dataflow over the reachable blocks:
    Dom(entry) = {entry}, Dom(n) = {n} | the meet of Dom(p) over the
    reachable predecessors p of n."""
    reach = {id(b) for b in reachable_blocks(func)}
    preds = naive_predecessors(func)
    blocks = [b for b in func.blocks if id(b) in reach]
    entry = func.entry
    dom = {id(b): set(reach) for b in blocks}
    dom[id(entry)] = {id(entry)}
    changed = True
    while changed:
        changed = False
        for b in blocks:
            if b is entry:
                continue
            new = set(reach)
            for p in preds[id(b)]:
                if id(p) in reach:
                    new &= dom[id(p)]
            new.add(id(b))
            if new != dom[id(b)]:
                dom[id(b)] = new
                changed = True
    return blocks, preds, dom


@given(cfgs())
def test_predecessor_map_equals_naive_scan(func):
    assert predecessor_map(func) == naive_predecessors(func)


@given(cfgs(entry_targets=False))
def test_dominator_tree_equals_dataflow(func):
    blocks, preds, dom = reference_dominators(func)
    dt = DominatorTree(func)
    assert {id(b) for b in dt.rpo} == set(dom)
    for b in blocks:
        strict = dom[id(b)] - {id(b)}
        # The immediate dominator is the strict dominator that all the
        # others dominate; the entry is its own.
        expected = [d for d in strict if dom[d] == strict] or [id(b)]
        assert [id(dt.immediate_dominator(b))] == expected
    # DF(x) = {y : x dominates a predecessor of y, not strictly y}.
    expected_df = {id(b): set() for b in blocks}
    for y in blocks:
        for p in preds[id(y)]:
            if id(p) not in dom:
                continue
            for x in dom[id(p)]:
                if x == id(y) or x not in dom[id(y)]:
                    expected_df[x].add(id(y))
    assert dt.dominance_frontiers() == expected_df
