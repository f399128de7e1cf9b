"""Tests for dominator tree construction."""

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    DominatorTree,
    LoopInfo,
    predecessor_map,
    reachable_blocks,
    reverse_postorder,
)
from repro.ir import (
    Br,
    CondBr,
    ConstantInt,
    FunctionType,
    I1,
    I32,
    IRBuilder,
    Module,
    Ret,
    Unreachable,
)


def _diamond():
    """entry -> {left, right} -> merge"""
    mod = Module("t")
    fn = mod.add_function("f", FunctionType(I32, [I1]), ["c"])
    entry = fn.add_block("entry")
    left = fn.add_block("left")
    right = fn.add_block("right")
    merge = fn.add_block("merge")
    b = IRBuilder(entry)
    b.cond_br(fn.args[0], left, right)
    b.position_at_end(left)
    b.br(merge)
    b.position_at_end(right)
    b.br(merge)
    b.position_at_end(merge)
    b.ret(b.const_i32(0))
    return fn, entry, left, right, merge


def _loop():
    """entry -> header <-> body; header -> exit"""
    mod = Module("t")
    fn = mod.add_function("f", FunctionType(I32, [I1]), ["c"])
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    b.cond_br(fn.args[0], body, exit_)
    b.position_at_end(body)
    b.br(header)
    b.position_at_end(exit_)
    b.ret(b.const_i32(0))
    return fn, entry, header, body, exit_


class TestDiamond:
    def test_idoms(self):
        fn, entry, left, right, merge = _diamond()
        dt = DominatorTree(fn)
        assert dt.idom[entry] is None
        assert dt.idom[left] is entry
        assert dt.idom[right] is entry
        assert dt.idom[merge] is entry  # neither branch dominates merge

    def test_dominates_block(self):
        fn, entry, left, right, merge = _diamond()
        dt = DominatorTree(fn)
        assert dt.dominates_block(entry, merge)
        assert not dt.dominates_block(left, merge)
        assert dt.dominates_block(left, left)
        assert not dt.strictly_dominates_block(left, left)

    def test_instruction_dominance_within_block(self):
        fn, entry, *_ = _diamond()
        dt = DominatorTree(fn)
        first = entry.instructions[0]
        # a single terminator: add another instruction before it
        b = IRBuilder(entry)
        b.position_before(first)
        v = b.add(b.const_i32(1), b.const_i32(2))
        assert dt.dominates(v, first)
        assert not dt.dominates(first, v)


class TestLoop:
    def test_header_dominates_body(self):
        fn, entry, header, body, exit_ = _loop()
        dt = DominatorTree(fn)
        assert dt.dominates_block(header, body)
        assert dt.dominates_block(header, exit_)
        assert not dt.dominates_block(body, exit_)

    def test_loop_detection(self):
        fn, entry, header, body, exit_ = _loop()
        li = LoopInfo(fn)
        assert len(li.loops) == 1
        loop = li.loops[0]
        assert loop.header is header
        assert body in loop.blocks
        assert exit_ not in loop.blocks
        assert li.loop_depth(body) == 1
        assert li.loop_depth(exit_) == 0
        assert loop.exit_blocks() == [exit_]
        assert loop.preheader() is entry

    def test_nested_loops(self):
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(I32, [I1]), ["c"])
        entry = fn.add_block("entry")
        outer = fn.add_block("outer")
        inner = fn.add_block("inner")
        latch = fn.add_block("latch")
        done = fn.add_block("done")
        b = IRBuilder(entry)
        b.br(outer)
        b.position_at_end(outer)
        b.br(inner)
        b.position_at_end(inner)
        b.cond_br(fn.args[0], inner, latch)   # inner self-loop
        b.position_at_end(latch)
        b.cond_br(fn.args[0], outer, done)    # outer back edge
        b.position_at_end(done)
        b.ret(b.const_i32(0))
        li = LoopInfo(fn)
        assert len(li.loops) == 1
        outer_loop = li.loops[0]
        assert len(outer_loop.subloops) == 1
        assert outer_loop.subloops[0].header is inner
        assert li.loop_depth(inner) == 2
        assert li.loop_depth(latch) == 1


class TestRandomCFGs:
    """Property tests over randomly generated CFGs."""

    @staticmethod
    def _build_cfg(edges, nblocks, degenerate=False):
        """One block per index; ``degenerate`` keeps a ``condbr`` whose
        two edges name the same block."""
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(I32, [I1]), ["c"])
        blocks = [fn.add_block(f"b{i}") for i in range(nblocks)]
        for i, block in enumerate(blocks):
            succs = [t % nblocks for t in edges.get(i, [])]
            if not degenerate:
                succs = sorted(set(succs))
            if not succs:
                block.append(Ret(ConstantInt(I32, 0)))
            elif len(succs) == 1:
                block.append(Br(blocks[succs[0]]))
            else:
                block.append(CondBr(fn.args[0], blocks[succs[0]], blocks[succs[1]]))
        return fn, blocks

    @given(
        st.dictionaries(
            st.integers(0, 7),
            st.lists(st.integers(0, 7), min_size=1, max_size=2),
            max_size=8,
        ),
        st.integers(2, 8),
    )
    @settings(max_examples=100)
    def test_entry_dominates_all_reachable(self, edges, nblocks):
        fn, blocks = self._build_cfg(edges, nblocks)
        dt = DominatorTree(fn)
        for block in reachable_blocks(fn):
            assert dt.dominates_block(fn.entry, block)

    @given(
        st.dictionaries(
            st.integers(0, 7),
            st.lists(st.integers(0, 7), min_size=1, max_size=2),
            max_size=8,
        ),
        st.integers(2, 8),
    )
    @settings(max_examples=100)
    def test_idom_is_strict_dominator(self, edges, nblocks):
        fn, blocks = self._build_cfg(edges, nblocks)
        dt = DominatorTree(fn)
        for block in reachable_blocks(fn):
            idom = dt.idom.get(block)
            if idom is not None:
                assert dt.strictly_dominates_block(idom, block)

    @given(
        st.dictionaries(
            st.integers(0, 7),
            st.lists(st.integers(0, 7), min_size=1, max_size=2),
            max_size=8,
        ),
        st.integers(2, 8),
    )
    @settings(max_examples=100)
    def test_rpo_covers_reachable_blocks(self, edges, nblocks):
        fn, blocks = self._build_cfg(edges, nblocks)
        rpo = reverse_postorder(fn)
        assert set(rpo) == reachable_blocks(fn)
        assert rpo[0] is fn.entry

    @given(
        st.dictionaries(
            st.integers(0, 7),
            st.lists(st.integers(0, 7), min_size=1, max_size=2),
            max_size=8,
        ),
        st.integers(2, 8),
        st.booleans(),
    )
    @settings(max_examples=100)
    def test_predecessor_map_matches_property(self, edges, nblocks,
                                              degenerate):
        fn, blocks = self._build_cfg(edges, nblocks, degenerate)
        preds = predecessor_map(fn)
        for block in blocks:
            assert preds[block] == block.predecessors
