"""Tests for induction-variable analysis and natural-loop structure.

Covers the counted-loop recognizer and affine pointer decomposition
behind ``-mi-opt-hoist``, plus regression tests for nested and
multi-backedge (shared-header) CFGs in :mod:`repro.analysis.loops`.
"""

from repro.analysis import DominatorTree, LoopInfo
from repro.analysis.induction import (
    AffinePointer,
    _affine_int,
    affine_pointer,
    analyze_counted_loop,
    extent_bytes,
)
from repro.analysis.ranges import FunctionRangeAnalysis
from repro.frontend import compile_source
from repro.ir import (
    FunctionType,
    I1,
    I32,
    I64,
    IRBuilder,
    Module,
    PointerType,
)
from repro.opt import Mem2Reg, SimplifyCFG


def _fn(src, name):
    mod = compile_source(src)
    SimplifyCFG().run(mod)
    Mem2Reg().run(mod)
    return mod.get_function(name)


def _counted_loops(fn):
    domtree = DominatorTree(fn)
    loopinfo = LoopInfo(fn, domtree)
    analysis = FunctionRangeAnalysis(fn)
    out = []
    for loop in loopinfo.all_loops():
        counted = analyze_counted_loop(loop, domtree, analysis)
        if counted is not None:
            out.append((counted, domtree))
    return out


class TestCountedLoopRecognition:
    def test_canonical_upward_loop(self):
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i < 16; i++) s = s + a[i];
            return s;
        }""", "f")
        [(counted, _)] = _counted_loops(fn)
        assert counted.init == 0
        assert counted.step == 1
        assert counted.predicate == "slt"
        assert counted.static_last == 15
        assert counted.static_trip_count() == 16

    def test_inclusive_bound_and_wide_step(self):
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 2; i <= 14; i = i + 3) s = s + a[i];
            return s;
        }""", "f")
        [(counted, _)] = _counted_loops(fn)
        assert (counted.init, counted.step) == (2, 3)
        assert counted.static_last == 14  # 2, 5, 8, 11, 14
        assert counted.static_trip_count() == 5

    def test_unknown_bound_rejected_without_min_trip_proof(self):
        # n could be <= 0: a zero-trip loop has no first access, so the
        # widened preheader check would be a false abort.
        fn = _fn(r"""
        int f(int *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s = s + a[i];
            return s;
        }""", "f")
        assert _counted_loops(fn) == []

    def test_guarded_unknown_bound_accepted(self):
        # The dominating n > 0 guard proves at least one iteration; the
        # trip count is dynamic (static_last is None).
        fn = _fn(r"""
        int f(int *a, int n) {
            int s = 0;
            if (n > 0) {
                for (int i = 0; i < n; i++) s = s + a[i];
            }
            return s;
        }""", "f")
        [(counted, _)] = _counted_loops(fn)
        assert counted.static_last is None
        assert counted.predicate == "slt"

    def test_call_in_body_rejected(self):
        # g may abort (or not return): iterations after the call are
        # not guaranteed to execute, so the extent argument fails.
        fn = _fn(r"""
        int g(int x);
        int f(int *a) {
            int s = 0;
            for (int i = 0; i < 16; i++) s = s + g(a[i]);
            return s;
        }""", "f")
        assert _counted_loops(fn) == []

    def test_counted_nest_accepts_both_levels(self):
        # The inner loop provably terminates, so the outer loop of the
        # nest is counted too (checks hoisted from it must then live in
        # the outer loop proper -- the filter's obligation).
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i < 4; i++) {
                for (int j = 0; j < 4; j++) {
                    s = s + a[i * 4 + j];
                }
            }
            return s;
        }""", "f")
        counted = _counted_loops(fn)
        assert sorted(c.loop.depth for c, _ in counted) == [1, 2]

    def test_unbounded_subloop_rejects_outer(self):
        # The inner while-loop's bound varies inside it, so it has no
        # termination proof and the outer loop must not be counted.
        fn = _fn(r"""
        int f(int *a, int n) {
            int s = 0;
            for (int i = 0; i < 4; i++) {
                int j = 0;
                while (j < n) {
                    s = s + a[j];
                    n = n - 1;
                }
                s = s + a[i];
            }
            return s;
        }""", "f")
        counted = _counted_loops(fn)
        assert all(c.loop.depth != 1 for c, _ in counted)


class TestAffineDecomposition:
    def test_array_index_slope(self):
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i < 16; i++) s = s + a[i + 2];
            return s;
        }""", "f")
        [(counted, domtree)] = _counted_loops(fn)
        loads = [t for b in counted.loop.block_order
                 for t in b.instructions if t.opcode == "load"]
        aff = affine_pointer(loads[0].pointer, counted.iv,
                             counted.preheader.terminator, domtree,
                             counted.iv_range())
        assert isinstance(aff, AffinePointer)
        assert aff.slope == 4          # int stride
        assert aff.intercept == 8      # + 2 elements
        assert extent_bytes(aff, counted, 4) == (8, 8 + 15 * 4 + 4)

    def test_loop_invariant_pointer_has_zero_slope(self):
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i < 8; i++) s = s + a[3];
            return s;
        }""", "f")
        [(counted, domtree)] = _counted_loops(fn)
        loads = [t for b in counted.loop.block_order
                 for t in b.instructions if t.opcode == "load"]
        aff = affine_pointer(loads[0].pointer, counted.iv,
                             counted.preheader.terminator, domtree,
                             counted.iv_range())
        assert aff is not None and aff.slope == 0 and aff.intercept == 12


# ---------------------------------------------------------------------
# loops.py structure regressions (nested and multi-backedge CFGs)
# ---------------------------------------------------------------------


def _new_fn():
    mod = Module("t")
    return mod.add_function("f", FunctionType(I32, [I1, I1]), ["c", "d"])


class TestNestedLoops:
    def test_two_level_nest_attribution(self):
        # entry -> outer <-> (inner <-> inner.body); inner -> latch -> outer
        fn = _new_fn()
        entry = fn.add_block("entry")
        outer = fn.add_block("outer")
        inner = fn.add_block("inner")
        ibody = fn.add_block("ibody")
        latch = fn.add_block("latch")
        exit_ = fn.add_block("exit")
        b = IRBuilder(entry)
        b.br(outer)
        b.position_at_end(outer)
        b.cond_br(fn.args[0], inner, exit_)
        b.position_at_end(inner)
        b.cond_br(fn.args[1], ibody, latch)
        b.position_at_end(ibody)
        b.br(inner)
        b.position_at_end(latch)
        b.br(outer)
        b.position_at_end(exit_)
        b.ret(b.const_i32(0))

        li = LoopInfo(fn)
        assert len(li.loops) == 1            # one top-level loop
        outer_loop = li.loops[0]
        assert outer_loop.header is outer
        assert len(outer_loop.subloops) == 1
        inner_loop = outer_loop.subloops[0]
        assert inner_loop.header is inner
        assert inner_loop.parent is outer_loop
        # Inner body blocks belong to the *inner* loop.
        assert li.loop_of(ibody) is inner_loop
        assert li.loop_of(inner) is inner_loop
        # Outer-only blocks stay with the outer loop.
        assert li.loop_of(latch) is outer_loop
        assert li.loop_of(outer) is outer_loop
        assert li.loop_depth(ibody) == 2
        assert li.loop_depth(latch) == 1
        # The outer body contains the whole inner loop.
        assert inner_loop.blocks < outer_loop.blocks

    def test_triple_nest_from_source(self):
        fn = _fn(r"""
        int f() {
            int s = 0;
            for (int i = 0; i < 2; i++)
                for (int j = 0; j < 2; j++)
                    for (int k = 0; k < 2; k++)
                        s = s + 1;
            return s;
        }""", "f")
        li = LoopInfo(fn)
        depths = sorted(loop.depth for loop in li.all_loops())
        assert depths == [1, 2, 3]
        parents = {loop.depth: loop for loop in li.all_loops()}
        assert parents[3].parent is parents[2]
        assert parents[2].parent is parents[1]
        assert parents[1].parent is None


class TestMultiBackedgeLoops:
    def test_shared_header_is_one_loop(self):
        # Two back edges to the same header (a "continue"): one loop
        # with two latches, not two loops.
        fn = _new_fn()
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        body = fn.add_block("body")
        cont = fn.add_block("cont")
        tail = fn.add_block("tail")
        exit_ = fn.add_block("exit")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        b.cond_br(fn.args[0], body, exit_)
        b.position_at_end(body)
        b.cond_br(fn.args[1], cont, tail)
        b.position_at_end(cont)
        b.br(header)                       # continue back edge
        b.position_at_end(tail)
        b.br(header)                       # normal back edge
        b.position_at_end(exit_)
        b.ret(b.const_i32(0))

        li = LoopInfo(fn)
        assert len(li.loops) == 1
        loop = li.loops[0]
        assert loop.header is header
        assert set(loop.latches) == {cont, tail}
        assert loop.blocks == {header, body, cont, tail}
        # Deterministic orderings: RPO, header first.
        assert loop.block_order[0] is header
        assert loop.block_order == [header, body, tail, cont]  # RPO

    def test_continue_loop_from_source(self):
        fn = _fn(r"""
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i == 3) continue;
                s = s + i;
            }
            return s;
        }""", "f")
        li = LoopInfo(fn)
        assert len(li.all_loops()) == 1
        assert li.all_loops()[0].subloops == []


# ---------------------------------------------------------------------
# Wrap soundness: the VM's arithmetic is fixed-width, so the affine
# model must reject anything that could wrap (REVIEW regression).
# ---------------------------------------------------------------------


class TestWrapSoundness:
    def test_narrow_mul_that_wraps_rejected(self):
        # i * 2**28 wraps i32 from i == 8 on: the executed (wrapped)
        # address diverges from the affine model, so the pointer must
        # not decompose.
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i < 16; i++) s = s + a[i * 268435456];
            return s;
        }""", "f")
        [(counted, domtree)] = _counted_loops(fn)
        loads = [t for b in counted.loop.block_order
                 for t in b.instructions if t.opcode == "load"]
        assert affine_pointer(loads[0].pointer, counted.iv,
                              counted.preheader.terminator, domtree,
                              counted.iv_range()) is None

    def test_narrow_mul_in_range_accepted(self):
        # The same shape with a harmless factor still decomposes.
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i < 16; i++) s = s + a[i * 4];
            return s;
        }""", "f")
        [(counted, domtree)] = _counted_loops(fn)
        loads = [t for b in counted.loop.block_order
                 for t in b.instructions if t.opcode == "load"]
        aff = affine_pointer(loads[0].pointer, counted.iv,
                             counted.preheader.terminator, domtree,
                             counted.iv_range())
        assert aff is not None and aff.slope == 16

    def test_narrow_add_overflow_depends_on_iv_range(self):
        # i + 2 fits i32 for small IV ranges but wraps when the range
        # analysis cannot exclude IV values near INT_MAX.
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(I32, [I32]), ["n"])
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        i = b.phi(I32, "i")
        t = b.add(i, b.const_i32(2))
        b.ret(b.const_i32(0))
        assert _affine_int(t, i, (0, 15)) == (1, 2)
        assert _affine_int(t, i, (0, (1 << 31) - 2)) is None

    def test_zext_requires_proven_nonnegative(self):
        # zext of a negative i32 is not value-preserving: the i64
        # index becomes a huge positive number while the model stays
        # negative.  Only a range proof of non-negativity admits it.
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(I32, [I32]), ["n"])
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        i = b.phi(I32, "i")
        t = b.sub(i, b.const_i32(1))
        z = b.zext(t, I64)
        s = b.sext(t, I64)
        b.ret(b.const_i32(0))
        assert _affine_int(z, i, (0, 15)) is None      # i=0 -> -1
        assert _affine_int(z, i, (1, 15)) == (1, -1)   # proven >= 0
        assert _affine_int(s, i, (0, 15)) == (1, -1)   # sext always ok

    def test_shl_wider_than_type_rejected(self):
        # The VM shifts by rhs % bits, so an i32 shl by 32+ means
        # something else entirely.
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(I32, [I32]), ["n"])
        entry = fn.add_block("entry")
        b = IRBuilder(entry)
        i = b.phi(I32, "i")
        good = b.shl(i, b.const_i32(2))
        bad = b.shl(i, b.const_i32(32))
        b.ret(b.const_i32(0))
        assert _affine_int(good, i, (0, 15)) == (4, 0)
        assert _affine_int(bad, i, (0, 15)) is None

    def test_iv_increment_that_wraps_rejected(self):
        # i <= INT_MAX never exits: the increment wraps and the IV
        # stays <= bound forever.  The recognizer must refuse it.
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i <= 2147483647; i++) s = s + a[0];
            return s;
        }""", "f")
        assert _counted_loops(fn) == []


# ---------------------------------------------------------------------
# Termination prover: ne-predicate subloops need an init <= bound
# proof (REVIEW regression).
# ---------------------------------------------------------------------


class TestTerminationProver:
    def test_ne_subloop_without_init_proof_rejects_outer(self):
        # j starts at a runtime value: j > 7 would spin ~2**32
        # iterations before the wrapped IV comes back to the bound, so
        # the subloop has no termination proof and the outer loop must
        # not be counted (hoisting from it could abort a run the
        # baseline never completes).
        fn = _fn(r"""
        int f(int *a, int n) {
            int s = 0;
            for (int i = 0; i < 4; i++) {
                int j = n;
                while (j != 7) { s = s + a[0]; j = j + 1; }
                s = s + a[i];
            }
            return s;
        }""", "f")
        counted = _counted_loops(fn)
        assert all(c.loop.depth != 1 for c, _ in counted)

    def test_ne_subloop_with_proven_init_accepted(self):
        # With a constant init at or below the bound, step-1 ne hits
        # the bound exactly: the subloop terminates and the outer loop
        # is counted again.
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i < 4; i++) {
                int j = 0;
                while (j != 7) { s = s + a[0]; j = j + 1; }
                s = s + a[i];
            }
            return s;
        }""", "f")
        counted = _counted_loops(fn)
        assert any(c.loop.depth == 1 for c, _ in counted)


class TestNeNeedsStepOne:
    """An ``!=`` exit test only stops a step-1 IV for sure: a larger
    step can jump over the bound and run until the IV wraps.  The
    recognizer and the termination prover share this rule."""

    def test_ne_loop_with_step_two_not_counted(self):
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i != 8; i = i + 2) s = s + a[i];
            return s;
        }""", "f")
        assert _counted_loops(fn) == []

    def test_ne_subloop_with_step_two_rejects_both_levels(self):
        # Without a termination proof for the inner loop the outer loop
        # is not counted either.
        fn = _fn(r"""
        int f(int *a) {
            int s = 0;
            for (int i = 0; i < 4; i++) {
                int j = 0;
                while (j != 8) { s = s + a[j]; j = j + 2; }
                s = s + a[i];
            }
            return s;
        }""", "f")
        assert _counted_loops(fn) == []


# ---------------------------------------------------------------------
# Header-resident accesses: the header runs trip_count + 1 times, so
# its hull is one step wider (REVIEW regression).
# ---------------------------------------------------------------------


def _rotated_loop_fn(bound):
    """A compare-on-phi single-block loop: the store runs once per
    header entry, including the final one with iv == bound."""
    mod = Module("rot")
    fn = mod.add_function("f", FunctionType(I32, [PointerType(I32)]), ["p"])
    entry = fn.add_block("entry")
    loop = fn.add_block("loop")
    exit_ = fn.add_block("exit")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I32, "i")
    idx = b.sext(i, I64)
    slot = b.gep(fn.args[0], [idx], "slot")
    b.store(i, slot)
    inext = b.add(i, b.const_i32(1), "inext")
    cmp = b.icmp("slt", i, b.const_i32(bound), "cmp")
    b.cond_br(cmp, loop, exit_)
    i.add_incoming(b.const_i32(0), entry)
    i.add_incoming(inext, loop)
    b.position_at_end(exit_)
    b.ret(b.const_i32(0))
    return fn


class TestHeaderResidentHull:
    def test_single_block_loop_recognized(self):
        fn = _rotated_loop_fn(8)
        [(counted, _)] = _counted_loops(fn)
        assert counted.loop.header is counted.latch
        assert counted.static_last == 7
        assert counted.iv_range() == (0, 7)
        # The header also executes with iv == last + step == 8.
        assert counted.iv_range(header_resident=True) == (0, 8)

    def test_header_extent_one_step_wider(self):
        fn = _rotated_loop_fn(8)
        [(counted, domtree)] = _counted_loops(fn)
        store = next(t for t in counted.loop.header.instructions
                     if t.opcode == "store")
        aff = affine_pointer(store.pointer, counted.iv,
                             counted.preheader.terminator, domtree,
                             counted.iv_range(header_resident=True))
        assert aff is not None and aff.slope == 4 and aff.intercept == 0
        # Body hull would be bytes [0, 32); the header access also
        # touches a[8], bytes 32..36.
        assert extent_bytes(aff, counted, 4) == (0, 32)
        assert extent_bytes(aff, counted, 4, header_resident=True) == (0, 36)
