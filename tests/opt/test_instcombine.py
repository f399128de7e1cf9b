"""Tests for InstCombine: constant folding and peepholes.

That every fold computes what both engines compute at run time is
checked per operation in ``tests/vm/test_scalar_semantics.py``.
"""

from repro.frontend import compile_source
from repro.ir import (
    BinOp,
    Cast,
    ConstantInt,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    Module,
    ptr,
    verify_module,
)
from repro.opt import DCE, InstCombine


def _fresh(params=(I64, I64)):
    mod = Module("t")
    fn = mod.add_function("f", FunctionType(I64, list(params)))
    b = IRBuilder(fn.add_block("entry"))
    return mod, fn, b


class TestFolds:
    def test_constant_arithmetic(self):
        mod, fn, b = _fresh(())
        v = b.add(b.const_i64(20), b.const_i64(22))
        b.ret(v)
        InstCombine().run(mod)
        ret = fn.entry.instructions[-1]
        assert isinstance(ret.value, ConstantInt)
        assert ret.value.value == 42

    def test_identities(self):
        mod, fn, b = _fresh()
        x = fn.args[0]
        v = b.add(x, b.const_i64(0))          # x + 0 -> x
        w = b.mul(v, b.const_i64(1))          # x * 1 -> x
        y = b.binop("sub", w, w)              # x - x -> 0
        b.ret(y)
        InstCombine().run(mod)
        DCE().run(mod)
        assert len(fn.entry.instructions) == 1  # just the ret
        ret = fn.entry.instructions[0]
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 0

    def test_mul_zero(self):
        mod, fn, b = _fresh()
        v = b.mul(fn.args[0], b.const_i64(0))
        b.ret(v)
        InstCombine().run(mod)
        ret = fn.entry.instructions[-1]
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 0

    def test_constant_commutes_right(self):
        mod, fn, b = _fresh()
        v = b.add(b.const_i64(5), fn.args[0])
        w = b.add(v, b.const_i64(1))
        b.ret(w)
        InstCombine().run(mod)
        first = fn.entry.instructions[0]
        assert isinstance(first, BinOp)
        assert isinstance(first.rhs, ConstantInt)

    def test_division_by_zero_not_folded(self):
        mod, fn, b = _fresh(())
        v = b.binop("sdiv", b.const_i64(1), b.const_i64(0))
        b.ret(v)
        InstCombine().run(mod)
        assert isinstance(fn.entry.instructions[0], BinOp)  # survives

    def test_inttoptr_of_ptrtoint_folds(self):
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(ptr(I32), [ptr(I32)]))
        b = IRBuilder(fn.add_block("entry"))
        as_int = b.ptrtoint(fn.args[0], I64)
        back = b.inttoptr(as_int, ptr(I32))
        b.ret(back)
        InstCombine().run(mod)
        DCE().run(mod)
        ret = fn.entry.instructions[-1]
        assert ret.value is fn.args[0]

    def test_trunc_of_ext_folds(self):
        mod = Module("t")
        fn = mod.add_function("f", FunctionType(I32, [I32]))
        b = IRBuilder(fn.add_block("entry"))
        wide = b.sext(fn.args[0], I64)
        narrow = b.trunc(wide, I32)
        b.ret(narrow)
        InstCombine().run(mod)
        ret = fn.entry.instructions[-1]
        assert ret.value is fn.args[0]

    def test_select_constant_condition(self):
        mod, fn, b = _fresh()
        from repro.ir import I1

        sel = b.select(ConstantInt(I1, 1), fn.args[0], fn.args[1])
        b.ret(sel)
        InstCombine().run(mod)
        ret = fn.entry.instructions[-1]
        assert ret.value is fn.args[0]

    def test_icmp_same_operand(self):
        mod, fn, b = _fresh()
        c = b.icmp("sle", fn.args[0], fn.args[0])
        v = b.select(c, b.const_i64(1), b.const_i64(2))
        b.ret(v)
        InstCombine().run(mod)
        ret = fn.entry.instructions[-1]
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 1
