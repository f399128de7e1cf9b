"""Floating-point comparison semantics: the full LLVM predicate set.

``fcmp`` has 14 predicates with precise NaN behaviour: *ordered*
predicates (``o??``) are false whenever either operand is NaN,
*unordered* ones (``u??``) are true.  Historically only the six
ordered predicates existed, so every test here runs against an
independent reference implementation (not ``FCMP_EVAL`` itself) on
both execution engines, plus through the MiniC frontend and the
constant folder.
"""

import math

import pytest

from repro.driver import compile_and_run, NOOP
from repro.frontend import compile_source
from repro.ir import (
    ConstantFloat,
    F64,
    FunctionType,
    I32,
    IRBuilder,
    Module,
)
from repro.ir.instructions import FCMP_PREDICATES
from repro.ir.semantics import FCMP_EVAL
from repro.vm import VirtualMachine
from repro.vm.engines import ENGINES

NAN = float("nan")
INF = float("inf")
OPERANDS = [NAN, INF, -INF, -0.0, 0.0, 1.5, -2.5]
PREDICATES = sorted(FCMP_PREDICATES)


#: The programs here are small enough to run on the tree-walker under
#: the codegen engine's tiering: emit every function at its first call.
pytestmark = pytest.mark.usefixtures("emit_all")


def reference(pred: str, a: float, b: float) -> int:
    """LLVM LangRef semantics, written independently of FCMP_EVAL."""
    unordered = math.isnan(a) or math.isnan(b)
    if pred == "ord":
        return int(not unordered)
    if pred == "uno":
        return int(unordered)
    relation = {
        "eq": a == b, "ne": a != b,
        "lt": a < b, "le": a <= b,
        "gt": a > b, "ge": a >= b,
    }[pred[1:]]
    if pred.startswith("o"):
        return int(not unordered and relation)
    return int(unordered or relation)


def _fcmp_module(pred: str, a: float, b: float,
                 through_memory: bool) -> Module:
    """``main`` returning ``zext(fcmp pred a, b)``.

    ``through_memory`` routes the operands through an alloca so they
    reach the fcmp as register values rather than folded constants --
    exercising the codegen engine's inlined comparison expressions too.
    """
    mod = Module("fcmp")
    fn = mod.add_function("main", FunctionType(I32, []), [])
    builder = IRBuilder(fn.add_block("entry"))
    lhs, rhs = ConstantFloat(F64, a), ConstantFloat(F64, b)
    if through_memory:
        slot = builder.alloca(F64)
        builder.store(lhs, slot)
        lhs = builder.load(slot)
        builder.store(rhs, slot)
        rhs = builder.load(slot)
    cmp = builder.fcmp(pred, lhs, rhs)
    builder.ret(builder.zext(cmp, I32))
    return mod


class TestPredicateTable:
    def test_eval_table_is_complete(self):
        assert set(FCMP_EVAL) == FCMP_PREDICATES
        assert len(FCMP_PREDICATES) == 14

    @pytest.mark.parametrize("pred", PREDICATES)
    def test_eval_matches_reference(self, pred):
        for a in OPERANDS:
            for b in OPERANDS:
                assert FCMP_EVAL[pred](a, b) == reference(pred, a, b), \
                    f"fcmp {pred} {a}, {b}"


class TestBothEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("pred", PREDICATES)
    def test_all_predicates_all_operands(self, engine, pred):
        for through_memory in (False, True):
            for a in OPERANDS:
                for b in OPERANDS:
                    mod = _fcmp_module(pred, a, b, through_memory)
                    vm = VirtualMachine(mod, engine=engine)
                    assert vm.run() == reference(pred, a, b), (
                        f"fcmp {pred} {a}, {b} "
                        f"(memory={through_memory}, engine={engine})")


class TestMiniCNaNSemantics:
    # inf - inf is a NaN that no fold sees: ``mk`` reads its operand
    # back from memory.
    NAN_PROLOGUE = r"""
    double mk(double a, double b) { double c[1]; c[0] = a; return c[0] - b; }
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nan_is_truthy(self, engine):
        result = compile_and_run({"t.c": self.NAN_PROLOGUE + r"""
        int main() {
          double i = 1.0 / 0.0;
          double n = mk(i, i);
          if (n) { return 1; }
          return 0;
        }"""}, NOOP, engine=engine)
        assert result.exit_code == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_not_equal_is_unordered(self, engine):
        result = compile_and_run({"t.c": self.NAN_PROLOGUE + r"""
        int main() {
          double i = 1.0 / 0.0;
          double n = mk(i, i);
          int r = 0;
          if (n != n) { r = r + 1; }    /* une: true on NaN */
          if (n == n) { r = r + 10; }   /* oeq: false on NaN */
          if (n < 1.0) { r = r + 100; } /* olt: false on NaN */
          return r;
        }"""}, NOOP, engine=engine)
        assert result.exit_code == 1

    def test_folded_nan_comparisons_match_runtime(self):
        # Same program with the NaN visible to the constant folder:
        # instcombine's fcmp fold must agree with runtime evaluation
        # (it used to KeyError on any unordered predicate).
        folded = compile_and_run({"t.c": r"""
        int main() {
          double i = 1.0 / 0.0;
          double n = i - i;
          int r = 0;
          if (n != n) { r = r + 1; }
          if (n == n) { r = r + 10; }
          if (n) { r = r + 100; }
          return r;
        }"""}, NOOP)
        assert folded.exit_code == 101


class TestUnorderedInFrontendIR:
    def test_float_truthiness_emits_une(self):
        mod = compile_source(r"""
        int main() { double x = 0.5; if (x) { return 1; } return 0; }
        """)
        predicates = [
            inst.predicate
            for fn in mod.functions.values()
            for block in fn.blocks
            for inst in block.instructions
            if inst.opcode == "fcmp"
        ]
        assert "une" in predicates
