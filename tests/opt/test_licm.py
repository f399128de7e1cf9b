"""Tests for loop-invariant code motion."""

from repro.frontend import compile_source
from repro.ir import BinOp, Call, Load, parse_module, verify_module
from repro.opt import GVN, LICM, Mem2Reg, SimplifyCFG
from repro.vm import VirtualMachine
from repro.analysis import LoopInfo
from repro.analysis.cfg import predecessor_map


def prepare(src):
    mod = compile_source(src)
    SimplifyCFG().run(mod)
    Mem2Reg().run(mod)
    return mod


def run(mod, max_instructions=1_000_000):
    vm = VirtualMachine(mod, max_instructions=max_instructions)
    return vm.run(), vm.output


def _in_loop(mod, name, predicate):
    """Instructions matching ``predicate`` inside any loop of fn."""
    fn = mod.get_function(name)
    li = LoopInfo(fn)
    found = []
    for loop in li.all_loops():
        for block in loop.blocks:
            for inst in block.instructions:
                if predicate(inst):
                    found.append(inst)
    return found


class TestHoisting:
    def test_invariant_arithmetic_hoisted(self):
        src = r"""
        long f(long a, long b) {
            long s = 0;
            for (int i = 0; i < 10; i++) s += a * b;
            return s;
        }
        int main() { print_i64(f(6, 7)); return 0; }"""
        mod = prepare(src)
        before = run(prepare(src))
        LICM().run(mod)
        verify_module(mod)
        muls = _in_loop(mod, "f", lambda i: isinstance(i, BinOp) and i.opcode == "mul")
        assert not muls
        assert run(mod) == before == (0, ["420"])

    def test_load_hoisted_from_pure_loop(self):
        # do-while: the body dominates the exit, so the load is
        # guaranteed to execute and may be hoisted.
        src = r"""
        int g = 13;
        long f(int n) {
            long s = 0;
            int i = 0;
            do { s += g; i++; } while (i < n);
            return s;
        }
        int main() { print_i64(f(10)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        verify_module(mod)
        loads = _in_loop(mod, "f", lambda i: isinstance(i, Load))
        assert not loads
        assert run(mod) == (0, ["130"])

    def test_conditional_load_not_hoisted(self):
        # for-loop: the body does not dominate the exit (n could be 0),
        # so the load stays put.
        src = r"""
        int g = 13;
        long f(int n) {
            long s = 0;
            for (int i = 0; i < n; i++) s += g;
            return s;
        }
        int main() { print_i64(f(10)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        verify_module(mod)
        loads = _in_loop(mod, "f", lambda i: isinstance(i, Load))
        assert loads
        assert run(mod) == (0, ["130"])

    def test_load_not_hoisted_when_loop_stores(self):
        src = r"""
        int g = 13; int h;
        long f(int n) {
            long s = 0;
            for (int i = 0; i < n; i++) { h = i; s += g; }
            return s;
        }
        int main() { print_i64(f(10)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        loads = _in_loop(mod, "f", lambda i: isinstance(i, Load))
        assert loads  # may-alias store blocks hoisting

    def test_load_not_hoisted_past_may_abort_call(self):
        """The Section 5.5 mechanism: a possibly-aborting check in the
        loop pins loads inside it."""
        from repro.ir import FunctionType, VOID, I64

        src = r"""
        int g = 13;
        void check(long x);
        long f(int n) {
            long s = 0;
            for (int i = 0; i < n; i++) { check(s); s += g; }
            return s;
        }"""
        mod = prepare(src)
        check = mod.get_function("check")
        check.attributes.update({"mi_check", "may_abort"})
        check.native = True
        LICM().run(mod)
        loads = _in_loop(mod, "f", lambda i: isinstance(i, Load))
        assert loads

    def test_division_needs_guaranteed_execution(self):
        # division in a conditional path must not be hoisted (may trap)
        src = r"""
        long f(long a, long b, int n) {
            long s = 0;
            for (int i = 0; i < n; i++) {
                if (i > 100) s += a / b;   // never executes for n<=100
            }
            return s;
        }
        int main() { long z = 0; print_i64(f(1, z, 10)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        verify_module(mod)
        assert run(mod) == (0, ["0"])  # no spurious division-by-zero

    def test_readnone_call_hoisted(self):
        src = r"""
        long f(long a, int n) {
            long s = 0;
            for (int i = 0; i < n; i++) s += llabs(a);
            return s;
        }
        int main() { print_i64(f(-3, 5)); return 0; }"""
        mod = prepare(src)
        LICM().run(mod)
        verify_module(mod)
        calls = _in_loop(mod, "f", lambda i: isinstance(i, Call))
        assert not calls
        assert run(mod) == (0, ["15"])

    def test_inserted_preheader_keeps_the_predecessor_map_exact(self):
        # The header has two outside predecessors, one of them a
        # conditional branch, and its latch comes first in function
        # order.  After LICM inserts the preheader, the map LoopInfo
        # built and LICM updated equals a fresh one, in function order.
        mod = parse_module("""
define i64 @f(i32 %n, i32 %c, i64 %s) {
entry:
  %p = icmp sgt i32 %c, 0
  br i1 %p, %loop, %other
body:
  %inv = mul i64 %s, 3
  %v8 = add i64 %acc, %inv
  %v10 = add i32 %i, 1
  br %loop
other:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%v10, %body], [1, %other]
  %acc = phi i64 [%s, %entry], [%v8, %body], [0, %other]
  %t = icmp slt i32 %i, %n
  br i1 %t, %body, %exit
exit:
  ret i64 %acc
}
""")
        fn = mod.get_function("f")
        seen = []
        ensure = LICM._ensure_preheader

        def recording(self, fn, loop):
            preheader = ensure(self, fn, loop)
            seen.append(dict(loop.preds) == predecessor_map(fn))
            return preheader

        licm = LICM()
        licm._ensure_preheader = recording.__get__(licm)
        assert licm.run_on_function(fn)
        verify_module(mod)
        assert seen == [True]
        names = [b.name for b in fn.blocks]
        assert names[names.index("loop") - 1].startswith("preheader")
        assert [b.name for b in predecessor_map(fn)[fn.blocks[4]]] == \
            ["body", names[3]]

    def test_preheader_created_and_phis_fixed(self):
        src = r"""
        long f(int n, int start) {
            long s = start;
            int i = 0;
            while (i < n) { s += i; i++; }
            return s;
        }
        int main() { print_i64(f(5, 100)); return 0; }"""
        mod = prepare(src)
        before = run(prepare(src))
        LICM().run(mod)
        verify_module(mod)
        assert run(mod) == before == (0, ["110"])
