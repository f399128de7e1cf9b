"""Tests for the libc natives and the cycle cost model."""

import pytest

from repro.errors import MemoryFault
from repro.frontend import compile_source
from repro.ir.parser import parse_module
from repro.vm import VirtualMachine
from repro.vm import costs
from repro.vm.engines import ENGINES


def run(src, max_instructions=2_000_000):
    vm = VirtualMachine(compile_source(src), max_instructions=max_instructions)
    code = vm.run()
    return code, vm.output, vm


class TestLibcSemantics:
    def test_calloc_zeroes(self):
        _, out, _ = run(r"""
        int main() {
            int *a = (int *) calloc(8, sizeof(int));
            long s = 0;
            for (int i = 0; i < 8; i++) s += a[i];
            print_i64(s);
            free((void*)a);
            return 0;
        }""")
        assert out == ["0"]

    def test_realloc_preserves_prefix(self):
        _, out, _ = run(r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 4);
            for (int i = 0; i < 4; i++) a[i] = i + 1;
            a = (int *) realloc((void*)a, sizeof(int) * 8);
            a[7] = 100;
            print_i64(a[0] + a[3] + a[7]);
            free((void*)a);
            return 0;
        }""")
        assert out == ["105"]

    def test_realloc_null_acts_as_malloc(self):
        _, out, _ = run(r"""
        int main() {
            int *a = (int *) realloc(NULL, sizeof(int) * 2);
            a[0] = 3; a[1] = 4;
            print_i64(a[0] * a[1]);
            free((void*)a);
            return 0;
        }""")
        assert out == ["12"]

    def test_memmove_overlapping(self):
        _, out, _ = run(r"""
        int main() {
            char *buf = (char *) malloc(16);
            for (int i = 0; i < 8; i++) buf[i] = (char)(65 + i);
            memmove((void*)(buf + 2), (void*)buf, 8);
            buf[10] = 0;
            print_str(buf);
            return 0;
        }""")
        assert out == ["ABABCDEFGH"]

    def test_strcmp_ordering(self):
        _, out, _ = run(r"""
        int main() {
            print_i64(strcmp("abc", "abc"));
            print_i64(strcmp("abd", "abc") > 0);
            print_i64(strcmp("abb", "abc") != 0);
            return 0;
        }""")
        assert out == ["0", "1", "1"]

    def test_math_builtins(self):
        _, out, _ = run(r"""
        int main() {
            print_f64(sqrt(16.0));
            print_f64(fabs(0.0 - 2.5));
            print_i64(llabs(0 - 42));
            return 0;
        }""")
        assert out == ["4.000000", "2.500000", "42"]

    def test_unterminated_string_guarded(self):
        # strlen over memory with no NUL eventually faults rather than
        # spinning forever
        src = r"""
        int main() {
            char *buf = (char *) malloc(16);
            memset((void*)buf, 65, 16);
            return (int) strlen(buf);
        }"""
        vm = VirtualMachine(compile_source(src))
        with pytest.raises(MemoryFault):
            vm.run()


class TestCostModel:
    def test_check_cost_ordering(self):
        """The paper's Section 5.2 facts, encoded as invariants."""
        # SoftBound's check (Figure 2) is cheaper than Low-Fat's (Fig 5)
        assert costs.call_cost("__sb_check") < costs.call_cost("__lf_check")
        # a trie lookup is dearer than recomputing a low-fat base
        trie = costs.call_cost("__sb_trie_load_base") + costs.call_cost(
            "__sb_trie_load_bound"
        )
        assert trie > costs.call_cost("__lf_compute_base")

    def test_intrinsics_have_no_call_overhead(self):
        assert costs.call_cost("__sb_check") == costs.INTRINSIC_COSTS["__sb_check"]

    def test_wrappers_cost_wrapped_function_plus_overhead(self):
        assert costs.call_cost("__sb_wrap_malloc") > costs.call_cost("malloc") \
            - costs.INSTRUCTION_COSTS["call"]
        assert (
            costs.call_cost("__sb_wrap_memcpy")
            == costs.NATIVE_COSTS["memcpy"]
            + costs.INSTRUCTION_COSTS["call"]
            + costs.SB_WRAPPER_OVERHEAD
        )

    def test_unknown_call_costs_call_overhead(self):
        assert costs.call_cost("user_function") == costs.INSTRUCTION_COSTS["call"]

    def test_bulk_natives_charge_per_byte(self):
        small = run(r"""
        int main() {
            char *a = (char *) malloc(4096);
            memset((void*)a, 0, 16);
            return 0;
        }""")[2].stats.cycles
        large = run(r"""
        int main() {
            char *a = (char *) malloc(4096);
            memset((void*)a, 0, 4096);
            return 0;
        }""")[2].stats.cycles
        assert large > small

    def test_free_casts_are_free(self):
        for op in ("ptrtoint", "inttoptr", "bitcast"):
            assert costs.INSTRUCTION_COSTS[op] == 0

    @pytest.mark.usefixtures("tiering")
    def test_every_charge_reads_the_cost_table(self, monkeypatch):
        # A 16-iteration loop that executes every opcode the engines
        # charge, with no native call (a native's charge also includes
        # the ``call`` entry).  Raising one entry must raise both
        # engines' cycles by that opcode's count times the raise.
        module = parse_module(COST_PROGRAM)

        def stats(engine):
            vm = VirtualMachine(module, engine=engine)
            assert vm.run() == 212
            return vm.stats

        base = {engine: stats(engine) for engine in ENGINES}
        counts = base["interp"].opcode_counts
        assert {"alloca", "br", "call", "condbr", "fcmp", "gep", "icmp",
                "load", "phi", "ret", "select", "store"} <= set(counts)
        for opcode, count in sorted(counts.items()):
            original = costs.INSTRUCTION_COSTS[opcode]
            monkeypatch.setitem(costs.INSTRUCTION_COSTS, opcode, original + 10)
            for engine in ENGINES:
                assert stats(engine).cycles == \
                    base[engine].cycles + 10 * count, (opcode, engine)
            monkeypatch.setitem(costs.INSTRUCTION_COSTS, opcode, original)


COST_PROGRAM = """
define i64 @twice(i64 %x) {
entry:
  %d = add i64 %x, %x
  ret i64 %d
}

define i32 @main() {
entry:
  %a = alloca [16 x i64]
  br %loop
loop:
  %i = phi i64 [0, %entry], [%next, %loop]
  %s = phi i64 [0, %entry], [%sum, %loop]
  %g = gep [16 x i64]* %a, i64 0, i64 %i
  store i64 %i, i64* %g
  %v = load i64, i64* %g
  %f = sitofp i64 %v to f64
  %big = fcmp ogt f64 %f, 7.5
  %t = call i64 @twice(i64 %v)
  %pick = select i1 %big, i64 %t, i64 %v
  %sum = add i64 %s, %pick
  %next = add i64 %i, 1
  %more = icmp slt i64 %next, 16
  br i1 %more, %loop, %done
done:
  %r = trunc i64 %sum to i32
  ret i32 %r
}
"""
