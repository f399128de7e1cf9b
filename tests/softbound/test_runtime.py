"""Tests for the SoftBound runtime natives and wrappers on the VM."""

import dataclasses

import pytest

from repro import CompileOptions, compile_program, run_program
from repro.core import InstrumentationConfig
from repro.core.sb_mechanism import SoftBoundMechanism
from repro.driver import make_vm
from repro.errors import MemSafetyViolation
from repro.ir import FunctionType, I64, IRBuilder, Module, VOID
from repro.softbound import SoftBoundRuntime
from repro.vm import VirtualMachine
from repro.vm.engines import ENGINES

SB = InstrumentationConfig.softbound()
OPTS = CompileOptions(verify=True)


def run_sb(src, config=SB, **kw):
    return run_program(compile_program(src, config, OPTS),
                       max_instructions=2_000_000, **kw)


class TestMallocWrapper:
    def test_bounds_published_via_return_slot(self):
        result = run_sb(r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 4);
            a[3] = 1;       // last valid slot
            print_i64(a[3]);
            free((void*)a);
            return 0;
        }""")
        assert result.ok and result.output == ["1"]
        assert result.stats.checks_wide == 0  # exact bounds known

    def test_exact_bound_enforced(self):
        result = run_sb(r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 4);
            a[4] = 1;       // one past: SoftBound uses exact bounds
            return 0;
        }""")
        assert result.violation is not None
        assert result.violation.kind == "deref"

    def test_calloc_and_realloc_bounds(self):
        result = run_sb(r"""
        int main() {
            int *a = (int *) calloc(4, sizeof(int));
            a[3] = 7;
            a = (int *) realloc((void*)a, sizeof(int) * 8);
            a[7] = 9;       // new bound honoured
            print_i64(a[3] + a[7]);
            free((void*)a);
            return 0;
        }""")
        assert result.ok and result.output == ["16"]

    def test_realloc_shrink_rejects_old_range(self):
        result = run_sb(r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            a = (int *) realloc((void*)a, sizeof(int) * 2);
            a[5] = 1;       // beyond the shrunk bound
            return 0;
        }""")
        assert result.violation is not None


class TestMemcpyWrapper:
    def test_metadata_copied_with_pointers(self):
        result = run_sb(r"""
        int main() {
            int x = 5;
            int *src[2];
            int *dst[2];
            src[0] = &x; src[1] = &x;
            memcpy((void*)dst, (void*)src, sizeof(int*) * 2);
            print_i64(*dst[0] + *dst[1]);
            return 0;
        }""")
        assert result.ok and result.output == ["10"]

    def test_wrapper_checks_disabled_by_default(self):
        # Paper Section 5.1.2: wrapper checks are off for comparability;
        # an oversized memcpy corrupts/faults but is not *reported*.
        result = run_sb(r"""
        int main() {
            char *a = (char *) malloc(8);
            char *b = (char *) malloc(8);
            memcpy((void*)a, (void*)b, 64);
            return 0;
        }""")
        assert result.violation is None     # no wrapper report
        assert result.fault is not None      # the guard gap catches it

    def test_wrapper_checks_enabled(self):
        config = SB.with_(sb_wrapper_checks=True)
        result = run_sb(r"""
        int main() {
            char *a = (char *) malloc(8);
            char *b = (char *) malloc(8);
            memcpy((void*)a, (void*)b, 64);
            return 0;
        }""", config=config)
        assert result.violation is not None
        assert result.violation.kind == "wrapper"


class TestMissingMetadataPolicy:
    SRC = r"""
    int main() {
        long raw[1];
        raw[0] = 0;
        int **as_pp = (int **) raw;
        int x = 5;
        // store the pointer through the integer view: no trie update
        long addr = (long) &x;
        raw[0] = addr;
        int *p = as_pp[0];      // pointer load: trie miss
        print_i64(*p);
        return 0;
    }"""

    def test_null_bounds_report(self):
        result = run_sb(self.SRC)
        assert result.violation is not None   # missing metadata -> NULL

    def test_wide_bounds_tolerate(self):
        tolerant = SB.with_(sb_missing_metadata_wide=True)
        result = run_sb(self.SRC, config=tolerant)
        assert result.ok
        assert result.output == ["5"]
        assert result.stats.checks_wide > 0


class TestShadowStackAcrossCalls:
    def test_callee_checks_with_caller_bounds(self):
        result = run_sb(r"""
        void poke(int *p, int i) { p[i] = 1; }
        int main() {
            int *a = (int *) malloc(sizeof(int) * 4);
            poke(a, 3);     // fine
            poke(a, 6);     // OOB inside the callee
            return 0;
        }""")
        assert result.violation is not None
        assert result.violation.kind == "deref"

    def test_returned_pointer_bounds_propagate(self):
        result = run_sb(r"""
        int *make() { return (int *) malloc(sizeof(int) * 2); }
        int main() {
            int *p = make();
            p[1] = 1;       // ok
            p[2] = 2;       // past the bound the callee published
            return 0;
        }""")
        assert result.violation is not None


def _stale_slot_module() -> Module:
    """Shadow-stack traffic no MiniC program makes: ``main`` reads
    slots and the return slot with no frame pushed, then calls
    ``callee`` after pushing one slot of two; ``callee`` reads the slot
    its caller never pushed (stale, left by an earlier, wider frame),
    one past every slot (wide), and writes past its frame (dropped)."""
    mod = Module("stale")
    natives = {}
    for name, (fnty, _) in SoftBoundMechanism.runtime.items():
        natives[name] = mod.get_or_declare_function(name, fnty)
        natives[name].native = True
    print_fn = mod.get_or_declare_function(
        "print_i64", FunctionType(VOID, [I64]))
    print_fn.native = True

    def show(b, name, *args):
        b.call(print_fn, [b.call(natives[name], [b.const_i64(a)
                                                 for a in args])])

    callee = mod.add_function("callee", FunctionType(VOID, []))
    b = IRBuilder(callee.add_block("entry"))
    show(b, "__sb_ss_get_base", 0)
    show(b, "__sb_ss_get_bound", 1)       # never pushed: stale
    show(b, "__sb_ss_get_bound", 9)       # past the slots: wide
    b.call(natives["__sb_ss_set"], [b.const_i64(5), b.const_i64(1),
                                    b.const_i64(2)])
    show(b, "__sb_ss_get_base", 5)
    b.call(natives["__sb_ss_set_ret"], [b.const_i64(70), b.const_i64(80)])
    b.ret()

    main = mod.add_function("main", FunctionType(I64, []))
    b = IRBuilder(main.add_block("entry"))
    show(b, "__sb_ss_get_base", 0)        # no frame: wide
    show(b, "__sb_ss_get_ret_bound")      # never written: wide
    b.call(natives["__sb_ss_set"], [b.const_i64(0), b.const_i64(3),
                                    b.const_i64(4)])
    b.call(natives["__sb_ss_exit"], [])   # no frame: nothing to pop
    b.call(natives["__sb_ss_enter"], [b.const_i64(2)])
    for slot in range(2):
        b.call(natives["__sb_ss_set"], [b.const_i64(slot),
                                        b.const_i64(10 + slot),
                                        b.const_i64(20 + slot)])
    b.call(natives["__sb_ss_exit"], [])
    b.call(natives["__sb_ss_enter"], [b.const_i64(1)])
    b.call(natives["__sb_ss_set"], [b.const_i64(0), b.const_i64(30),
                                    b.const_i64(40)])
    b.call(callee, [])
    b.call(natives["__sb_ss_exit"], [])
    show(b, "__sb_ss_get_ret_base")
    show(b, "__sb_ss_get_ret_bound")
    b.call(natives["__sb_trie_store"], [b.const_i64(0x1000),
                                        b.const_i64(5), b.const_i64(6)])
    show(b, "__sb_trie_load_bound", 0x1004)
    show(b, "__sb_trie_load_base", 0x1008)   # a miss
    b.ret(b.const_i64(0))
    return mod


@pytest.mark.usefixtures("tiering")
class TestEnginesAgree:
    """The inline templates generated code runs and the runtime methods
    the tree-walker calls are one semantics: equal output and
    ``RuntimeStats`` on both engines, plain and profiled."""

    PROGRAMS = {
        "missing-metadata": TestMissingMetadataPolicy.SRC,
        "callee-checks": r"""
        void poke(int *p, int i) { p[i] = 1; }
        int main() {
            int *a = (int *) malloc(sizeof(int) * 4);
            poke(a, 3);
            poke(a, 6);
            return 0;
        }""",
        "returned-bounds": r"""
        int *make() { return (int *) malloc(sizeof(int) * 2); }
        int main() {
            int *p = make();
            p[1] = 1;
            p[2] = 2;
            return 0;
        }""",
    }

    @staticmethod
    def _outcome(result):
        return (result.output, result.describe(),
                dataclasses.asdict(result.stats))

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["plain", "profile"])
    @pytest.mark.parametrize("wide", [False, True],
                             ids=["null-miss", "wide-miss"])
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_programs(self, program, wide, profile):
        config = SB.with_(sb_missing_metadata_wide=wide)
        compiled = compile_program(self.PROGRAMS[program], config, OPTS)
        outcomes = [self._outcome(run_program(
            compiled, max_instructions=2_000_000, engine=engine,
            profile=profile)) for engine in ENGINES]
        assert all(o == outcomes[0] for o in outcomes)
        assert outcomes[0][2]["shadow_stack_ops"] or program == \
            "missing-metadata"

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["plain", "profile"])
    @pytest.mark.parametrize("wide", [False, True],
                             ids=["null-miss", "wide-miss"])
    def test_slots_no_caller_pushed(self, wide, profile):
        runs = []
        for engine in ENGINES:
            vm = VirtualMachine(_stale_slot_module(), engine=engine,
                                profile=profile)
            SoftBoundRuntime(missing_metadata_wide=wide).install(vm)
            assert vm.run() == 0
            runs.append((vm.output, dataclasses.asdict(vm.stats)))
        assert all(r == runs[0] for r in runs)
        wide_bound, miss = "-1", "0"      # print_i64 prints signed
        assert runs[0][0] == [
            "0", wide_bound,                  # main, no frame
            "30", "21", wide_bound, "0",      # callee
            "70", "80", "6", miss]
        assert runs[0][1]["shadow_stack_ops"] == 19
        assert runs[0][1]["trie_loads"] == 2
        assert runs[0][1]["trie_stores"] == 1
