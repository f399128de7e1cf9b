"""The codegen engine is tiered at call granularity.

A function runs on the tree-walker until its calls, times a static
bound on the instructions one call executes, pass ``TIER_K`` times its
size; then it is emitted.  A frame never changes engine.  These tests
pin the decisions (``VirtualMachine.tiers``), the stack a mixed run
builds, and the policy on the benchmark's programs.
"""

import dataclasses
import sys

import pytest

from repro import NOOP, CompileOptions, compile_program
from repro.driver import make_vm, run_program
from repro.errors import VMError
from repro.experiments.common import config_for
from repro.fuzz.generator import generate_program
from repro.vm import interpreter
from repro.workloads.registry import all_names

from .test_engine_differential import _compiled_program

#: No inlining and every loop variable in memory: a function with a
#: loop has no trip bound, so it is emitted at its first call, and a
#: loop-free one runs on the tree-walker.
O0 = CompileOptions(opt_level=0, link_time_optimization=False)

#: perfbench's configurations.
LABELS = ("baseline", "softbound", "lowfat", "softbound-hoist",
          "lowfat-hoist")

MIXED = r"""
long leaf(long x) { return x * 3 + 1; }
long walk(long n) { long s = 0; for (long i = 0; i < n; i++) s += leaf(i); return s; }
int main() { print_i64(walk(30)); print_i64(leaf(2)); return 0; }
"""


def _tiers(vm):
    return {fn.name: tier for fn, tier in vm.tiers.items()}


class TestDecisions:
    def test_reasons(self):
        program = compile_program(MIXED, NOOP, O0)
        vm = make_vm(program)
        assert vm.run() == 0
        assert vm.output == ["1335", "7"]
        # main and leaf are loop-free: main runs once on the
        # tree-walker; leaf's calls pass its budget at call 15.  walk's
        # loop has no constant bound.
        assert _tiers(vm) == {
            "main": ("interp", "interpreted"),
            "walk": ("codegen", "over budget"),
            "leaf": ("codegen", f"promoted at call {interpreter.TIER_K + 1}"),
        }

    def test_cached_emission_starts_emitted(self):
        program = compile_program(MIXED, NOOP, O0)
        make_vm(program).run()
        vm = make_vm(program)
        vm.run()
        assert _tiers(vm) == {"main": ("interp", "interpreted"),
                              "walk": ("codegen", "cached"),
                              "leaf": ("codegen", "cached")}

    def test_emit_all(self, emit_all):
        vm = make_vm(compile_program(MIXED, NOOP, O0))
        vm.run()
        assert set(_tiers(vm).values()) == {("codegen", "over budget")}

    def test_interp_engine_records_nothing(self):
        vm = make_vm(compile_program(MIXED, NOOP, O0), engine="interp")
        vm.run()
        assert vm.tiers == {}

    def test_dump_emits_every_function_at_its_first_call(self, tmp_path):
        program = compile_program(MIXED, NOOP, O0)
        result = run_program(program, dump_codegen=str(tmp_path))
        assert result.output == ["1335", "7"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "000_main.py", "001_walk.py", "002_leaf.py"]

    def test_bound_is_cached_on_the_function(self):
        program = compile_program(MIXED, NOOP, O0)
        make_vm(program).run()
        main = program.module.get_function("main")
        budget, bound = main._work_bound
        assert budget == interpreter.TIER_K * main.instruction_count()
        assert 0 < bound <= budget


class TestMixedStacks:
    def test_interpreted_main_folds_emitted_callees(self):
        # The outermost frame is the tree-walker's: its exit folds the
        # block counts of the functions emitted under it.
        program = compile_program(MIXED, NOOP, O0)
        vm = make_vm(program)
        vm.run()
        assert vm.tiers[program.module.get_function("main")][0] == "interp"
        reference = make_vm(program, engine="interp")
        reference.run()
        assert dataclasses.asdict(vm.stats) == \
            dataclasses.asdict(reference.stats)

    def test_interpreted_call_adds_no_python_frame(self):
        # The Python stack under a native called at the bottom of an
        # interpreted recursion is as deep as the tree-walker's.
        source = r"""
        long down(long n) { if (n == 0) { print_i64(n); return 0; } return down(n - 1) + 1; }
        int main() { print_i64(down(5)); return 0; }"""
        program = compile_program(source, NOOP, O0)
        depths = {}
        for engine in ("codegen", "interp"):
            vm = make_vm(program, engine=engine)
            printer = vm.natives["print_i64"]

            def probe(vm, args, printer=printer, engine=engine):
                if engine not in depths:
                    frame, depth = sys._getframe(), 0
                    while frame is not None:
                        frame, depth = frame.f_back, depth + 1
                    depths[engine] = depth
                return printer(vm, args)

            vm.register_native("print_i64", probe)
            vm.run()
            if engine == "codegen":
                assert _tiers(vm) == {"main": ("interp", "interpreted"),
                                      "down": ("interp", "interpreted")}
        assert depths["codegen"] == depths["interp"]

    def test_recursion_depth_sweep(self):
        """The tiered engine completes every depth the tree-walker
        completes, with the same result and stats: its interpreted
        calls take the tree-walker's frames, its emitted ones fewer."""
        program = compile_program(
            "long f(long n) { if (n == 0) return 0; return f(n - 1) + 1; }"
            " int main() { return (int) f(3); }")
        f = program.module.get_function("f")

        def call(engine, depth):
            vm = make_vm(program, engine=engine)
            vm.load_globals()
            try:
                value = vm.call_function(f, [depth])
            except RecursionError:
                return None
            return value, dataclasses.asdict(vm.stats)

        completed = 0
        for depth in range(0, 2000, 3):
            reference = call("interp", depth)
            if reference is None:
                break
            assert call("codegen", depth) == reference, depth
            completed = depth
        else:
            pytest.fail("the tree-walker completed every depth")
        assert completed > 100


class TestPolicyOnTheBenchmark:
    """The decisions the benchmark's programs get at their first call:
    a workload's ``main`` runs long enough to pay for its emission, a
    fuzz program's ``main`` (its coverage preamble, loops of a few
    iterations) does not."""

    @staticmethod
    def _main_tier(program):
        # A one-instruction budget: the run stops after main's first
        # block, once its tier is decided.
        vm = make_vm(program, max_instructions=1)
        with pytest.raises(VMError, match="budget"):
            vm.run()
        return vm.tiers[program.module.get_function("main")]

    @pytest.mark.parametrize("label", LABELS)
    def test_workload_mains_are_emitted_at_their_first_call(self, label):
        for name in all_names():
            program = _compiled_program(name, label)
            assert self._main_tier(program)[0] == "codegen", name

    @pytest.mark.parametrize("label", LABELS)
    def test_fuzz_seed_0_mains_run_interpreted(self, label):
        for program in _fuzz_programs(0):
            compiled = compile_program(program.sources, config_for(label)
                                       or NOOP)
            assert self._main_tier(compiled) == \
                ("interp", "interpreted"), program.name


def _fuzz_programs(seed, count=20):
    """perfbench's fuzz-compile programs: of the first ``2 * count``
    programs of ``seed``, the ``count`` whose source size is nearest
    the median."""
    pool = [generate_program(seed, index) for index in range(2 * count)]
    size = {p.name: sum(len(s) for s in p.sources.values()) for p in pool}
    median = sorted(size.values())[len(pool) // 2]
    chosen = set(sorted(size, key=lambda n: (abs(size[n] - median), n))
                 [:count])
    return [p for p in pool if p.name in chosen]
