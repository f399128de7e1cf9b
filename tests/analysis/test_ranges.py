"""Tests for the interprocedural value-range / pointer-provenance
analysis and the check-elimination filter built on it."""

import pytest

from repro.analysis.dataflow import ForwardDataflow
from repro.analysis.ranges import (
    FunctionRangeAnalysis,
    IntRange,
    PtrFact,
    RangeClient,
    ReturnSummaries,
)
from repro.core import (
    InstrumentationConfig,
    TargetKind,
    dominance_filter,
    gather_function_targets,
    range_filter,
)
from repro.driver import compile_program, run_program
from repro.experiments.common import config_for
from repro.frontend import compile_source
from repro.ir.instructions import Load, Ret, Store
from repro.opt import Mem2Reg, SimplifyCFG
from repro.workloads import all_workloads


def _prepared(src):
    mod = compile_source(src)
    SimplifyCFG().run(mod)
    Mem2Reg().run(mod)
    return mod


def _fn(src, name="main"):
    return _prepared(src).get_function(name)


def _ret(fn):
    return next(i for i in fn.instructions() if isinstance(i, Ret))


def _range_at_return(src, name="main"):
    fn = _fn(src, name)
    ret = _ret(fn)
    return FunctionRangeAnalysis(fn).int_range_before(ret, ret.value)


class TestIntRange:
    def test_constants_and_constructors(self):
        r = IntRange.const(32, 7)
        assert r.is_constant and r.lo == r.hi == 7
        assert IntRange.full(8).is_full

    def test_clamped_rejects_wrapping(self):
        assert IntRange(8, 120, 130).clamped() is None  # exceeds i8 max
        assert IntRange(8, -10, 10).clamped() == IntRange(8, -10, 10)

    def test_join_is_the_hull(self):
        a, b = IntRange(32, 0, 3), IntRange(32, 10, 12)
        assert a.join(b) == IntRange(32, 0, 12)
        assert a.join(IntRange(64, 0, 3)) is None  # width mismatch: top

    def test_widen_pushes_unstable_bounds(self):
        old, new = IntRange(32, 0, 3), IntRange(32, 0, 4)
        widened = old.widen(new)
        assert widened.lo == 0  # stable bound kept
        assert widened.hi == IntRange.full(32).hi  # unstable: type max

    def test_intersect_and_empty(self):
        r = IntRange(32, 0, 10).intersect(5, None)
        assert (r.lo, r.hi) == (5, 10)
        assert IntRange(32, 0, 10).intersect(11, None).empty


class TestPtrFact:
    def _fact(self, lo, hi, size=16):
        return PtrFact(object(), size, IntRange(64, lo, hi))

    def test_proves_in_bounds(self):
        assert self._fact(0, 12).proves_in_bounds(4)
        assert not self._fact(0, 13).proves_in_bounds(4)  # 13+4 > 16
        assert not self._fact(-1, 0).proves_in_bounds(4)  # may underflow

    def test_unknown_size_never_proves_in_bounds(self):
        assert not self._fact(0, 0, size=None).proves_in_bounds(1)

    def test_proves_out_of_bounds(self):
        assert self._fact(16, 16).proves_out_of_bounds(1)  # past the end
        assert not self._fact(12, 12).proves_out_of_bounds(4)  # last slot
        # a negative offset is out of bounds even with unknown size
        assert self._fact(-4, -1, size=None).proves_out_of_bounds(1)


class TestRangePropagation:
    def test_arithmetic_folds_to_constant(self):
        r = _range_at_return("int main() { int x = 3; return x + 4; }")
        assert (r.lo, r.hi) == (7, 7)

    def test_phi_joins_both_arms(self):
        r = _range_at_return(r"""
        int g;
        int main() {
            int x;
            if (g > 0) x = 1; else x = 3;
            return x;
        }""")
        assert (r.lo, r.hi) == (1, 3)

    def test_mask_bounds_the_index(self):
        r = _range_at_return(r"""
        int g;
        int main() { return g & 7; }""")
        assert (r.lo, r.hi) == (0, 7)

    def test_loop_with_refinement_bounds_the_counter(self):
        # after `for (i = 0; i < 8; i++)`, the exit edge proves i >= 8
        # and widening keeps lo = 0
        r = _range_at_return(r"""
        int main() {
            int i;
            for (i = 0; i < 8; i++) {}
            return i;
        }""")
        assert r is not None and r.lo >= 0

    def test_data_dependent_bound_terminates_via_widening(self):
        # the loop bound is a function argument: no finite descending
        # chain -- only widening makes the fixpoint terminate
        fn = _fn(r"""
        int f(int n) {
            int i = 0;
            while (i < n) i = i + 1;
            return i;
        }""", "f")
        analysis = FunctionRangeAnalysis(fn)  # must not diverge
        ret = _ret(fn)
        r = analysis.int_range_before(ret, ret.value)
        # i starts at 0 and only grows: the sound result keeps lo >= 0
        assert r is None or r.lo >= 0

    def test_select_like_ternary_joins(self):
        r = _range_at_return(r"""
        int g;
        int main() { return g > 0 ? 2 : 5; }""")
        assert (r.lo, r.hi) == (2, 5)

    def test_interprocedural_return_summary(self):
        mod = _prepared(r"""
        int clamp(int x) {
            if (x < 0) return 0;
            if (x > 9) return 9;
            return x;
        }
        int main(int argc) { return clamp(argc); }""")
        fn = mod.get_function("main")
        ret = _ret(fn)
        analysis = FunctionRangeAnalysis(fn, ReturnSummaries(mod))
        r = analysis.int_range_before(ret, ret.value)
        assert (r.lo, r.hi) == (0, 9)

    def test_recursive_summary_is_top(self):
        mod = _prepared(r"""
        int f(int n) { if (n <= 0) return 0; return f(n - 1); }
        int main() { return f(5); }""")
        assert ReturnSummaries(mod).range_for(mod.get_function("f")) is None


class TestProvenance:
    def test_malloc_with_constant_index_proves_in_bounds(self):
        fn = _fn(r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            a[3] = 1;
            return 0;
        }""")
        analysis = FunctionRangeAnalysis(fn)
        store = next(i for i in fn.instructions() if isinstance(i, Store))
        fact = analysis.pointer_fact_before(store, store.pointer)
        assert fact is not None and fact.size == 32
        assert fact.proves_in_bounds(4)

    def test_unknown_index_does_not_prove(self):
        fn = _fn(r"""
        int g;
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            a[g] = 1;
            return 0;
        }""")
        analysis = FunctionRangeAnalysis(fn)
        store = next(i for i in fn.instructions() if isinstance(i, Store))
        fact = analysis.pointer_fact_before(store, store.pointer)
        assert fact is None or not fact.proves_in_bounds(4)

    def test_global_array_has_known_size(self):
        fn = _fn(r"""
        int table[10];
        int main() { table[9] = 1; return 0; }""")
        analysis = FunctionRangeAnalysis(fn)
        store = next(i for i in fn.instructions() if isinstance(i, Store))
        fact = analysis.pointer_fact_before(store, store.pointer)
        assert fact is not None and fact.size == 40
        assert fact.proves_in_bounds(4)
        assert not fact.proves_in_bounds(8)  # 36 + 8 > 40


class TestRangeFilter:
    def _targets(self, src, name="main"):
        fn = _fn(src, name)
        targets = gather_function_targets(fn)
        targets, _ = dominance_filter(fn, targets)
        return fn, targets

    def test_provable_accesses_removed(self):
        fn, targets = self._targets(r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            for (int i = 0; i < 8; i++) a[i] = i;
            return 0;
        }""")
        filtered, removed = range_filter(fn, targets)
        assert removed >= 1
        assert len(filtered) == len(targets) - removed

    def test_unprovable_accesses_kept(self):
        fn, targets = self._targets(r"""
        int take(int *p, int i) { return p[i]; }""", "take")
        filtered, removed = range_filter(fn, targets)
        assert removed == 0 and filtered == targets

    def test_invariant_targets_never_dropped(self):
        fn, targets = self._targets(r"""
        int *slot[2];
        int main() {
            int x;
            slot[0] = &x;
            slot[1] = &x;
            return 0;
        }""")
        invariants = sum(1 for t in targets if t.is_invariant())
        filtered, _ = range_filter(fn, targets)
        assert sum(1 for t in filtered if t.is_invariant()) == invariants


class TestDifferentialSoundness:
    """-mi-opt-ranges must be behaviour-preserving: same outputs, same
    verdicts, never more emitted checks, on the whole functional corpus
    under both instrumentations."""

    @staticmethod
    def _run(case, approach, opt_ranges):
        base = (InstrumentationConfig.softbound()
                if approach == "softbound"
                else InstrumentationConfig.lowfat())
        config = base.with_(opt_dominance=True, opt_ranges=opt_ranges)
        program = compile_program({"main.c": case.source}, config)
        result = run_program(program, max_instructions=2_000_000)
        return program, result

    def _check_case(self, case, approach):
        prog_off, off = self._run(case, approach, False)
        prog_on, on = self._run(case, approach, True)
        assert on.output == off.output
        assert on.exit_code == off.exit_code
        assert (on.violation is None) == (off.violation is None)
        if on.violation is not None:
            assert on.violation.kind == off.violation.kind
        assert (on.fault is None) == (off.fault is None)
        stat_on, stat_off = prog_on.instrumentation, prog_off.instrumentation
        assert stat_on.gathered_checks == stat_off.gathered_checks
        assert stat_on.filtered_checks == stat_off.filtered_checks
        assert stat_off.range_filtered_checks == 0
        assert stat_on.emitted_checks <= stat_off.emitted_checks

    def test_softbound_corpus(self):
        from repro.workloads.functional import corpus_by_name

        for case in corpus_by_name().values():
            self._check_case(case, "softbound")

    def test_lowfat_corpus(self):
        from repro.workloads.functional import corpus_by_name

        for case in corpus_by_name().values():
            self._check_case(case, "lowfat")


class TestJoinIdempotence:
    """The dataflow engine copies a single incoming edge and skips the
    join for facts that are one object; both rely on
    ``join_fact(f, f) == f`` for every fact that reaches a merge."""

    def test_every_merged_fact_on_the_workloads(self, monkeypatch):
        merge = ForwardDataflow._merge_edges
        checked = [0]
        failures = []

        def checking(engine, edges, phi_keys):
            client = engine.client
            assert isinstance(client, RangeClient)
            for state in edges:
                for fact in state.values():
                    checked[0] += 1
                    if client.join_fact(fact, fact) != fact:
                        failures.append(fact)
            return merge(engine, edges, phi_keys)

        monkeypatch.setattr(ForwardDataflow, "_merge_edges", checking)
        for workload in all_workloads():
            for label in ("softbound-hoist", "lowfat-hoist"):
                compile_program(workload.sources, config_for(label))
        assert checked[0] > 100_000
        assert not failures, failures[:5]
