"""Tests for ``-mi-opt-hoist``: loop-aware check hoisting/coalescing
and the static safety verdicts that share its analysis.

The contract under test is the extremes argument: a widened preheader
check over an affine access hull is equivalent to the per-iteration
checks it replaces on every valid execution, so outputs, exit codes,
and violation verdicts must be bit-identical to ``-mi-opt-ranges``
while the number of *executed* dynamic checks only shrinks.
"""

import pytest

from repro.core import InstrumentationConfig, MemInstrumentPass
from repro.driver import CompileOptions, compile_program, run_program
from repro.errors import MemSafetyViolation
from repro.ir import (
    ArrayType,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    Module,
)
from repro.softbound import SoftBoundRuntime
from repro.vm import VirtualMachine
from repro.vm.engines import DEFAULT_ENGINE, ENGINES

# Unknown-size allocation (size depends on a mutable global, so the
# range filter cannot prove the accesses safe) iterated by counted
# loops: the hoist filter's win case.
HOIST_SRC = r"""
int N = 16;

int main() {
    int *a = (int *)malloc(N * 4);
    for (int i = 0; i < 16; i++) {
        a[i] = i * 3;
    }
    int s = 0;
    for (int i = 0; i < 16; i++) {
        s = s + a[i];
    }
    int t = a[0] + a[1] + a[2];
    print_i64(s);
    print_i64(t);
    free(a);
    return 0;
}
"""

# Off-by-one inclusive bound: iteration i == 8 touches bytes 32..36 of
# a 32-byte allocation.
OOB_SRC = r"""
int N = 8;

int main() {
    int *a = (int *)malloc(N * 4);
    int s = 0;
    for (int i = 0; i <= 8; i++) {
        s = s + a[i];
    }
    print_i64(s);
    return 0;
}
"""


def _config(mechanism, variant):
    base = (InstrumentationConfig.softbound() if mechanism == "softbound"
            else InstrumentationConfig.lowfat())
    if variant == "ranges":
        return base.with_(opt_dominance=True, opt_ranges=True)
    assert variant == "hoist"
    return base.with_(opt_dominance=True, opt_ranges=True, opt_hoist=True)


def _compile(src, mechanism, variant, **options_kwargs):
    options = CompileOptions(**options_kwargs) if options_kwargs else None
    return compile_program({"main.c": src}, _config(mechanism, variant),
                           options=options)


class TestHoistStatistics:
    @pytest.mark.parametrize("mechanism", ["softbound", "lowfat"])
    def test_hoists_and_coalesces(self, mechanism):
        prog = _compile(HOIST_SRC, mechanism, "hoist")
        stats = prog.instrumentation
        assert stats.hoisted_checks > 0
        assert stats.coalesced_checks > 0
        assert stats.synthesized_checks > 0
        # A synthesized check replaces a whole hoist group or run.
        assert stats.synthesized_checks <= (
            stats.hoisted_checks + stats.coalesced_checks)
        # Accounting stays consistent.
        removed = (stats.filtered_checks + stats.range_filtered_checks
                   + stats.hoisted_checks + stats.coalesced_checks)
        assert removed <= stats.gathered_checks
        assert stats.emitted_checks == (
            stats.gathered_checks - removed + stats.synthesized_checks)

    def test_disabled_without_flag(self):
        prog = _compile(HOIST_SRC, "softbound", "ranges")
        stats = prog.instrumentation
        assert stats.hoisted_checks == 0
        assert stats.coalesced_checks == 0
        assert stats.synthesized_checks == 0

    @pytest.mark.parametrize("mechanism", ["softbound", "lowfat"])
    def test_static_counts_engine_independent(self, mechanism):
        # Static counters are fixed at compile time; running on either
        # engine must report the identical instrumentation statistics.
        prog = _compile(HOIST_SRC, mechanism, "hoist")
        before = prog.instrumentation
        for engine in ENGINES:
            run_program(prog, max_instructions=2_000_000, engine=engine)
            assert prog.instrumentation == before


@pytest.mark.usefixtures("tiering")
class TestHoistBehaviourPreserving:
    @pytest.mark.parametrize("mechanism", ["softbound", "lowfat"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_valid_program_identical_and_cheaper(self, mechanism, engine):
        prog_rng = _compile(HOIST_SRC, mechanism, "ranges")
        prog_hst = _compile(HOIST_SRC, mechanism, "hoist")
        rng = run_program(prog_rng, max_instructions=2_000_000, engine=engine)
        hst = run_program(prog_hst, max_instructions=2_000_000, engine=engine)
        assert hst.output == rng.output
        assert hst.exit_code == rng.exit_code
        assert hst.violation is None and rng.violation is None
        assert hst.stats.checks_executed < rng.stats.checks_executed

    @pytest.mark.parametrize("engine", ENGINES)
    def test_violation_still_detected(self, engine):
        # SoftBound catches the off-by-one with and without hoisting.
        prog_rng = _compile(OOB_SRC, "softbound", "ranges")
        prog_hst = _compile(OOB_SRC, "softbound", "hoist")
        rng = run_program(prog_rng, max_instructions=2_000_000, engine=engine)
        hst = run_program(prog_hst, max_instructions=2_000_000, engine=engine)
        assert rng.violation is not None
        assert hst.violation is not None
        assert hst.violation.kind == rng.violation.kind


class TestCheckVerdicts:
    def test_proven_violating_loop(self):
        # The allocation size must be statically known for the
        # loop-extent proof to conclude "proven-violating".
        src = r"""
        int main() {
            int *a = (int *)malloc(32);
            int s = 0;
            for (int i = 0; i <= 8; i++) {
                s = s + a[i];
            }
            print_i64(s);
            return 0;
        }
        """
        prog = _compile(src, "softbound", "hoist", collect_verdicts=True)
        assert "proven-violating" in prog.check_verdicts.values()
        assert prog.instrumentation.verdicts.get("proven-violating", 0) > 0

    def test_proven_safe_sites(self):
        src = r"""
        int main() {
            int a[8];
            for (int i = 0; i < 8; i++) a[i] = i;
            print_i64(a[7]);
            return 0;
        }
        """
        prog = _compile(src, "softbound", "hoist", collect_verdicts=True)
        assert "proven-safe" in prog.check_verdicts.values()

    def test_verdicts_computed_alongside_hoist(self):
        # The hoist filter's range analysis is reused for verdicts, so
        # any hoist-enabled compile reports them for free.
        prog = _compile(OOB_SRC, "softbound", "hoist")
        assert prog.check_verdicts != {}

    def test_verdicts_absent_without_range_analysis(self):
        base = InstrumentationConfig.softbound()
        prog = compile_program({"main.c": OOB_SRC}, base)
        assert prog.check_verdicts == {}


class TestHoistCorpusDifferential:
    """-mi-opt-hoist must be behaviour-preserving on the whole
    functional corpus under both instrumentations."""

    def _check_case(self, case, mechanism):
        prog_rng = compile_program({"main.c": case.source},
                                   _config(mechanism, "ranges"))
        prog_hst = compile_program({"main.c": case.source},
                                   _config(mechanism, "hoist"))
        rng = run_program(prog_rng, max_instructions=2_000_000)
        hst = run_program(prog_hst, max_instructions=2_000_000)
        assert hst.output == rng.output
        assert hst.exit_code == rng.exit_code
        assert (hst.violation is None) == (rng.violation is None)
        if hst.violation is not None:
            assert hst.violation.kind == rng.violation.kind
        assert (hst.fault is None) == (rng.fault is None)
        stat_h, stat_r = prog_hst.instrumentation, prog_rng.instrumentation
        assert stat_h.gathered_checks == stat_r.gathered_checks
        assert stat_h.emitted_checks <= stat_r.emitted_checks
        assert hst.stats.checks_executed <= rng.stats.checks_executed

    def test_softbound_corpus(self):
        from repro.workloads.functional import corpus_by_name

        for case in corpus_by_name().values():
            self._check_case(case, "softbound")

    def test_lowfat_corpus(self):
        from repro.workloads.functional import corpus_by_name

        for case in corpus_by_name().values():
            self._check_case(case, "lowfat")


class TestRotatedLoopHoist:
    """REVIEW regression: a compare-on-phi single-block loop
    (``do { a[i] } while (i < bound)``) keeps its store in the loop
    *header*, which executes trip_count + 1 times -- the final entry
    accesses ``a[bound]`` before the exit test fails.  The hoisted
    hull must cover that extra step: an OOB at ``iv == last + step``
    that the baseline catches must still abort, and the valid variant
    must stay byte-identical."""

    @staticmethod
    def _rotated_main(n_elems, bound):
        mod = Module("rot")
        fn = mod.add_function("main", FunctionType(I32, []), [])
        entry = fn.add_block("entry")
        loop = fn.add_block("loop")
        exit_ = fn.add_block("exit")
        b = IRBuilder(entry)
        buf = b.alloca(ArrayType(I32, n_elems), name="buf")
        base = b.gep(buf, [b.const_i64(0), b.const_i64(0)], "base")
        b.br(loop)
        b.position_at_end(loop)
        i = b.phi(I32, "i")
        idx = b.sext(i, I64)
        slot = b.gep(base, [idx], "slot")
        b.store(i, slot)
        inext = b.add(i, b.const_i32(1), "inext")
        cmp = b.icmp("slt", i, b.const_i32(bound), "cmp")
        b.cond_br(cmp, loop, exit_)
        i.add_incoming(b.const_i32(0), entry)
        i.add_incoming(inext, loop)
        b.position_at_end(exit_)
        b.ret(b.const_i32(0))
        return mod

    @staticmethod
    def _dynamic_rotated_main(n_elems, bound):
        # Same loop, but the bound is loaded from a mutable global
        # behind an ``n > 0`` guard: the hull must be synthesized from
        # the *runtime* bound (plus the header's extra step).
        from repro.ir import ConstantInt

        mod = Module("rotdyn")
        mod.add_global("N", I32, ConstantInt(I32, bound))
        fn = mod.add_function("main", FunctionType(I32, []), [])
        entry = fn.add_block("entry")
        pre = fn.add_block("pre")
        loop = fn.add_block("loop")
        exit_ = fn.add_block("exit")
        b = IRBuilder(entry)
        buf = b.alloca(ArrayType(I32, n_elems), name="buf")
        base = b.gep(buf, [b.const_i64(0), b.const_i64(0)], "base")
        n = b.load(mod.get_global("N"), "n")
        guard = b.icmp("sgt", n, b.const_i32(0), "guard")
        b.cond_br(guard, pre, exit_)
        b.position_at_end(pre)
        b.br(loop)
        b.position_at_end(loop)
        i = b.phi(I32, "i")
        idx = b.sext(i, I64)
        slot = b.gep(base, [idx], "slot")
        b.store(i, slot)
        inext = b.add(i, b.const_i32(1), "inext")
        cmp = b.icmp("slt", i, n, "cmp")
        b.cond_br(cmp, loop, exit_)
        i.add_incoming(b.const_i32(0), pre)
        i.add_incoming(inext, loop)
        b.position_at_end(exit_)
        b.ret(b.const_i32(0))
        return mod

    @staticmethod
    def _instrument(mod, hoist, collect_verdicts=False):
        config = InstrumentationConfig.softbound()
        if hoist:
            config = config.with_(opt_hoist=True)
        pass_ = MemInstrumentPass(config, verify=True,
                                  collect_verdicts=collect_verdicts)
        pass_.run(mod)
        return pass_

    @staticmethod
    def _run(mod, engine):
        vm = VirtualMachine(mod, max_instructions=1_000_000, engine=engine)
        SoftBoundRuntime().install(vm)
        try:
            code = vm.run()
            return code, None, vm.stats
        except MemSafetyViolation as violation:
            return None, violation, vm.stats

    @pytest.mark.usefixtures("tiering")
    @pytest.mark.parametrize("engine", ENGINES)
    def test_final_entry_oob_still_detected(self, engine):
        # 8 elements, bound 8: the final header entry stores a[8].
        base_mod = self._rotated_main(8, 8)
        hoist_mod = self._rotated_main(8, 8)
        self._instrument(base_mod, hoist=False)
        hoist_pass = self._instrument(hoist_mod, hoist=True)
        # The header check must still be hoisted (with a widened hull),
        # not silently dropped or left behind.
        assert hoist_pass.statistics.hoisted_checks >= 1
        _, base_violation, _ = self._run(base_mod, engine)
        _, hoist_violation, _ = self._run(hoist_mod, engine)
        assert base_violation is not None
        assert hoist_violation is not None

    @pytest.mark.usefixtures("tiering")
    @pytest.mark.parametrize("engine", ENGINES)
    def test_valid_variant_identical_and_cheaper(self, engine):
        # 9 elements, bound 8: accesses a[0..8] are all in bounds.
        base_mod = self._rotated_main(9, 8)
        hoist_mod = self._rotated_main(9, 8)
        self._instrument(base_mod, hoist=False)
        self._instrument(hoist_mod, hoist=True)
        base_code, base_violation, base_stats = self._run(base_mod, engine)
        hoist_code, hoist_violation, hoist_stats = self._run(
            hoist_mod, engine)
        assert base_violation is None and hoist_violation is None
        assert base_code == hoist_code == 0
        assert hoist_stats.checks_executed < base_stats.checks_executed

    @pytest.mark.parametrize("n_elems,bound,expect_violation",
                             [(8, 8, True), (9, 8, False)])
    def test_runtime_bound_header_hull(self, n_elems, bound,
                                       expect_violation):
        # The dynamic-bound path synthesizes last-IV arithmetic in the
        # preheader; header residency must add one step there too.
        base_mod = self._dynamic_rotated_main(n_elems, bound)
        hoist_mod = self._dynamic_rotated_main(n_elems, bound)
        self._instrument(base_mod, hoist=False)
        hoist_pass = self._instrument(hoist_mod, hoist=True)
        assert hoist_pass.statistics.hoisted_checks >= 1
        _, base_violation, _ = self._run(base_mod, DEFAULT_ENGINE)
        _, hoist_violation, _ = self._run(hoist_mod, DEFAULT_ENGINE)
        assert (base_violation is not None) == expect_violation
        assert (hoist_violation is not None) == expect_violation

    def test_header_verdict_not_proven_safe(self):
        # Before the header fix the loop-extent argument "proved" the
        # 8-element variant safe -- while it provably violates on the
        # final header entry.
        oob = self._rotated_main(8, 8)
        verdicts = self._instrument(
            oob, hoist=True, collect_verdicts=True).check_verdicts
        assert "proven-violating" in verdicts.values()
        assert "proven-safe" not in verdicts.values()
        ok = self._rotated_main(9, 8)
        verdicts = self._instrument(
            ok, hoist=True, collect_verdicts=True).check_verdicts
        assert "proven-safe" in verdicts.values()


class TestFilterChainMonotonicity:
    """Satellite: along unopt -> dominance -> ranges -> hoist, the
    number of emitted (static) checks must never grow, on every
    bundled workload and under both mechanisms."""

    CHAIN = (
        {},
        {"opt_dominance": True},
        {"opt_dominance": True, "opt_ranges": True},
        {"opt_dominance": True, "opt_ranges": True, "opt_hoist": True},
    )

    @pytest.mark.parametrize("mechanism", ["softbound", "lowfat"])
    def test_all_workloads(self, mechanism):
        from repro.workloads import all_workloads

        base = (InstrumentationConfig.softbound() if mechanism == "softbound"
                else InstrumentationConfig.lowfat())
        workloads = all_workloads()
        assert len(workloads) == 20
        for workload in workloads:
            emitted = []
            for overrides in self.CHAIN:
                prog = compile_program(workload.sources,
                                       base.with_(**overrides))
                emitted.append(prog.instrumentation.emitted_checks)
            assert emitted == sorted(emitted, reverse=True), (
                f"{workload.name}: emitted checks not monotone "
                f"along the filter chain: {emitted}")
