"""Unit tests for the codegen execution tier (``--engine codegen``).

The codegen tier compiles each IR function to one generated Python
source string.  Everything observable -- return values, output, and
field-for-field ``RuntimeStats`` including the exact state at raise
points -- must match the reference tree-walker; these tests pin down
the mechanisms that make that work: the while-loop block dispatch, phi
tuple assignments (including swap cycles), exact cycle rollback on
raising steps (profiled or not), per-predicate fcmp NaN semantics,
profiled emission, source dumping, and the per-function emission
cache.

Every test here runs with every function emitted at its first call
(``TIER_K = 0``): the programs are small enough that the codegen
engine's tiering would otherwise run them on the tree-walker.
"""

import dataclasses
import gc
import re
import weakref

import pytest

from repro.driver import CompileOptions, compile_program, make_vm, run_program
from repro.experiments.common import config_for
from repro.ir import (
    F32,
    FunctionType,
    I8,
    I32,
    I64,
    IRBuilder,
    Module,
    ptr,
)
from repro.ir.instructions import Load, Store
from repro.vm import VirtualMachine
from repro.vm.codegen import CodegenFunction
from repro.vm.engines import ENGINES
from repro.vm.native import CheckNative, TemplateNative
from repro.errors import VMError
from repro.workloads.registry import all_names

from .test_engine_differential import (
    LABELS,
    MAX_INSTRUCTIONS,
    _compiled_program,
    _reference_run,
)
from .test_fcmp import OPERANDS, PREDICATES, _fcmp_module, reference

pytestmark = pytest.mark.usefixtures("emit_all")


def _stats_dict(vm):
    return dataclasses.asdict(vm.stats)


def _run_engines(module_factory, profile=False):
    """Run the same module on each engine; return {engine: (exit, stats)}."""
    out = {}
    for engine in ENGINES:
        vm = VirtualMachine(module_factory(), engine=engine, profile=profile)
        out[engine] = (vm.run(), _stats_dict(vm))
    return out


class TestBlockDispatch:
    """Multi-block control flow through the while-loop jump table."""

    @staticmethod
    def _diamond(n):
        mod = Module("diamond")
        fn = mod.add_function("main", FunctionType(I32, []), [])
        entry = fn.add_block("entry")
        then = fn.add_block("then")
        other = fn.add_block("else")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp("slt", b.const_i32(n), b.const_i32(10))
        b.cond_br(cond, then, other)
        b = IRBuilder(then)
        b.br(join)
        b = IRBuilder(other)
        b.br(join)
        b = IRBuilder(join)
        phi = b.phi(I32)
        phi.add_incoming(b.const_i32(1), then)
        phi.add_incoming(b.const_i32(2), other)
        b.ret(phi)
        return mod

    @pytest.mark.parametrize("n,expected", [(3, 1), (30, 2)])
    def test_diamond_selects_correct_arm(self, n, expected):
        results = _run_engines(lambda: self._diamond(n))
        assert results["codegen"][0] == expected
        assert results["codegen"] == results["interp"]

    def test_loop_backedge(self):
        # Counting loop: exercises a dispatch label with two
        # predecessors plus the instruction-budget backedge check.
        def build():
            mod = Module("loop")
            fn = mod.add_function("main", FunctionType(I32, []), [])
            entry = fn.add_block("entry")
            header = fn.add_block("header")
            body = fn.add_block("body")
            done = fn.add_block("done")
            b = IRBuilder(entry)
            b.br(header)
            b = IRBuilder(header)
            i = b.phi(I32, "i")
            acc = b.phi(I32, "acc")
            i.add_incoming(b.const_i32(0), entry)
            acc.add_incoming(b.const_i32(0), entry)
            b.cond_br(b.icmp("slt", i, b.const_i32(10)), body, done)
            b = IRBuilder(body)
            inext = b.add(i, b.const_i32(1))
            anext = b.add(acc, i)
            i.add_incoming(inext, body)
            acc.add_incoming(anext, body)
            b.br(header)
            b = IRBuilder(done)
            b.ret(acc)
            return mod

        results = _run_engines(build)
        assert results["codegen"][0] == 45
        assert results["codegen"] == results["interp"]


class TestPhiTupleAssignment:
    """Parallel phi moves become one tuple assignment; ordering must
    be simultaneous, not sequential."""

    @staticmethod
    def _swap_module(iterations):
        # a, b = b, a each iteration: a sequential compile would
        # collapse both to the same value after one trip.
        mod = Module("swap")
        fn = mod.add_function("main", FunctionType(I32, []), [])
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        body = fn.add_block("body")
        done = fn.add_block("done")
        b = IRBuilder(entry)
        b.br(header)
        b = IRBuilder(header)
        i = b.phi(I32, "i")
        a = b.phi(I32, "a")
        bb = b.phi(I32, "b")
        i.add_incoming(b.const_i32(0), entry)
        a.add_incoming(b.const_i32(1), entry)
        bb.add_incoming(b.const_i32(2), entry)
        b.cond_br(b.icmp("slt", i, b.const_i32(iterations)), body, done)
        b2 = IRBuilder(body)
        inext = b2.add(i, b2.const_i32(1))
        i.add_incoming(inext, body)
        a.add_incoming(bb, body)    # a' = b
        bb.add_incoming(a, body)    # b' = a  (swap cycle)
        b2.br(header)
        b3 = IRBuilder(done)
        b3.ret(a)
        return mod

    @pytest.mark.parametrize("iterations,expected", [(0, 1), (1, 2),
                                                     (2, 1), (5, 2)])
    def test_swap_cycle(self, iterations, expected):
        results = _run_engines(lambda: self._swap_module(iterations))
        assert results["codegen"][0] == expected
        assert results["codegen"] == results["interp"]

    def test_fibonacci_phis(self):
        # a, b = b, a + b: a value used by another phi's incoming
        # expression in the same parallel step.
        def build():
            mod = Module("fib")
            fn = mod.add_function("main", FunctionType(I64, []), [])
            entry = fn.add_block("entry")
            header = fn.add_block("header")
            body = fn.add_block("body")
            done = fn.add_block("done")
            b = IRBuilder(entry)
            b.br(header)
            b = IRBuilder(header)
            i = b.phi(I64, "i")
            a = b.phi(I64, "a")
            bb = b.phi(I64, "b")
            i.add_incoming(b.const_i64(0), entry)
            a.add_incoming(b.const_i64(0), entry)
            bb.add_incoming(b.const_i64(1), entry)
            b.cond_br(b.icmp("slt", i, b.const_i64(10)), body, done)
            b2 = IRBuilder(body)
            inext = b2.add(i, b2.const_i64(1))
            anext = bb
            bnext = b2.add(a, bb)
            i.add_incoming(inext, body)
            a.add_incoming(anext, body)
            bb.add_incoming(bnext, body)
            b2.br(header)
            b3 = IRBuilder(done)
            b3.ret(a)
            return mod

        results = _run_engines(build)
        assert results["codegen"][0] == 55  # fib(10)
        assert results["codegen"] == results["interp"]


class TestCycleRollback:
    """A raising step charges its block's executed prefix instead of
    the block's vector, so stats reflect exactly the instructions the
    tree-walker would have charged -- under profiling, the
    instrumentation-cycle share included."""

    @staticmethod
    def _div_by_zero_module():
        # Several charged instructions, then sdiv %x, 0 mid-block,
        # then more instructions that must NOT be charged.  One
        # instrumentation-tagged instruction on each side of the raise
        # point: only the first may be attributed.
        mod = Module("divzero")
        fn = mod.add_function("main", FunctionType(I32, []), [])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32)
        b.store(b.const_i32(7), slot).meta["mi"] = True
        x = b.load(slot)
        # The raising instruction itself is tagged too: it keeps its
        # charges, but the tree-walker never attributes them.
        q = b.binop("sdiv", x, b.const_i32(0))
        q.meta["mi"] = True
        y = b.add(q, b.const_i32(1))
        y.meta["mi"] = True
        b.ret(y)
        return mod

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["codegen", "codegen-profile"])
    def test_stats_identical_to_interp_at_raise(self, profile):
        vms = {}
        for engine in ENGINES:
            vm = VirtualMachine(self._div_by_zero_module(), engine=engine,
                                profile=profile)
            with pytest.raises(VMError):
                vm.run()
            vms[engine] = _stats_dict(vm)
        assert vms["codegen"] == vms["interp"]
        if profile:
            assert vms["codegen"]["instrumentation_cycles"] > 0

    def test_budget_exceeded_stats_identical(self):
        def build():
            mod = Module("spin")
            fn = mod.add_function("main", FunctionType(I32, []), [])
            entry = fn.add_block("entry")
            loop = fn.add_block("loop")
            b = IRBuilder(entry)
            b.br(loop)
            b = IRBuilder(loop)
            i = b.phi(I32)
            i.add_incoming(b.const_i32(0), entry)
            inext = b.add(i, b.const_i32(1))
            inext.meta["mi"] = True
            i.add_incoming(inext, loop)
            b.br(loop)
            return mod

        for profile in (False, True):
            stats = {}
            for engine in ENGINES:
                vm = VirtualMachine(build(), engine=engine,
                                    max_instructions=10_000,
                                    profile=profile)
                with pytest.raises(VMError, match="budget"):
                    vm.run()
                stats[engine] = _stats_dict(vm)
            assert stats["codegen"] == stats["interp"], profile

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["codegen", "codegen-profile"])
    def test_float_store_overflow_stats_identical(self, profile):
        # ``pack_into`` rejects a double too large for an f32 slot on
        # the store's access line, as ``write_float`` does in the
        # tree-walker: the line is in the table, the block is charged
        # its prefix.
        def build():
            mod = Module("f32")
            fn = mod.add_function("main", FunctionType(I32, []), [])
            b = IRBuilder(fn.add_block("entry"))
            slot = b.alloca(F32)
            b.store(b.const_float(1e300, F32), slot).meta["mi"] = True
            b.ret(b.add(b.const_i32(1), b.const_i32(2)))
            return mod

        stats = {}
        for engine in ENGINES:
            vm = VirtualMachine(build(), engine=engine, profile=profile)
            with pytest.raises(OverflowError):
                vm.run()
            stats[engine] = _stats_dict(vm)
        assert stats["codegen"] == stats["interp"]


class TestFcmpNaN:
    """Per-predicate fcmp on the codegen tier, plain and profiled
    emission, reusing the reference oracle and operand corpus of the
    engine-wide fcmp suite."""

    @pytest.mark.parametrize("pred", PREDICATES)
    def test_all_predicates_all_operands(self, pred):
        for profile in (False, True):
            for through_memory in (False, True):
                for a in OPERANDS:
                    for b in OPERANDS:
                        mod = _fcmp_module(pred, a, b, through_memory)
                        vm = VirtualMachine(mod, engine="codegen",
                                            profile=profile)
                        assert vm.run() == reference(pred, a, b), (
                            f"fcmp {pred} {a}, {b} "
                            f"(memory={through_memory}, "
                            f"profile={profile})")


class TestProfiledEmission:
    """``profile=True`` runs on codegen itself: the attribution code is
    part of the emission, and the emission cache keys on it."""

    @staticmethod
    def _module():
        mod = Module("p")
        fn = mod.add_function("main", FunctionType(I32, []), [])
        b = IRBuilder(fn.add_block("entry"))
        total = b.add(b.const_i32(2), b.const_i32(3))
        total.meta["mi"] = True
        b.ret(total)
        return mod

    @staticmethod
    def _native_module():
        # An instrumentation-tagged call of a general native that
        # charges cycles of its own (memset's per-byte cost).
        mod = Module("n")
        memset = mod.add_function(
            "memset", FunctionType(ptr(I8), [ptr(I8), I32, I64]))
        memset.native = True
        fn = mod.add_function("main", FunctionType(I32, []), [])
        b = IRBuilder(fn.add_block("entry"))
        buf = b.alloca(I8, b.const_i64(64))
        call = b.call(memset, [buf, b.const_i32(0), b.const_i64(64)])
        call.meta["mi"] = True
        b.ret(b.const_i32(5))
        return mod

    def test_profiled_run_matches_interp(self):
        for build in (self._module, self._native_module):
            results = _run_engines(build, profile=True)
            assert results["codegen"][0] == 5
            assert results["codegen"] == results["interp"]
            assert results["codegen"][1]["instrumentation_cycles"] > 0

    def test_profile_switch_reemits(self):
        mod = self._native_module()
        fn = mod.functions["main"]
        VirtualMachine(mod, engine="codegen").run()
        plain = fn._codegen_cache
        VirtualMachine(mod, engine="codegen", profile=True).run()
        profiled = fn._codegen_cache
        assert profiled[0] != plain[0]     # signature carries the switch
        # Only the profiled source snapshots the native's own cycles.
        assert "__m0 = __stats.cycles" not in plain[1]
        assert "__m0 = __stats.cycles" in profiled[1]
        assert ("__stats.instrumentation_cycles += __stats.cycles - __m0"
                in profiled[1])


class TestGeneratedShape:
    """Charges are data: a block entry is ``__ins += n`` and
    ``__bc[k] += 1``, a frame has one ``except`` clause, every line
    that can raise is in the line table ``__unwind`` reads, a check
    site calls its runtime only to fail, and a metadata native never
    calls it."""

    _ACCUMULATOR = re.compile(r"\b__(?:cy|mi)\b|\b__o_")
    _RAISING_CALL = re.compile(r"__site\(|__alloca\(|__dc\(|__call\(")

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["plain", "profile"])
    @pytest.mark.parametrize("label", LABELS)
    def test_one_handler_and_raising_lines_in_table(self, label, profile):
        emitted = 0
        for name in all_names():
            program = _compiled_program(name, label)
            vm = make_vm(program, engine="codegen", profile=profile)
            vm.load_globals()
            for fn in program.module.functions.values():
                if fn.native or fn.is_declaration:
                    continue
                compiled = CodegenFunction(vm, fn)
                source = compiled.source
                where = f"{name}/{label}: @{fn.name}"
                assert re.findall(r"^ *except\b.*$", source, re.M) == [
                    "    except BaseException as __e:"], where
                assert not self._ACCUMULATOR.search(source), where
                for no, line in enumerate(source.splitlines(), 1):
                    if self._RAISING_CALL.search(line):
                        assert no in compiled.steps, (where, no, line)
                emitted += 1
        assert emitted

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["plain", "profile"])
    @pytest.mark.parametrize("label", ["softbound", "lowfat",
                                       "softbound-hoist", "lowfat-hoist"])
    def test_checks_compared_inline(self, label, profile):
        """A check site is an inline comparison: no line calls a check
        native's full entry, and its raise-only entry is named only as
        the call guarded by an ``if <fails>:`` line in the line
        table."""
        guarded = 0
        for name in all_names():
            program = _compiled_program(name, label)
            vm = make_vm(program, engine="codegen", profile=profile)
            vm.load_globals()
            checks = {native for native, impl in vm.natives.items()
                      if isinstance(impl, CheckNative)}
            assert checks
            for fn in program.module.functions.values():
                if fn.native or fn.is_declaration:
                    continue
                compiled = CodegenFunction(vm, fn)
                binds = fn._codegen_cache[4]
                where = f"{name}/{label}: @{fn.name}"
                assert not [b for b in binds if b[1] in ("entry", "native")
                            and b[2] in checks], where
                fails = [n for n, kind, _ in binds if kind == "fail"]
                for no, line in enumerate(compiled.source.splitlines(), 1):
                    for n in fails:
                        if re.search(rf"\b{n}\(", line):
                            assert re.fullmatch(rf" *if .+: {n}\(.*\)",
                                                line), (where, line)
                            assert no in compiled.steps, (where, no, line)
                            guarded += 1
        assert guarded

    #: The metadata natives generated code runs inline.
    METADATA = re.compile(r"__sb_trie_|__sb_ss_|__lf_compute_base$")

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["plain", "profile"])
    @pytest.mark.parametrize("label", ["softbound", "lowfat",
                                       "softbound-hoist", "lowfat-hoist"])
    def test_metadata_natives_inline(self, label, profile):
        """No generated line calls or binds a trie, shadow-stack or
        base-recovery native: each runs as its template, over helpers
        its runtime registered."""
        inline = 0
        for name in all_names():
            program = _compiled_program(name, label)
            vm = make_vm(program, engine="codegen", profile=profile)
            vm.load_globals()
            metadata = {native for native, impl in vm.natives.items()
                        if self.METADATA.match(native)}
            assert metadata and all(
                type(vm.natives[n]) is TemplateNative for n in metadata)
            for fn in program.module.functions.values():
                if fn.native or fn.is_declaration:
                    continue
                CodegenFunction(vm, fn)
                binds = fn._codegen_cache[4]
                where = f"{name}/{label}: @{fn.name}"
                assert not [b for b in binds if b[1] != "helper"
                            and b[2] in metadata], where
                inline += sum(b[1] == "helper" and b[2][0] in metadata
                              for b in binds)
        assert inline


class TestWrappedCheckNatives:
    """A check native wrapped in a plain ``impl(vm, args)`` callable,
    as perfbench's tracer wraps every ``__sb_*``/``__lf_*`` native, is
    no check native to the emitter: generated code calls it, the
    runtime records each check, and nothing is counted twice."""

    @pytest.mark.parametrize("label", ["softbound", "lowfat"])
    @pytest.mark.parametrize("name", ["456hmmer", "164gzip"])
    def test_stats_identical_to_interp(self, name, label, monkeypatch):
        reference = _reference_run(name, label)
        register = VirtualMachine.register_native
        wrapped = []

        def register_wrapped(vm, native, impl):
            if isinstance(impl, CheckNative):
                wrapped.append(native)
                impl = (lambda vm, args, check=impl: check(vm, args))
            register(vm, native, impl)

        monkeypatch.setattr(VirtualMachine, "register_native",
                            register_wrapped)
        result = run_program(_compiled_program(name, label),
                             max_instructions=MAX_INSTRUCTIONS,
                             engine="codegen")
        assert wrapped
        assert result.output == reference.output
        assert (dataclasses.asdict(result.stats)
                == dataclasses.asdict(reference.stats))
        assert result.stats.checks_executed
        if (name, label) == ("164gzip", "softbound"):
            assert result.stats.checks_wide

    @pytest.mark.parametrize("label", ["softbound", "lowfat"])
    @pytest.mark.parametrize("name", ["456hmmer", "164gzip", "183equake"])
    def test_every_runtime_native_wrapped(self, name, label, monkeypatch):
        """Wrapped as the tracer wraps them, every ``__sb_*``/``__lf_*``
        native -- templates and checks alike -- is an ordinary call
        whose runtime counts the operation."""
        reference = _reference_run(name, label)
        register = VirtualMachine.register_native
        wrapped = []

        def register_wrapped(vm, native, impl):
            if native.startswith(("__sb_", "__lf_")):
                wrapped.append(native)
                impl = (lambda vm, args, impl=impl: impl(vm, args))
            register(vm, native, impl)

        monkeypatch.setattr(VirtualMachine, "register_native",
                            register_wrapped)
        result = run_program(_compiled_program(name, label),
                             max_instructions=MAX_INSTRUCTIONS,
                             engine="codegen")
        assert "__sb_trie_load_base" in wrapped or label == "lowfat"
        assert "__lf_compute_base" in wrapped or label == "softbound"
        assert result.output == reference.output
        assert (dataclasses.asdict(result.stats)
                == dataclasses.asdict(reference.stats))


class TestSourceDump:
    def test_dump_writes_numbered_files_with_block_comments(self, tmp_path):
        mod = Module("d")
        callee = mod.add_function("helper", FunctionType(I32, [I32]), ["x"])
        b = IRBuilder(callee.add_block("entry"))
        b.ret(b.add(callee.args[0], b.const_i32(1)))
        fn = mod.add_function("main", FunctionType(I32, []), [])
        b = IRBuilder(fn.add_block("entry"))
        b.ret(b.call(callee, [b.const_i32(41)]))

        vm = VirtualMachine(mod, engine="codegen")
        vm.codegen_dump_dir = str(tmp_path)
        assert vm.run() == 42
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["000_main.py", "001_helper.py"]
        source = (tmp_path / "000_main.py").read_text()
        assert "# codegen tier source for function @main" in source
        assert "# entry:" in source


INSTRUMENTED_SOURCE = r"""
long total(int *a, int n) {
    long s = 0;
    for (int i = 0; i < n; i++) s += a[i];
    return s;
}
int main() {
    int *a = (int *) malloc(sizeof(int) * 8);
    for (int i = 0; i < 8; i++) a[i] = i;
    print_i64(total(a, 8));
    free((void*)a);
    return 0;
}"""


class TestEmissionCache:
    """Emission is cached on the Function keyed by the VM-environment
    signature: fresh VMs over the same program skip the emitter, and
    the cache holds nothing of the VM that filled it."""

    @staticmethod
    def _module():
        mod = Module("c")
        fn = mod.add_function("main", FunctionType(I32, []), [])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32)
        b.store(b.const_i32(3), slot)
        b.ret(b.load(slot))
        return mod

    @staticmethod
    def _assert_fresh_vm_reuses_emission(mod, new_vm, expected):
        vm1 = new_vm()
        assert vm1.run() == expected
        emitted = {fn: fn._codegen_cache for fn in vm1._codegen}
        assert emitted and all(emitted.values())
        vm2 = new_vm()
        assert vm2.run() == expected
        for fn, cached in emitted.items():
            assert fn._codegen_cache is cached  # no re-emission
            cg1 = vm1._codegen[fn]
            cg2 = vm2._codegen[fn]
            assert cg1 is not cg2              # per-VM compiled object
            assert cg1.source == cg2.source    # shared emission
        assert vm1.output == vm2.output
        assert _stats_dict(vm1) == _stats_dict(vm2)

    def test_fresh_vm_reuses_source_and_code(self):
        mod = self._module()
        self._assert_fresh_vm_reuses_emission(
            mod, lambda: VirtualMachine(mod, engine="codegen"), 3)

    @pytest.mark.parametrize("label", ["softbound", "lowfat"])
    def test_fresh_vm_reuses_instrumented_emission(self, label):
        # Each VM installs its own runtime, whose natives are bound
        # methods of a per-VM object: the cache must key on their code.
        program = compile_program(INSTRUMENTED_SOURCE, config_for(label))
        self._assert_fresh_vm_reuses_emission(
            program.module, lambda: make_vm(program, engine="codegen"), 0)

    @pytest.mark.parametrize("label", ["baseline", "softbound", "lowfat"])
    def test_cached_emission_keeps_no_vm_alive(self, label):
        config = config_for(label)
        program = (compile_program(INSTRUMENTED_SOURCE, config)
                   if config is not None
                   else compile_program(INSTRUMENTED_SOURCE))
        vm = make_vm(program, engine="codegen")
        assert vm.run() == 0
        finished = weakref.ref(vm)
        del vm
        gc.collect()
        assert finished() is None
        assert program.module.functions["main"]._codegen_cache is not None

    @pytest.mark.parametrize("wide_first", [True, False],
                             ids=["wide-first", "null-first"])
    def test_runtimes_with_different_templates_keep_their_own(
            self, wide_first):
        # Two SoftBound VMs over one compiled module, differing only in
        # the bounds a trie miss gives: each sees its own, in either
        # order, however the emission cache is filled.
        from tests.softbound.test_runtime import TestMissingMetadataPolicy

        null = compile_program(TestMissingMetadataPolicy.SRC,
                               config_for("softbound"))
        wide = dataclasses.replace(null, config=null.config.with_(
            sb_missing_metadata_wide=True))
        order = [wide, null, wide] if wide_first else [null, wide, null]
        for program in order:
            result = run_program(program, engine="codegen")
            if program is wide:
                assert result.ok and result.output == ["5"]
            else:
                assert result.violation is not None

    def test_reused_emission_state_is_pristine(self):
        # The second VM must not observe the first VM's inline-cache
        # state (allocation objects belong to the first VM's memory).
        mod = self._module()
        results = []
        for _ in range(3):
            vm = VirtualMachine(mod, engine="codegen")
            results.append((vm.run(), _stats_dict(vm)))
        assert results[0] == results[1] == results[2]


class TestExecuteArgumentFixing:
    def test_extra_and_missing_arguments(self):
        mod = Module("a")
        fn = mod.add_function("f", FunctionType(I64, [I64, I64]), ["a", "b"])
        b = IRBuilder(fn.add_block("entry"))
        b.ret(fn.args[0])
        vm = VirtualMachine(mod, engine="codegen")
        vm.load_globals()
        compiled = CodegenFunction(vm, fn)
        assert compiled.execute([7, 8]) == 7        # exact
        assert compiled.execute([7, 8, 9]) == 7     # extra dropped
        assert compiled.execute([7]) == 7           # missing -> None


#: A callee whose second call reads the stack slot its first call
#: wrote.  Popping the frame frees the array, and the next frame gets a
#: fresh, zeroed one at the same base (the stack cursor is restored,
#: and Low-Fat reuses its stack slots LIFO), so only the ``freed`` flag
#: tells the load's site cache that its cached allocation is stale.
STACK_REUSE_SOURCE = r"""
long peek(long set) { long a[2]; if (set) a[1] = 7; return a[1]; }
int main() {
    long (*f)(long) = peek;
    print_i64(f(1));
    print_i64(f(0));
    return 0;
}"""

#: Byte, int, long, float and double accesses around 64 KiB
#: boundaries of an mmap-backed allocation.
SPARSE_SOURCE = r"""
int main() {
    char *p = (char *) malloc(4194304);
    long *q; double *d; int *r; float *f;
    p[65535] = 7; p[65536] = 9; p[100] = 3;
    print_i64(p[65535] + p[65536] + p[100] + p[200000]);
    q = (long *)(p + 65532); *q = 123456789012345; print_i64(*q);
    q = (long *)(p + 131072); *q = 5; print_i64(*q);
    print_i64(*(long *)(p + 300000));
    d = (double *)(p + 196604); *d = 2.5; print_f64(*d);
    d = (double *)(p + 262152); *d = 1.25; print_f64(*d);
    print_f64(*(double *)(p + 393216));
    r = (int *)(p + 65534); *r = 77; print_i64(*r);
    r = (int *)(p + 131070); *r = 300; print_i64(*r);
    f = (float *)(p + 327678); *f = 1.5; print_f64(*f);
    f = (float *)(p + 327680); *f = 0.5; print_f64(*f);
    print_f64(*(float *)(p + 458752));
    print_i64(p[65533] + p[65532]);
    free((void *)p);
    return 0;
}"""
SPARSE_OUTPUT = ["19", "123456789012345", "5", "0", "2.500000", "1.250000",
                 "0.000000", "77", "300", "1.500000", "0.500000", "0.000000",
                 "88"]


#: A 4-byte load walking a 16-byte allocation one byte at a time: at
#: ``p + 12`` it fits exactly, at ``p + 13`` it straddles the end.
STRADDLE_SOURCE = r"""
int main() {
    char *p = (char *) malloc(16);
    long s = 0;
    int i;
    for (i = 0; i < 14; i++) {
        s = s + *(int *)(p + i);
        print_i64(i);
    }
    return (int) s;
}"""


class TestSiteCache:
    """Every load and store goes through one per-site cache, refilled
    by ``Memory.site`` and invalidated by the ``freed`` flag alone."""

    @staticmethod
    def _outputs(source, label, options=None, profile=False):
        """{engine: output} of ``source`` compiled under ``label``; the
        runs must end normally with identical ``RuntimeStats``."""
        config = config_for(label)
        program = (compile_program(source, config, options)
                   if config is not None
                   else compile_program(source, options=options))
        outputs, stats = {}, []
        for engine in ENGINES:
            result = run_program(program, engine=engine, profile=profile)
            assert result.ok, (engine, result.describe())
            outputs[engine] = result.output
            stats.append(dataclasses.asdict(result.stats))
        assert all(s == stats[0] for s in stats)
        return outputs

    @pytest.mark.parametrize("profile", [False, True])
    @pytest.mark.parametrize("label", LABELS)
    def test_freed_alone_invalidates(self, label, profile):
        # -O0 without LTO: the callee keeps its frame and the load is
        # not forwarded from the store.
        options = CompileOptions(opt_level=0, link_time_optimization=False)
        outputs = self._outputs(STACK_REUSE_SOURCE, label, options, profile)
        assert outputs == {engine: ["7", "0"] for engine in ENGINES}

    @pytest.mark.parametrize("label", LABELS)
    def test_sparse_page_accesses(self, label):
        # A 4 MiB allocation is mmap-backed: every shape reads and
        # writes the mapping directly, across 64 KiB boundaries too;
        # unwritten pages read as zero.
        outputs = self._outputs(SPARSE_SOURCE, label)
        assert outputs == {engine: SPARSE_OUTPUT for engine in ENGINES}

    @pytest.mark.parametrize("profile", [False, True])
    def test_straddle_after_hit_faults(self, profile):
        # The site hits up to the last address the load fits at; one
        # byte further it misses and faults through ``Memory.locate``,
        # with the tree-walker's message and statistics.
        program = compile_program(STRADDLE_SOURCE)
        results = [run_program(program, engine=engine, profile=profile)
                   for engine in ENGINES]
        for result in results:
            assert result.output == [str(i) for i in range(13)]
            assert result.fault is not None, result.describe()
            assert result.fault.reason == (
                "access straddles end of heap#0 allocation")
        stats = [dataclasses.asdict(result.stats) for result in results]
        assert all(s == stats[0] for s in stats)

    #: The hit-or-refill line of site K at pointer P (``__p``, a local
    #: or a constant), then the access on ``__cdK`` at ``P - __clK``.
    _ACCESS = re.compile(
        r"^( *)if not __cl(\d+) <= (__p|v\d+|\(?-?\d+\)?) <= __ch\2 "
        r"or __ca\2\.freed: __ca\2, __cl\2, __ch\2, __cd\2 = "
        r"__site\(\3, \d+, (?:True|False)\)\n"
        r"\1(?! ).*\b__cd\2(?:\[|, )\3 - __cl\2\b.*$", re.M)
    _RETIRED = re.compile(
        r"_bases|_allocs|bisect|epoch|\b__E\b|__cp\d|__pg\b|__po\b"
        r"|__ZP\b|_pages")

    @pytest.mark.parametrize("label", LABELS)
    def test_one_refill_per_access(self, label):
        # An access is one hit-or-refill line and one access line.
        # Generated code names no part of how Memory indexes its
        # allocations, has no page path and no second invalidation
        # rule.
        for name in all_names():
            program = _compiled_program(name, label)
            vm = make_vm(program, engine="codegen")
            vm.load_globals()
            for fn in program.module.functions.values():
                if fn.native or fn.is_declaration:
                    continue
                source = CodegenFunction(vm, fn).source
                where = f"{name}/{label}: @{fn.name}"
                assert not self._RETIRED.search(source), where
                accesses = sum(isinstance(inst, (Load, Store))
                               for block in fn.blocks
                               for inst in block.instructions)
                sites = [m[1] for m in self._ACCESS.findall(source)]
                assert len(set(sites)) == len(sites) == accesses, where
                refills = [ln for ln in source.splitlines()
                           if "__site(" in ln]
                assert len(refills) == accesses, where
                assert all(ln.count("__site(") == 1
                           and ln.lstrip().startswith("if not __cl")
                           for ln in refills), where

    def test_constant_store_is_folded(self):
        # A constant has nothing to evaluate: storing 7 to a char puts
        # the masked 7 straight into the access line, with no ``__v``
        # line and no run-time int() conversion.
        program = compile_program(r"""
        char c[2];
        int main() { c[1] = 7; print_i64(c[1]); return 0; }""")
        vm = make_vm(program, engine="codegen")
        vm.load_globals()
        main = program.module.get_function("main")
        source = CodegenFunction(vm, main).source
        assert "int(" not in source and "__v =" not in source
        assert re.search(r"^ *__cd(\d+)\[\d+ - __cl\1\] = 7$", source, re.M)
