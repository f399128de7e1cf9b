"""Source-generation execution tier of the VM (``--engine codegen``).

The default engine.  Each IR function is translated *once* into a
single Python source string and ``exec``-ed, so hot code runs as real
compiled bytecode over real local variables:

* SSA values live in plain locals ``v<slot>`` (``LOAD_FAST``);
* basic blocks dispatch through a ``while True`` loop over an
  ``if __b == <idx>: ... elif`` jump table on the block index;
  single-predecessor blocks are inlined at their unique branch site
  (superblock formation), so straight-line runs and simple loops
  execute without any dispatch at all;
* phi moves become per-edge tuple assignments
  (``v3, v7 = <e1>, <e2>``), which are parallel by construction;
* binops, comparisons and casts are inlined as the expression
  templates of :mod:`repro.ir.semantics` (or call the evaluator the
  table compiles), GEPs as address arithmetic with branch-free sign
  correction (``(x ^ half) - half``), and single-use pure values are
  fused textually into their consumer;
* a load or store is two lines over a per-site inline cache of the
  last allocation it hit -- four module-level variables (allocation,
  low and high bound, buffer): one line refills them from
  ``Memory.site`` unless the pointer hits and the allocation is not
  ``freed`` (the only invalidation), the other reads or writes the
  buffer, a bytearray or an mmap alike, at ``p - low``;
* a block's charges -- native calls' included -- are static data:
  entering the block runs ``__ins += n`` and ``__bc[k] += 1``, and the
  block's vector of cycles and opcode counts is multiplied in later;
  only the absolute instruction count ``__ins`` is published to
  ``RuntimeStats`` eagerly -- before every call of program code
  (callees check the budget against it) and at frame exit;
* a :class:`~repro.vm.native.TemplateNative` -- SoftBound's trie and
  shadow-stack operations, Low-Fat's base recovery -- runs inline as
  the expression or one-line statement its runtime registered, over
  helpers bound per VM (the trie's dict, the shadow stack's lists, the
  mask table), so it makes no Python-level call; a pure one is fused
  into its consumer like an instruction;
* a :class:`~repro.vm.native.CheckNative` (the dereference and escape
  checks) is compared inline, from its test templates: a passing check
  makes no Python-level call, and the runtime is called only to raise
  the violation.

Statistics contract: field-for-field :class:`RuntimeStats` equality
with the tree-walker at every observable point.  The only points
where statistics are observable are the end of a run, the moment a
``MemoryFault`` / ``MemSafetyViolation`` / ``ProgramAbort`` / exit
request escapes the VM, and the return of a direct ``call_function``
-- natives only ever *add* to the counters, none reads them or
re-enters the VM.  Each is a moment when no program frame is live, and
there the VM folds every function's block counts times its block
vectors into ``RuntimeStats`` (:meth:`CodegenFunction.fold`).  An
inline check is part of its call's charge, so the vector counts its
executions -- ``checks_executed`` or ``invariant_checks`` and the
site's ``per_site`` entry, through ``RuntimeStats``' bulk ``record_*``
forms, which create no zero entry.  Likewise an inline template
native's charge carries the counter its runtime adds to
(``trie_loads``, ``trie_stores``, ``shadow_stack_ops``), so the vector
adds one per execution, raising-step prefixes included.  A check
whose wide test is only known at run time counts its wide executions
in the function's ``__wd`` list, folded into ``checks_wide`` and the
site's ``wide``;
one whose wide test folds to true at emission is counted wide by its
vector.  A native wrapped in a plain callable is no template native:
it gets an ordinary call and its runtime records the check or counts
the operation, so each is counted on exactly one path.  A frame
has one ``except BaseException`` handler: the line an exception
passed names the raising step (loads, stores, allocas, integer
division by anything but a nonzero constant, float-to-integer
conversion, every call but an inline template's) in a static line
table, so the raising block is charged its executed prefix instead of
its whole vector -- a failing
check's prefix includes the check itself, which the tree-walker
records before comparing -- and ``__ins``
loses the block's unexecuted suffix; calls of program code resync it
from the callee's exactly-published count first.  Each generated
statement is one physical line, which the line table relies on.
Fusion and inlining decisions only move *when* a pure expression is
computed, never what is charged, so fusion may be depth-capped without
observable effect.  Operands that evaluate a function address or
unloaded global (``"f"`` descriptors) are never fused or folded,
because their evaluation order is program-visible: function addresses
are assigned lazily at first evaluation, like the tree-walker does.

Profiling (``profile=True``) specializes the emission.  Each block
vector and each raising step's prefix also carries the cycles of the
instructions the instrumentation inserted (``meta["mi"]``), folded into
``instrumentation_cycles`` -- a prefix without the raising
instruction's own share, which the tree-walker never attributes -- and
``mi`` calls into general natives add the ``stats.cycles`` delta of
the runtime's internal charges straight to ``instrumentation_cycles``.
That equals the tree-walker's per-instruction attribution; unprofiled
emission carries no attribution code.  Per-site profiling shares the
inline path: the fold adds each check site's executions times the
check's call cost to its ``cycles`` (and, for an escape check, its
executions to ``invariant``), prefixes included, as the tree-walker
records a check's cost before comparing.  Only a profiled emission
calls the runtime on a check's wide path, and only for a check
native that records dynamic wide reasons (Low-Fat's).

Emission is cached on the :class:`Function` itself
(``fn._codegen_cache``) keyed by the VM environment it depends on.
The cached namespace template holds only VM-independent entries;
every VM binds its own helpers, natives and global getters into a
copy, so a fresh VM over the same program skips the emitter and
``compile()`` alike, and a cached emission keeps no VM alive.
"""

from __future__ import annotations

import functools
import os
import re
import string
import struct
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import MemoryFault, VMError
from ..ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    GEP,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from ..ir.module import BasicBlock, Function, GlobalVariable
from ..ir.semantics import (HELPERS, TEMPLATES, TRAPPING, compiled, fold,
                             operation)
from ..ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    VoidType,
    size_of,
    struct_field_offset,
)
from ..ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantZero,
    UndefValue,
    Value,
)
from . import costs
from .native import CheckNative, TemplateNative

if TYPE_CHECKING:  # pragma: no cover
    from .interpreter import VirtualMachine

U64_MASK = (1 << 64) - 1

#: Cap on textual fusion depth: bounds parenthesis nesting so the
#: CPython parser never sees pathologically deep expressions.  Fusion
#: depth is unobservable in RuntimeStats, so capping is always safe.
_MAX_FUSE_DEPTH = 24

#: Cap on single-predecessor block inlining depth (bounds source
#: indentation; blocks past the cap get a dispatch label instead).
_MAX_INLINE_DEPTH = 36

_BUDGET_CHECK = ('if __ins > __maxi: raise __VMError('
                 '"instruction budget exceeded (infinite loop?)")')

#: Operations codegen calls through their compiled evaluator, bound
#: once per site, instead of inlining their template: integer division,
#: a bitcast that reinterprets bits, and each fcmp predicate that is
#: not a flag ``(1 if C else 0)`` over one Python comparison.
_CALLED = frozenset((
    "sdiv", "udiv", "srem", "urem", "bitcast to float", "bitcast to int",
    "fcmp one", "fcmp ord", "fcmp ueq", "fcmp ugt", "fcmp uge",
    "fcmp ult", "fcmp ule", "fcmp uno",
))
#: A ptrtoint to i64, as ``ir.semantics.operation`` gives it.
_PTRTOINT_64 = ("ptrtoint", f"({{a}} & {U64_MASK})")
#: Operations whose template names an operand twice.
_TWICE = frozenset(key for key, template in TEMPLATES.items()
                   if template.count("{a}") > 1 or template.count("{b}") > 1)


def _native_code(impl) -> object:
    """What a native runs, as opposed to the per-VM object that runs
    it: a runtime registers bound methods of its own per-VM instance,
    which share one code object across VMs.  A template native is keyed
    on its templates and counter too, so runtimes whose templates differ
    never share generated source."""
    if isinstance(impl, TemplateNative):
        key = (type(impl), impl.arity, impl.expr, impl.stmt, impl.counter,
               impl.pure, tuple(impl.helpers), _native_code(impl.entry))
        if isinstance(impl, CheckNative):
            key += (impl.kind, impl.fails, impl.wide,
                    _native_code(impl.fail),
                    impl.reason and _native_code(impl.reason))
        return key
    func = getattr(impl, "__func__", impl)
    return getattr(func, "__code__", func)


def _env_signature(vm: "VirtualMachine") -> Tuple:
    """Everything the emitter consults that can change the *generated
    source* or the charges emitted with it: loaded-global addresses
    (constant folding + getter shape), which natives are registered and
    as what code (call shape), the profiling switch (cycle attribution
    code) and the cost tables (block vectors).  Two VMs with equal
    signatures get byte-identical source and share the cached emission;
    each binds its own objects into it."""
    return (
        tuple((id(g), a) for g, a in vm.global_addresses.items()),
        tuple((n, _native_code(f)) for n, f in vm.natives.items()),
        vm.stats.profile,
        costs.signature(),
    )


def cached_signature(vm: "VirtualMachine", fn: Function) -> Optional[Tuple]:
    """``vm``'s environment signature when ``fn``'s emission is cached
    for it, else None."""
    cached = getattr(fn, "_codegen_cache", None)
    if cached is None:
        return None
    signature = _env_signature(vm)
    return signature if cached[0] == signature else None


def _vectors(charges, cuts) -> List[Tuple]:
    """What runs of ``(opcode, cycles, mi, check, counter)`` charges add
    to RuntimeStats, in one pass: for each ``(end, attributed)`` cut, in
    ascending order of ends, the vector of ``charges[:end]`` whose mi
    share covers only the first ``attributed`` charges; then the vector
    of all of them.  A vector is ``(cycles, mi cycles, ((opcode, count),
    ...), ((check, count), ...), ((counter, count), ...))``, where a
    check is an inline check site's ``(kind, site, always wide, call
    cost)``, counted once per execution, and a counter the
    ``RuntimeStats`` field an inline template native adds one to."""
    vectors = []
    cycles = 0
    mi = [0]                 # mi cycles of charges[:i], by i
    counts: Dict[str, int] = {}
    checks: Dict[Tuple, int] = {}
    counters: Dict[str, int] = {}
    done = 0
    for end, attributed in cuts + [(len(charges), len(charges))]:
        for op, c, is_mi, check, counter in charges[done:end]:
            cycles += c
            mi.append(mi[-1] + c if is_mi else mi[-1])
            counts[op] = counts.get(op, 0) + 1
            if check is not None:
                key = check + (c,)
                checks[key] = checks.get(key, 0) + 1
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + 1
        done = end
        vectors.append((cycles, mi[attributed], tuple(counts.items()),
                        tuple(checks.items()), tuple(counters.items())))
    return vectors


def _add(stats, vector: Tuple, times: int) -> None:
    """Charge ``vector`` ``times`` times; loads, stores and native
    calls are counted by their opcodes, each inline check as many
    times as the tree-walker would have recorded it, and each inline
    template native's counter as often as its runtime would have
    added to it."""
    cycles, mi, counts, checks, counters = vector
    stats.cycles += times * cycles
    stats.instrumentation_cycles += times * mi
    opcode_counts = stats.opcode_counts
    for op, count in counts:
        count *= times
        opcode_counts[op] += count
        if op == "load":
            stats.loads += count
        elif op == "store":
            stats.stores += count
        elif op.startswith("native:"):
            stats.calls += count
    for (kind, site, wide, cost), count in checks:
        count *= times
        if kind == "invariant":
            stats.record_invariants(site, count, cost)
            continue
        stats.record_checks(site, count, cost)
        if wide:
            stats.record_wide(site, count)
    for name, count in counters:
        setattr(stats, name, getattr(stats, name) + times * count)


@functools.lru_cache(maxsize=64)
def _arguments_read(template: str) -> Tuple[int, ...]:
    """The argument indices a template names (``{0}``, ...)."""
    return tuple(int(f) for _, f, _, _ in string.Formatter().parse(template)
                 if f is not None and f.isdigit())


def _as_condition(expr: str) -> str:
    """Truthiness form of a generated expression.

    The icmp/fcmp inliners emit exactly ``(1 if C else 0)`` (fixed
    6-char prefix / 8-char suffix, and no other expression shape starts
    with the prefix), whose truthiness equals ``C``'s -- stripping the
    wrapper saves an int construction and a re-test per evaluation in
    boolean contexts (condbr, select)."""
    if expr.startswith("(1 if ") and expr.endswith(" else 0)"):
        return expr[6:-8]
    return expr


def _is_flag_expr(desc: Tuple) -> bool:
    """True for a fused pure expression of the ``(1 if C else 0)``
    shape (an inlined icmp/fcmp, possibly forwarded through zext)."""
    return (desc[0] == "p" and desc[1].startswith("(1 if ")
            and desc[1].endswith(" else 0)"))


def _raiser0(exc: Exception):
    """Zero-argument raiser usable inside a generated expression."""

    def step():
        raise exc

    return step


def _global_getter(vm: "VirtualMachine", value: GlobalVariable):
    def getter():
        try:
            return vm.global_addresses[value]
        except KeyError:
            raise VMError(f"global @{value.name} not loaded") from None

    return getter


def _bind_vm(ns: Dict[str, object], vm: "VirtualMachine",
             binds: List[Tuple[str, str, object]]) -> None:
    """Add one VM's objects to a namespace copied from a cached,
    VM-independent template: the fixed helpers plus the emission's
    ``(name, kind, key)`` bindings -- a global's getter, a native, a
    template native's helper, or a check's ``fail`` or ``reason``."""
    stats = vm.stats
    ns.update(
        __vm=vm, __stats=stats, __site=vm.memory.site,
        __alloca=vm.stack.alloca, __call=vm.call_function,
        __dc=vm._codegen_direct_call, __charge=stats.charge,
        __fa=vm.function_address, __fba=vm._functions_by_address,
    )
    for name, kind, key in binds:
        if kind == "global":
            ns[name] = _global_getter(vm, key)
        elif kind == "native":
            ns[name] = vm.natives[key]
        elif kind == "helper":
            ns[name] = vm.natives[key[0]].helpers[key[1]]
        else:
            ns[name] = getattr(vm.natives[key], kind)


class CodegenFunction:
    """One IR function translated to generated Python source, bound to
    one VM.

    ``counts[k]`` is how often block ``k`` was entered since the last
    :meth:`fold`; ``blocks[k]`` is that block's charge vector, and
    ``steps`` maps a source line of a raising step to ``(k, prefix
    vector, suffix instruction count, is a call)``.  ``wides[j]``
    counts the wide executions of the inline check at site
    ``wide_sites[j]`` whose wideness is only known at run time."""

    __slots__ = ("vm", "fn", "arg_count", "source", "_run", "blocks",
                 "steps", "counts", "wide_sites", "wides")

    def __init__(self, vm: "VirtualMachine", fn: Function, index: int = 0,
                 signature: Optional[Tuple] = None):
        self.vm = vm
        self.fn = fn
        self.arg_count = len(fn.args)
        # Emission is cached on the Function keyed by the VM-environment
        # signature: a fresh VM over the same program (the common case
        # -- benchmarks, differential runs, fuzz cells) skips the whole
        # emitter and binds only its own objects.
        sig = signature or _env_signature(vm)
        cached = getattr(fn, "_codegen_cache", None)
        if cached is None or cached[0] != sig:
            source, template, binds, blocks, steps, wide_sites = \
                _SourceEmitter(vm, fn).emit()
            if cached is not None and cached[1] == source:
                code = cached[2]
            else:
                code = compile(source, f"<codegen:{fn.name}>", "exec")
            cached = fn._codegen_cache = (sig, source, code, template, binds,
                                          blocks, steps, wide_sites)
        (_, source, code, template, binds, self.blocks, self.steps,
         self.wide_sites) = cached
        # The template is never exec-ed itself, so the per-site
        # inline-cache variables it carries are in their pristine
        # initial state -- no reset loop needed.
        ns = dict(template)
        _bind_vm(ns, vm, binds)
        self.counts = ns["__bc"] = [0] * len(self.blocks)
        self.wides = ns["__wd"] = [0] * len(self.wide_sites)
        ns["__unwind"] = self._unwind
        self.source = source
        dump_dir = getattr(vm, "codegen_dump_dir", None)
        if dump_dir:
            self._dump(dump_dir, index)
        exec(code, ns)
        self._run = ns["__run"]

    def _dump(self, dump_dir: str, index: int) -> None:
        os.makedirs(dump_dir, exist_ok=True)
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", self.fn.name)
        path = os.path.join(dump_dir, f"{index:03d}_{safe}.py")
        with open(path, "w") as fh:
            fh.write(self.source)

    def execute(self, args: List) -> Optional[object]:
        n = self.arg_count
        if len(args) == n:
            return self._run(*args)
        # Same semantics as the tree-walker's zip over the formals:
        # extra arguments are dropped, missing ones read as None.
        return self._run(*(list(args) + [None] * n)[:n])

    def fold(self) -> None:
        """Charge every block entered since the last fold, and count
        the wide executions of its checks; the VM calls this when no
        program frame is live."""
        stats = self.vm.stats
        counts = self.counts
        for k, n in enumerate(counts):
            if n:
                _add(stats, self.blocks[k], n)
                counts[k] = 0
        wides = self.wides
        for j, n in enumerate(wides):
            if n:
                stats.record_wide(self.wide_sites[j], n)
                wides[j] = 0

    def _unwind(self, exc: BaseException, ins: int) -> int:
        """``__ins`` once ``exc`` leaves the frame: the raising step's
        block is charged its executed prefix instead of its vector.  A
        line outside the table (a budget or phi raise between blocks)
        takes nothing back."""
        step = self.steps.get(exc.__traceback__.tb_lineno)
        if step is None:
            return ins
        k, prefix, suffix, call = step
        self.counts[k] -= 1
        stats = self.vm.stats
        _add(stats, prefix, 1)
        # A callee published its exact count, even on a raise.
        return stats.instructions if call else ins - suffix


class _SourceEmitter:
    """Builds the source string plus the exec namespace for one
    function.

    Operand descriptors: ``("s", slot)`` for
    locals, ``("c", value)`` for compile-time constants, ``("p", expr,
    depth)`` for fused pure expressions, ``("f", expr, depth)`` for
    impure expressions (function addresses, unloaded globals,
    undefined values) that must evaluate exactly where the tree-walker
    would evaluate them.
    """

    def __init__(self, vm: "VirtualMachine", fn: Function):
        self.vm = vm
        self.fn = fn
        self.slots: Dict[Value, int] = {}
        self.uses: Dict[Value, int] = {}
        self._nbind = 0
        self._nsite = 0
        self._globals: List[str] = []
        #: ``(binding name, kind, key)`` for the per-VM ``__k``
        #: bindings (see :func:`_bind_vm`); ``self.ns`` itself holds
        #: only VM-independent entries.
        self._vm_binds: List[Tuple[str, str, object]] = []
        self._native_binds: Dict[Tuple[str, str], str] = {}
        self.ns: Dict[str, object] = {
            "__VMError": VMError,
            "__MemoryFault": MemoryFault,
            "__fb": int.from_bytes,
            # Pre-bound Struct methods: no per-access format parsing,
            # no intermediate bytes objects on any buffer.
            "__ld2": struct.Struct("<H").unpack_from,
            "__ld4": struct.Struct("<I").unpack_from,
            "__ld8": struct.Struct("<Q").unpack_from,
            "__st2": struct.Struct("<H").pack_into,
            "__st4": struct.Struct("<I").pack_into,
            "__st8": struct.Struct("<Q").pack_into,
            "__lf4": struct.Struct("<f").unpack_from,
            "__lf8": struct.Struct("<d").unpack_from,
            "__sf4": struct.Struct("<f").pack_into,
            "__sf8": struct.Struct("<d").pack_into,
            **HELPERS,
        }
        # Per-block compile state.
        self._pending: Dict[Value, Tuple] = {}
        #: (opcode, cycles, mi, inline check or None, counter or None)
        #: per charged instruction of the block.
        self._charges: List[Tuple[str, int, bool, Optional[Tuple],
                                  Optional[str]]] = []
        #: (lines, prefix end, own-charge index, is program call); the
        #: prefix end is None for a step that cannot raise.
        self._steps: List[Tuple[List[str], Optional[int], int, bool]] = []
        #: Index of the current instruction's own charge.
        self._own = 0
        #: Charge vector of each compiled block, by counter index.
        self._blocks: List[Tuple] = []
        #: Line-table entry of each raising step, by marker number.
        self._raising: List[Tuple] = []
        #: Site of each inline check with a wide test, by ``__wd`` index.
        self._wide_sites: List[object] = []
        # Profiling: attribute the charges of ``mi`` instructions.
        self.profile = vm.stats.profile

    # -- driver --------------------------------------------------------
    def emit(self) -> Tuple[str, Dict[str, object],
                            List[Tuple[str, str, object]], List[Tuple],
                            Dict[int, Tuple], List[object]]:
        """The source, its VM-independent namespace template, the
        per-VM bindings it needs, the block vectors, the line table
        and the sites of the ``__wd`` wide counters."""
        self._assign_slots()
        self._analyze_cfg()
        self.code: Dict[BasicBlock, Tuple[List[str], Tuple]] = {}
        for block in self.fn.blocks:
            if block in self.reachable:
                self.code[block] = self._compile_block(block)
        arms = self._layout()
        source, steps = self._assemble(arms)
        return (source, self.ns, self._vm_binds, self._blocks, steps,
                self._wide_sites)

    def _assign_slots(self) -> None:
        fn = self.fn
        for arg in fn.args:
            self.slots[arg] = len(self.slots)
        uses = self.uses
        for block in fn.blocks:
            for inst in block.instructions:
                if isinstance(inst, Call):
                    if inst.type.is_first_class():
                        self.slots[inst] = len(self.slots)
                elif not isinstance(inst.type, VoidType):
                    self.slots[inst] = len(self.slots)
                for op in inst.operands:
                    if isinstance(op, Instruction):
                        uses[op] = uses.get(op, 0) + 1

    def _analyze_cfg(self) -> None:
        fn = self.fn
        term_insts: Dict[BasicBlock, Optional[Instruction]] = {}
        for block in fn.blocks:
            term_insts[block] = next(
                (i for i in block.instructions
                 if isinstance(i, (Br, CondBr, Ret))),
                None,
            )
        self.term_insts = term_insts
        entry = fn.entry
        reachable = set()
        work = [entry]
        while work:
            b = work.pop()
            if b in reachable:
                continue
            reachable.add(b)
            t = term_insts[b]
            if isinstance(t, (Br, CondBr)):
                for s in t.successors:
                    if s not in reachable:
                        work.append(s)
        self.reachable = reachable
        preds: Dict[BasicBlock, int] = {b: 0 for b in reachable}
        for b in reachable:
            t = term_insts[b]
            if isinstance(t, (Br, CondBr)):
                for s in t.successors:
                    preds[s] += 1
        self.block_index = {b: i for i, b in enumerate(fn.blocks)}
        # Dispatch labels: the entry plus every join point.  Reachable
        # single-predecessor blocks are inlined at their unique branch
        # site instead (any single-pred cycle necessarily contains a
        # labeled block, so inlining terminates).
        self.labels = {entry}
        for b in reachable:
            if preds[b] >= 2:
                self.labels.add(b)

    # -- namespace bindings --------------------------------------------
    def _bind(self, value) -> str:
        name = f"__k{self._nbind}"
        self._nbind += 1
        self.ns[name] = value
        return name

    def _bind_per_vm(self, kind: str, key) -> str:
        name = f"__k{self._nbind}"
        self._nbind += 1
        self._vm_binds.append((name, kind, key))
        return name

    def _bind_native(self, kind: str, key) -> str:
        """One binding per native (or helper, or check entry) per
        function."""
        name = self._native_binds.get((kind, key))
        if name is None:
            name = self._native_binds[(kind, key)] = \
                self._bind_per_vm(kind, key)
        return name

    def _new_site(self) -> Tuple[str, str, str, str]:
        """Fresh per-site inline-cache variables (module-level, so
        they persist across calls), in the order of the
        :meth:`Memory.site` tuple that refills them: allocation, low
        bound, inclusive high bound (pre-adjusted by the access size
        so the hit test is one chained comparison) and the backing
        buffer, so a hit touches neither ``alloc.data`` nor
        :class:`Memory`."""
        k = self._nsite
        self._nsite += 1
        names = (f"__ca{k}", f"__cl{k}", f"__ch{k}", f"__cd{k}")
        # Initially empty: ``0 <= p <= -1`` never hits, so the first
        # access refills before the allocation is ever touched.
        self.ns.update(zip(names, (None, 0, -1, None)))
        self._globals.extend(names)
        return names

    # -- operand resolution --------------------------------------------
    def _operand(self, value: Value) -> Tuple:
        pending = self._pending.pop(value, None)
        if pending is not None:
            return pending
        if isinstance(value, (Instruction, Argument)):
            slot = self.slots.get(value)
            if slot is None:
                name = self._bind(
                    _raiser0(VMError(f"use of undefined value %{value.name}")))
                return ("f", f"{name}()", 1)
            return ("s", slot)
        if isinstance(value, ConstantInt):
            return ("c", value.value)
        if isinstance(value, ConstantFloat):
            return ("c", value.value)
        if isinstance(value, (ConstantNull, ConstantZero, UndefValue)):
            return ("c", 0.0 if isinstance(value.type, FloatType) else 0)
        if isinstance(value, GlobalVariable):
            address = self.vm.global_addresses.get(value)
            if address is not None:
                return ("c", address)
            name = self._bind_per_vm("global", value)
            return ("f", f"{name}()", 1)
        if isinstance(value, Function):
            # Lazy, evaluation-order-preserving address assignment,
            # exactly like the tree-walker.
            name = self._bind(value)
            return ("f", f"__fa({name})", 1)
        name = self._bind(_raiser0(VMError(f"cannot evaluate value {value!r}")))
        return ("f", f"{name}()", 1)

    def _expr(self, desc: Tuple) -> str:
        kind = desc[0]
        if kind == "s":
            return f"v{desc[1]}"
        if kind == "c":
            return self._const_expr(desc[1])
        return desc[1]

    def _const_expr(self, v) -> str:
        if isinstance(v, int):
            return repr(v) if v >= 0 else f"({v!r})"
        if isinstance(v, float):
            if v != v or v in (float("inf"), float("-inf")):
                return self._bind(v)
            r = repr(v)
            return f"({r})" if r.startswith("-") else r
        return self._bind(v)

    @staticmethod
    def _depth(desc: Tuple) -> int:
        return desc[2] if len(desc) > 2 else 0

    @staticmethod
    def _fusable(*descs: Tuple) -> bool:
        return all(d[0] in ("s", "c", "p") for d in descs)

    # -- step / charge bookkeeping -------------------------------------
    def _charge(self, opcode: str, cycles: int, mi: bool = False,
                check: Optional[Tuple] = None,
                counter: Optional[str] = None) -> None:
        self._charges.append((opcode, cycles, mi and self.profile, check,
                              counter))

    def _step(self, lines: List[str], raising: bool = False,
              call: bool = False) -> None:
        self._steps.append(
            (lines, len(self._charges) if raising else None, self._own,
             call))

    def _assign(self, inst: Instruction, desc: Tuple) -> None:
        self._step([f"v{self.slots[inst]} = {self._expr(desc)}"])

    def _sink_value(self, inst: Instruction, desc: Tuple, operands) -> None:
        """Fuse a pure value (or forward a local) into its single
        consumer, or materialize it into its local at the current
        position."""
        if (desc[0] in ("s", "c", "p")
                and self.uses.get(inst, 0) == 1
                and self._fusable(*operands)
                and self._depth(desc) <= _MAX_FUSE_DEPTH):
            self._pending[inst] = desc
        else:
            self._assign(inst, desc)

    def _materialize_pending(self) -> None:
        for value, desc in self._pending.items():
            self._assign(value, desc)
        self._pending = {}

    def _attributed(self, inst: Instruction, lines: List[str]) -> List[str]:
        """Wrap the lines of a native call so that, when profiling an
        ``mi`` call, the ``stats.cycles`` it charges outside the block
        vector -- a general native's internal charges, or the whole
        call when ``call_function`` charges it -- also go to
        ``instrumentation_cycles``, completing the tree-walker's
        per-instruction delta.  Nothing is attributed on a raise, also
        like the tree-walker."""
        if not (self.profile and "mi" in inst.meta):
            return lines
        return (["__m0 = __stats.cycles"] + lines
                + ["__stats.instrumentation_cycles += __stats.cycles - __m0"])

    def _finalize_block(self) -> List[str]:
        # Entering the block counts it; its vector is charged by the
        # fold, or its prefix by ``__unwind`` when a step raises.
        charges = self._charges
        k = len(self._blocks)
        *prefixes, whole = _vectors(
            charges, [(ci, own) for _, ci, own, _ in self._steps
                      if ci is not None])
        self._blocks.append(whole)
        prefixes = iter(prefixes)
        out = [f"__ins += {len(charges)}", f"__bc[{k}] += 1"]
        for lines, ci, own, is_call in self._steps:
            if ci is None:
                out.extend(lines)
                continue
            if is_call:
                # Publish the exact instruction count to the callee --
                # without the block's suffix (the terminator at least),
                # which has not run yet -- and resync from the count it
                # publishes.
                suffix = len(charges) - ci
                lines = ([f"__stats.instructions = __ins - {suffix}"]
                         + lines
                         + [f"__ins = __stats.instructions + {suffix}"])
            # A raising instruction keeps its own charges but, like in
            # the tree-walker, never gets them attributed.  Each line
            # is marked with its entry; ``_assemble`` numbers them.
            mark = f"\0{len(self._raising)}"
            self._raising.append((k, next(prefixes), len(charges) - ci,
                                  is_call))
            out.extend(ln + mark for ln in lines)
        return out

    # -- per-block compilation -----------------------------------------
    def _compile_block(self, block: BasicBlock) -> Tuple[List[str], Tuple]:
        self._pending = {}
        self._charges = []
        self._steps = []
        term_inst = self.term_insts[block]
        phis = block.phis()
        for _ in phis:
            # Charged with the block vector, after the moves ran --
            # matching the tree-walker's evaluate-then-charge order.
            self._charge("phi", costs.INSTRUCTION_COSTS["phi"])
        for inst in block.instructions[len(phis):]:
            if inst is term_inst:
                self._charge(inst.opcode, costs.INSTRUCTION_COSTS[inst.opcode])
                break
            self._compile_instruction(inst)
        # The terminator may consume a pending fused expression, so
        # resolve its operand before materializing the leftovers; its
        # expression still evaluates after them at runtime because the
        # branch line is emitted last.
        term = self._compile_terminator(block, term_inst)
        self._materialize_pending()
        return self._finalize_block(), term

    def _compile_instruction(self, inst) -> None:
        cls = type(inst)
        mi = "mi" in inst.meta
        self._own = len(self._charges)
        if cls is Load:
            self._charge("load", costs.INSTRUCTION_COSTS["load"], mi=mi)
            self._compile_load(inst)
        elif cls is Store:
            self._charge("store", costs.INSTRUCTION_COSTS["store"], mi=mi)
            self._compile_store(inst)
        elif cls is BinOp:
            self._charge(inst.opcode, costs.INSTRUCTION_COSTS[inst.opcode],
                         mi=mi)
            self._compile_binop(inst)
        elif cls is GEP:
            self._charge("gep", costs.INSTRUCTION_COSTS["gep"], mi=mi)
            self._compile_gep(inst)
        elif cls is ICmp:
            self._charge("icmp", costs.INSTRUCTION_COSTS["icmp"], mi=mi)
            self._compile_icmp(inst)
        elif cls is FCmp:
            self._charge("fcmp", costs.INSTRUCTION_COSTS["fcmp"], mi=mi)
            self._compile_fcmp(inst)
        elif cls is Cast:
            self._charge(inst.opcode, costs.INSTRUCTION_COSTS[inst.opcode],
                         mi=mi)
            self._compile_cast(inst)
        elif cls is Select:
            self._charge("select", costs.INSTRUCTION_COSTS["select"], mi=mi)
            self._compile_select(inst)
        elif cls is Call:
            self._compile_call(inst)
        elif cls is Alloca:
            self._charge("alloca", costs.INSTRUCTION_COSTS["alloca"], mi=mi)
            self._compile_alloca(inst)
        elif cls is Phi:
            # A phi past the leading run: the tree-walker dispatches
            # on it and raises, without charging it.
            name = self._bind(
                VMError(f"phi executed without predecessor: {inst}"))
            self._step([f"raise {name}"], raising=True)
        elif cls is Unreachable:
            name = self._bind(VMError("executed 'unreachable'"))
            self._step([f"raise {name}"], raising=True)
        else:
            name = self._bind(
                VMError(f"cannot interpret instruction: {inst}"))
            self._step([f"raise {name}"], raising=True)

    # -- arithmetic / comparisons / casts ------------------------------
    def _compile_binop(self, inst: BinOp) -> None:
        a = self._operand(inst.lhs)
        b = self._operand(inst.rhs)
        try:
            op = operation(inst)
        except VMError as exc:  # an integer op on floats, or the reverse
            self._step([f"raise {self._bind(exc)}"], raising=True)
            return
        self._scalar(inst, op, (a, b))

    def _compile_icmp(self, inst: ICmp) -> None:
        a = self._operand(inst.lhs)
        b = self._operand(inst.rhs)
        pred = inst.predicate
        # Flag-recompare peephole: ``icmp ne/eq (flag), 0`` of an
        # already-0/1 inlined comparison passes the flag through (or
        # inverts its arms) instead of re-wrapping it -- the frontend's
        # ``bool != 0`` / ``!bool`` chains collapse to one test.
        if b == ("c", 0) and _is_flag_expr(a):
            if pred in ("ne", "ugt"):
                self._sink_value(inst, a, (a, b))
                return
            if pred == "eq":
                inner = _as_condition(a[1])
                self._sink_value(
                    inst, ("p", f"(0 if {inner} else 1)", self._depth(a)),
                    (a, b))
                return
        self._scalar(inst, operation(inst), (a, b))

    def _compile_fcmp(self, inst: FCmp) -> None:
        a = self._operand(inst.lhs)
        b = self._operand(inst.rhs)
        self._scalar(inst, operation(inst), (a, b))

    def _compile_cast(self, inst: Cast) -> None:
        v = self._operand(inst.value)
        op = operation(inst)
        if op[1] == "{a}" or op == _PTRTOINT_64:
            # The value is the operand's: pointer values are already
            # u64, so a check's pointer operand stays an atom.
            self._sink_value(inst, v, (v,))
            return
        self._scalar(inst, op, (v,))

    def _scalar(self, inst: Instruction, op: Tuple, descs: Tuple) -> None:
        """``op`` (``ir.semantics.operation``) over its one or two
        operands.  Constant operands fold, unless the operation can
        raise: then it stays at run time, as a raising step of its own.
        Otherwise the template goes inline -- or a call of its bound
        evaluator -- fused into the consumer.  A template that names a
        compound operand twice (an fdiv tests its divisor and names its
        dividend in both arms) is not fused: its compound operands are
        evaluated first, once each and in order, into temporaries."""
        key, template = op
        if (descs[0][0] == "c" and descs[-1][0] == "c"
                and key not in TRAPPING):
            value = fold(inst, *(d[1] for d in descs))
            if value is not None:
                self._sink_value(inst, ("c", value), descs)
                return
        exprs = [*map(self._expr, descs)]
        lines = []
        if key in _CALLED:
            expr = (f"{self._bind(compiled(template, len(exprs)))}"
                    f"({', '.join(exprs)})")
        else:
            if key in _TWICE:
                temps = [(t, d[0] not in ("s", "c"), e)
                         for t, d, e in zip(("__x", "__y"), descs, exprs)]
                lines = [f"{t} = {e}" for t, compound, e in temps if compound]
                exprs = [t if compound else e for t, compound, e in temps]
            expr = template.format(a=exprs[0], b=exprs[-1])
        if lines or key in TRAPPING:
            self._step(lines + [f"v{self.slots[inst]} = {expr}"],
                       raising=key in TRAPPING)
        else:
            depth = max(self._depth(descs[0]), self._depth(descs[-1])) + 1
            self._sink_value(inst, ("p", expr, depth), descs)

    def _compile_select(self, inst: Select) -> None:
        c = self._operand(inst.condition)
        t = self._operand(inst.true_value)
        f = self._operand(inst.false_value)
        # Conditional expressions are lazy like the tree-walker: only
        # the taken arm is evaluated, condition first.
        e = (f"(({self._expr(t)}) if {_as_condition(self._expr(c))}"
             f" else ({self._expr(f)}))")
        d = max(self._depth(c), self._depth(t), self._depth(f)) + 1
        self._sink_value(inst, ("p", e, d), (c, t, f))

    # -- gep -----------------------------------------------------------
    def _compile_gep(self, inst: GEP) -> None:
        base = self._operand(inst.pointer)
        ty = inst.pointer.type
        assert isinstance(ty, PointerType)
        indices = inst.indices

        const_offset = 0
        var_terms: List[Tuple[Tuple, int, int]] = []
        bad = None

        def add_index(idx_value: Value, scale: int) -> None:
            nonlocal const_offset
            if isinstance(idx_value, ConstantInt):
                const_offset += idx_value.signed_value * scale
                return
            if isinstance(idx_value, (ConstantNull, ConstantZero, UndefValue)):
                return
            desc = self._operand(idx_value)
            ity = idx_value.type
            bits = ity.bits if isinstance(ity, IntType) else 64
            var_terms.append((desc, scale, 1 << (bits - 1)))

        add_index(indices[0], size_of(ty.pointee))
        current = ty.pointee
        for idx_value in indices[1:]:
            if isinstance(current, ArrayType):
                add_index(idx_value, size_of(current.element))
                current = current.element
            elif isinstance(current, StructType):
                assert isinstance(idx_value, ConstantInt)
                const_offset += struct_field_offset(current, idx_value.value)
                current = current.fields[idx_value.value]
            else:
                bad = current
                break
        if bad is not None:  # pragma: no cover - malformed IR
            name = self._bind(VMError(f"gep into non-aggregate {bad}"))
            self._step([f"raise {name}"], raising=True)
            return

        c = const_offset
        pure = self._fusable(base, *[dd for dd, _, _ in var_terms])
        if not var_terms:
            if base[0] == "c":
                self._sink_value(
                    inst, ("c", (base[1] + c) & U64_MASK), (base,))
                return
            be = self._expr(base)
            d = self._depth(base) + 1
            if c:
                e = f"(({be} + {self._const_expr(c)}) & {U64_MASK})"
            else:
                e = f"({be} & {U64_MASK})"
            self._sink_value(inst, ("p" if pure else "f", e, d), (base,))
            return
        sgn = [f"(({self._expr(dd)} ^ {half}) - {half})"
               for dd, _, half in var_terms]
        d = max([self._depth(base)]
                + [self._depth(dd) for dd, _, _ in var_terms]) + 1
        if pure:
            terms = "".join(f" + {s} * {scale}"
                            for s, (_, scale, _) in zip(sgn, var_terms))
            tail = f" + {self._const_expr(c)}" if c else ""
            e = f"(({self._expr(base)}{terms}{tail}) & {U64_MASK})"
            self._sink_value(inst, ("p", e, d), (base,))
            return
        # An "f" operand leaked in: materialize here, in a fixed
        # evaluation order (single-term shape evaluates the index
        # before the base; multi-term evaluates base first).
        dst = self.slots[inst]
        if len(var_terms) == 1:
            (_, scale, _) = var_terms[0]
            self._step([
                f"__x = {sgn[0]}",
                f"v{dst} = (({self._expr(base)} + __x * {scale}"
                f" + {self._const_expr(c)}) & {U64_MASK})",
            ])
            return
        lines = [f"__x = {self._expr(base)} + {self._const_expr(c)}"]
        for s, (_, scale, _) in zip(sgn, var_terms):
            lines.append(f"__x += {s} * {scale}")
        lines.append(f"v{dst} = __x & {U64_MASK}")
        self._step(lines)

    # -- memory --------------------------------------------------------
    def _compile_load(self, inst: Load) -> None:
        ty = inst.type
        size = size_of(ty)
        dst = f"v{self.slots[inst]}"
        if isinstance(ty, FloatType):
            access = f"{dst} = __lf{size}({{buf}}, {{off}})[0]"
        elif size == 1:
            access = f"{dst} = {{buf}}[{{off}}]"
        elif size in (2, 4, 8):
            access = f"{dst} = __ld{size}({{buf}}, {{off}})[0]"
        else:
            access = (f"{dst} = __fb({{buf}}[{{off}}:{{off}} + {size}], "
                      "'little')")
        self._access(self._operand(inst.pointer), size, False, [], access)

    def _compile_store(self, inst: Store) -> None:
        ty = inst.value.type
        size = size_of(ty)
        pointer = self._operand(inst.pointer)
        desc = self._operand(inst.value)
        ve = self._expr(desc)
        mask = (1 << (8 * size)) - 1
        # ``__v`` is computed before address resolution -- the
        # tree-walker's order: pointer, value, then the int()
        # conversion (which may raise on NaN).  A constant has nothing
        # to evaluate: its masked value goes into the access itself.
        const = desc[0] == "c" and size in (1, 2, 4, 8)
        if isinstance(ty, FloatType):
            value = ve if const else "__v"
            prep = f"__v = {ve}"
            access = f"__sf{size}({{buf}}, {{off}}, {value})"
        elif size in (1, 2, 4, 8):
            const = const and type(desc[1]) is int
            value = repr(desc[1] & mask) if const else "__v"
            prep = f"__v = int({ve}) & {mask}"
            access = (f"{{buf}}[{{off}}] = {value}" if size == 1 else
                      f"__st{size}({{buf}}, {{off}}, {value})")
        else:
            prep = f"__v = (int({ve}) & {mask}).to_bytes({size}, 'little')"
            access = f"{{buf}}[{{off}}:{{off}} + {size}] = __v"
        self._access(pointer, size, True, [] if const else [prep], access)

    def _access(self, pointer: Tuple, size: int, write: bool,
                prep: List[str], access: str) -> None:
        """One load or store of ``size`` bytes through a fresh per-site
        inline cache: the pointer into ``__p`` (a local or a constant
        is used in place), ``prep`` (a store's value), one line that
        refills the cache from :meth:`Memory.site` unless the access
        hits, and ``access`` on the cached buffer ``{buf}`` at
        ``{off}``."""
        ca, cl, ch, cd = self._new_site()
        p = self._expr(pointer)
        lines = []
        if pointer[0] not in ("s", "c"):
            lines.append(f"__p = {p}")
            p = "__p"
        lines += prep
        lines.append(f"if not {cl} <= {p} <= {ch} or {ca}.freed: "
                     f"{ca}, {cl}, {ch}, {cd} = __site({p}, {size}, {write})")
        lines.append(access.format(buf=cd, off=f"{p} - {cl}"))
        self._step(lines, raising=True)

    def _compile_alloca(self, inst: Alloca) -> None:
        dst = self.slots[inst]
        size = size_of(inst.allocated_type)
        name = inst.name
        if inst.count is None:
            line = f"v{dst} = __alloca({size}, {name!r}).base"
        else:
            ce = self._expr(self._operand(inst.count))
            line = f"v{dst} = __alloca({size} * {ce}, {name!r}).base"
        self._step([line], raising=True)

    # -- calls ---------------------------------------------------------
    def _compile_call(self, inst: Call) -> None:
        dst = self.slots[inst] if inst.type.is_first_class() else None
        arg_descs = [self._operand(a) for a in inst.args]
        tgt = f"v{dst} = " if dst is not None else ""
        callee = inst.callee
        if isinstance(callee, Function) and callee.native:
            self._compile_native_call(inst, callee, arg_descs, tgt)
            return
        arg_exprs = [self._expr(d) for d in arg_descs]

        if isinstance(callee, Function):
            fn = callee
            # Direct call of a defined function or declaration: the
            # static "call" charge joins the block vector.  Defined
            # functions take the ``__dc`` trampoline, which skips the
            # dispatch prologue of ``call_function`` (statically dead
            # here).
            self._charge("call", costs.INSTRUCTION_COSTS["call"])
            fname = self._bind(fn)
            helper = "__call" if fn.is_declaration else "__dc"
            self._step(
                [f"{tgt}{helper}({fname}, [{', '.join(arg_exprs)}])"],
                raising=True, call=True)
            return

        # Indirect call: whether the "call" charge applies depends on
        # the runtime callee.
        ce = self._expr(self._operand(callee))
        site = inst.meta.get("mi_site")
        call_cost = costs.INSTRUCTION_COSTS["call"]
        lines = [
            f"__a = {ce}",
            "__fx = __fba.get(__a)",
            "if __fx is None:",
            "    raise __MemoryFault(__a, 0,"
            " 'indirect call to non-function address')",
            f"__args = [{', '.join(arg_exprs)}]",
        ]
        if site is not None:
            sname = self._bind(site)
            lines += [
                "if __fx.native:",
                f"    __args.append({sname})",
                "else:",
                f"    __charge('call', {call_cost})",
            ]
        else:
            lines += [
                "if not __fx.native:",
                f"    __charge('call', {call_cost})",
            ]
        lines.append(f"{tgt}__call(__fx, __args)")
        self._step(lines, raising=True, call=True)

    def _compile_native_call(self, inst: Call, fn: Function, descs: List,
                             tgt: str) -> None:
        """A direct native call: charged in the block vector and a
        raising step like a load (natives add to ``RuntimeStats`` but
        never read it), or, for a :class:`TemplateNative` called the way
        it is declared, its template inline.
        Plain and profiled emission share this path."""
        site = inst.meta.get("mi_site")
        impl = self.vm.natives.get(fn.name)
        if isinstance(impl, TemplateNative) and len(descs) == impl.arity:
            if isinstance(impl, CheckNative):
                if not tgt:
                    self._compile_check(inst, fn.name, impl, descs, site)
                    return
            elif site is None and bool(tgt) == (impl.expr is not None):
                self._compile_template(inst, fn.name, impl, descs, tgt)
                return
        args = [self._expr(d) for d in descs]
        if site is not None:
            args.append(self._site_expr(site))
        arglist = ", ".join(args)
        if impl is None:
            # No implementation registered at emission time:
            # call_function raises (or resolves a late registration)
            # exactly like the tree-walker, charging eagerly.
            fname = self._bind(fn)
            self._step(self._attributed(
                inst, [f"{tgt}__call({fname}, [{arglist}])"]),
                raising=True, call=True)
            return
        self._charge(f"native:{fn.name}", costs.call_cost(fn.name),
                     mi="mi" in inst.meta)
        name = self._bind_native("native", fn.name)
        self._step(self._attributed(
            inst, [f"{tgt}{name}(__vm, [{arglist}])"]), raising=True)

    def _site_expr(self, site) -> str:
        return repr(site) if site is None or type(site) is str \
            else self._bind(site)

    def _template_args(self, name: str, impl: TemplateNative, descs: List
                       ) -> Tuple[List[str], List[str], Dict[str, str]]:
        """What a template is formatted with: the lines that evaluate
        each non-atomic argument once, in argument order, into a
        temporary, as the tree-walker evaluates it; the argument
        expressions; and the helpers' bindings by name."""
        lines: List[str] = []
        exprs: List[str] = []
        for d in descs:
            if d[0] in ("s", "c"):
                exprs.append(self._expr(d))
            else:
                exprs.append(f"__t{len(lines)}")
                lines.append(f"{exprs[-1]} = {self._expr(d)}")
        helpers = {h: self._bind_native("helper", (name, h))
                   for h in impl.helpers}
        return lines, exprs, helpers

    def _compile_template(self, inst: Call, name: str, impl: TemplateNative,
                          descs: List, tgt: str) -> None:
        """A template native, inline: its statement, or its expression
        assigned to the call's local -- fused into the consumer instead
        when it is pure and its arguments atomic.  It cannot raise, so
        it is no raising step; its charge carries its counter, so the
        block vector counts its executions.  It charges nothing else, so
        a profiled emission attributes nothing around it either."""
        lines, exprs, helpers = self._template_args(name, impl, descs)
        self._charge(f"native:{name}", costs.call_cost(name),
                     mi="mi" in inst.meta, counter=impl.counter)
        if impl.stmt is not None:
            self._step(lines + [impl.stmt.format(*exprs, **helpers)])
            return
        expr = impl.expr.format(*exprs, **helpers)
        if impl.pure and not lines:
            self._sink_value(inst, ("p", f"({expr})", 1), descs)
        else:
            self._step(lines + [tgt + expr])

    def _compile_check(self, inst: Call, name: str, impl: CheckNative,
                       descs: List, site) -> None:
        """A check site, compared inline: at most a wide-test line and
        one ``if <fails>: <fail>(<args>, <site>)`` line, so a passing
        check makes no Python-level call.  The check's charge carries
        it, so the block vector counts its executions -- a raising
        step's prefix included, since the tree-walker records a check
        before comparing.  Wide executions go to ``__wd``, unless the
        wide test folds at emission: then the vector counts them too.
        A profiled run also records each dynamic wide reason."""
        lines, exprs, helpers = self._template_args(name, impl, descs)
        args = ", ".join(exprs + [self._site_expr(site)])
        reason = impl.reason is not None and self.profile
        always_wide = False
        if impl.wide is not None:
            wide = None if reason else self._folded(impl, impl.wide, descs)
            if wide is None:
                line = (f"if {impl.wide.format(*exprs, **helpers)}: "
                        f"__wd[{len(self._wide_sites)}] += 1")
                self._wide_sites.append(site)
                if reason:
                    line += f"; {self._bind_native('reason', name)}({args})"
                lines.append(line)
            else:
                always_wide = wide
        if self._folded(impl, impl.fails, descs) is not False:
            lines.append(f"if {impl.fails.format(*exprs, **helpers)}: "
                         f"{self._bind_native('fail', name)}({args})")
        self._charge(f"native:{name}", costs.call_cost(name),
                     mi="mi" in inst.meta,
                     check=(impl.kind, site, always_wide))
        self._step(lines, raising=True)

    @staticmethod
    def _folded(impl: CheckNative, template: str,
                descs: List) -> Optional[bool]:
        """The value of a check's test when every argument it reads is
        a constant, evaluated now over those constants and the check's
        helpers; None when it depends on run-time values."""
        if any(descs[i][0] != "c" for i in _arguments_read(template)):
            return None
        consts = [repr(d[1]) if d[0] == "c" else "None" for d in descs]
        return bool(eval(template.format(
            *consts, **{h: h for h in impl.helpers}), dict(impl.helpers)))

    # -- control flow --------------------------------------------------
    def _compile_terminator(self, block: BasicBlock,
                            inst: Optional[Instruction]) -> Tuple:
        if isinstance(inst, Br):
            return ("br", inst.target)
        if isinstance(inst, CondBr):
            c = self._operand(inst.condition)
            return ("cond", self._expr(c), inst.true_block, inst.false_block)
        if isinstance(inst, Ret):
            if inst.value is None:
                return ("ret", None)
            return ("ret", self._expr(self._operand(inst.value)))
        # No terminator: the tree-walker runs off the end of the block
        # and raises without charging anything further.
        name = self._bind(VMError(
            f"block {block.name} fell through without terminator"))
        return ("raise", name)

    def _moves_lines(self, pred: Optional[BasicBlock],
                     succ: BasicBlock) -> List[str]:
        phis = succ.phis()
        if not phis:
            return []
        if pred is None:
            # Function entry into a block with phis.
            name = self._bind(VMError(
                f"phi executed without predecessor: {phis[0]}"))
            return [f"raise {name}"]
        exprs: List[str] = []
        dsts: List[str] = []
        for phi in phis:
            try:
                incoming = phi.incoming_value_for(pred)
            except KeyError as exc:
                name = self._bind(KeyError(*exc.args))
                return [f"raise {name}"]
            exprs.append(self._expr(self._operand(incoming)))
            dsts.append(f"v{self.slots[phi]}")
        if len(phis) == 1:
            return [f"{dsts[0]} = {exprs[0]}"]
        # Tuple assignment: every incoming value is read before any
        # phi local is written, so swap cycles resolve in parallel.
        return [f"{', '.join(dsts)} = {', '.join(exprs)}"]

    # -- layout --------------------------------------------------------
    def _layout(self) -> List[Tuple[int, List[str]]]:
        arms: List[Tuple[int, List[str]]] = []
        emitted = set()
        self._queue = [b for b in self.fn.blocks
                       if b in self.labels and b in self.reachable]
        self._stack: set = set()
        while self._queue:
            block = self._queue.pop(0)
            if block in emitted:
                continue
            emitted.add(block)
            lines: List[str] = []
            self._layout_block(block, 1, lines)
            arms.append((self.block_index[block], lines))
        return arms

    def _layout_block(self, block: BasicBlock, depth: int,
                      out: List[str]) -> None:
        out.append(f"# {block.name}:")
        body_lines, term = self.code[block]
        out.extend(body_lines)
        kind = term[0]
        if kind == "ret":
            out.append(f"return {term[1]}" if term[1] is not None
                       else "return None")
        elif kind == "raise":
            out.append(f"raise {term[1]}")
        elif kind == "br":
            self._transition(block, term[1], depth, out)
        else:
            _, cond, tb, fb = term
            out.append(f"if {_as_condition(cond)}:")
            sub: List[str] = []
            self._transition(block, tb, depth, sub)
            out.extend("    " + ln for ln in sub)
            out.append("else:")
            sub = []
            self._transition(block, fb, depth, sub)
            out.extend("    " + ln for ln in sub)

    def _transition(self, pred: BasicBlock, succ: BasicBlock, depth: int,
                    out: List[str]) -> None:
        # Terminator decided, then budget check, then phi moves, then
        # the next block -- the tree-walker's order.
        out.append(_BUDGET_CHECK)
        moves = self._moves_lines(pred, succ)
        out.extend(moves)
        if moves and moves[-1].startswith("raise "):
            return
        if (succ in self.labels or depth >= _MAX_INLINE_DEPTH
                or succ in self._stack):
            if succ not in self.labels:
                self.labels.add(succ)
                self._queue.append(succ)
            out.append(f"__b = {self.block_index[succ]}")
            out.append("continue")
        else:
            self._stack.add(succ)
            self._layout_block(succ, depth + 1, out)
            self._stack.discard(succ)

    # -- assembly ------------------------------------------------------
    def _assemble(self, arms: List[Tuple[int, List[str]]]
                  ) -> Tuple[str, Dict[int, Tuple]]:
        fn = self.fn
        ind = "    "
        hot = ("__stats", "__bc", "__site") + (
            ("__wd",) if self._wide_sites else ())
        params = [f"v{self.slots[a]}" for a in fn.args]
        sig = ", ".join(params + ["*"] + [f"{h}={h}" for h in hot])
        lines = [
            f"# codegen tier source for function @{fn.name}",
            f"def __run({sig}):",
        ]
        for i in range(0, len(self._globals), 8):
            lines.append(ind + "global " + ", ".join(self._globals[i:i + 8]))
        init = self._slots_needing_init()
        for i in range(0, len(init), 16):
            chunk = " = ".join(f"v{s}" for s in init[i:i + 16])
            lines.append(f"{ind}{chunk} = None")
        lines.append(ind + "__maxi = __vm.max_instructions")
        lines.append(ind + "if __maxi is None:")
        lines.append(ind * 2 + "__maxi = 9223372036854775807")
        # ``__ins`` carries the absolute instruction count so budget
        # checks and callees always see an exact value; it is
        # published in the ``finally`` below, at frame exit.
        lines.append(ind + "__ins = __stats.instructions")
        for ln in self._moves_lines(None, fn.entry):
            lines.append(ind + ln)
        lines.append(ind + f"__b = {self.block_index[fn.entry]}")
        lines.append(ind + "try:")
        lines.append(ind * 2 + "while True:")
        first = True
        for idx, body in arms:
            lines.append(
                ind * 3 + f"{'if' if first else 'elif'} __b == {idx}:")
            first = False
            lines.extend(ind * 4 + ln for ln in body)
        lines.append(ind * 3 + "else:")  # pragma: no cover - unreachable
        lines.append(ind * 4 + "raise __VMError('codegen dispatch out of"
                               " range')")
        lines.append(ind + "except BaseException as __e:")
        lines.append(ind * 2 + "__ins = __unwind(__e, __ins)")
        lines.append(ind * 2 + "raise")
        lines.append(ind + "finally:")
        lines.append(ind * 2 + "__stats.instructions = __ins")
        # The line table: each marked line of a raising step, by its
        # line number in the source.
        steps: Dict[int, Tuple] = {}
        for no, line in enumerate(lines, 1):
            if "\0" in line:
                lines[no - 1], entry = line.split("\0")
                steps[no] = self._raising[int(entry)]
        return "\n".join(lines) + "\n", steps

    def _slots_needing_init(self) -> List[int]:
        """Locals that could be read before assignment on some path
        (cross-block uses, or in-block use before the defining
        instruction): pre-set to None so such a read yields None
        instead of raising UnboundLocalError."""
        fn = self.fn
        def_block: Dict[Value, BasicBlock] = {}
        for block in fn.blocks:
            for inst in block.instructions:
                if inst in self.slots:
                    def_block[inst] = block
        need = set()
        for block in fn.blocks:
            seen = set()
            for inst in block.instructions:
                for op in inst.operands:
                    if (isinstance(op, Instruction) and op in self.slots
                            and (def_block.get(op) is not block
                                 or op not in seen)):
                        need.add(self.slots[op])
                seen.add(inst)
        return sorted(need)
