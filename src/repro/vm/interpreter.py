"""The IR interpreter (the reproduction's "hardware").

Executes a linked :class:`~repro.ir.module.Module` over the simulated
address space of :mod:`repro.vm.memory`, charging deterministic cycle
costs per executed instruction (:mod:`repro.vm.costs`).

Pointers are integers.  Loads and stores that leave mapped memory raise
:class:`~repro.errors.MemoryFault`; accesses that land inside *some*
live allocation succeed silently, even when the programmer meant a
different object -- the silent-corruption behaviour the sanitizers in
the paper exist to catch.

Instrumentation runtimes (SoftBound / Low-Fat) plug in by registering
*native functions* (``register_native``) and, for Low-Fat, by replacing
the global placer so globals land in low-fat regions.

The default engine, ``codegen``, is tiered at call granularity: a
function runs on this tree-walker until emitting it pays (see
:meth:`VirtualMachine._tier_up`); ``interp`` runs every call here.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.work import work_bound
from ..errors import MemoryFault, ProgramAbort, VMError
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
from ..ir.module import BasicBlock, Function, GlobalVariable, Module
from ..ir.semantics import evaluator
from ..ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    size_of,
    struct_field_offset,
)
from ..ir.values import (
    Argument,
    Constant,
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    ConstantStruct,
    ConstantZero,
    UndefValue,
    Value,
)
from . import costs
from .codegen import CodegenFunction, cached_signature
from .engines import DEFAULT_ENGINE, ENGINES
from .memory import (
    Allocation,
    GlobalsAllocator,
    Memory,
    StackAllocator,
    StandardAllocator,
)
from .native import install_libc
from .stats import RuntimeStats

FUNCTION_SEGMENT_BASE = 0x2000
U64_MASK = (1 << 64) - 1

#: Emitting a function costs about as much as interpreting this many
#: executed instructions per IR instruction it has: emission measured
#: 36-38 us per IR instruction, the tree-walker 2.2-2.8 us per executed
#: one (2-core x86-64 VM, Python 3.11).  The codegen engine emits a
#: function once its calls are bound to have executed ``TIER_K`` times
#: its size.
TIER_K = 14


class _ExitRequest(Exception):
    def __init__(self, code: int):
        self.code = code


class VirtualMachine:
    def __init__(
        self,
        module: Module,
        stats: Optional[RuntimeStats] = None,
        max_instructions: Optional[int] = 500_000_000,
        install_default_libc: bool = True,
        engine: str = DEFAULT_ENGINE,
        profile: bool = False,
    ):
        if engine not in ENGINES:
            raise VMError(f"unknown engine {engine!r} (expected one of {ENGINES})")
        self.engine = engine
        self.module = module
        self.stats = stats or RuntimeStats()
        if profile:
            # Must be set before any function is emitted/executed: the
            # codegen tier specializes its generated source on it.
            self.stats.profile = True
        self.max_instructions = max_instructions
        self.memory = Memory()
        self.heap = StandardAllocator(self.memory)
        self.stack = StackAllocator(self.memory)
        self.globals_allocator = GlobalsAllocator(self.memory)
        # Hook: Low-Fat replaces this so globals land in low-fat regions.
        # ``external`` marks globals of uninstrumented libraries
        # (declarations with no definition) -- those stay outside the
        # low-fat regions, cf. paper Section 4.3.
        self.global_placer: Callable[..., Allocation] = (
            lambda size, name, external=False: self.globals_allocator.allocate(
                size, name
            )
        )
        self.natives: Dict[str, Callable] = {}
        self.output: List[str] = []
        self.global_addresses: Dict[GlobalVariable, int] = {}
        self._function_addresses: Dict[Function, int] = {}
        self._functions_by_address: Dict[int, Function] = {}
        self._frame_cleanups: List[List[Callable[[], None]]] = []
        self._exit_code: Optional[int] = None
        self._globals_loaded = False
        #: Compiled evaluators of the scalar instructions interp ran.
        self._scalar_ops: Dict[Instruction, Callable] = {}
        # Lazy per-function source-generation cache (codegen engine).
        self._codegen: Dict[Function, object] = {}
        #: The codegen engine's decision per function it has called:
        #: ``(tier, reason)``, see :meth:`_tier_up`.
        self.tiers: Dict[Function, Tuple[str, str]] = {}
        #: ``[calls, work bound, budget]`` of each function the codegen
        #: engine interprets for now.
        self._interpreted: Dict[Function, List] = {}
        # Set by the driver (``--dump-codegen``): directory receiving
        # one generated-source file per emitted function.
        self.codegen_dump_dir: Optional[str] = None
        if install_default_libc:
            install_libc(self)

    # -- setup -----------------------------------------------------------
    def register_native(self, name: str, impl: Callable) -> None:
        self.natives[name] = impl

    def function_address(self, fn: Function) -> int:
        addr = self._function_addresses.get(fn)
        if addr is None:
            addr = FUNCTION_SEGMENT_BASE + 16 * len(self._function_addresses)
            self._function_addresses[fn] = addr
            self._functions_by_address[addr] = fn
        return addr

    def load_globals(self) -> None:
        """Allocate and initialize all global variables."""
        if self._globals_loaded:
            return
        self._globals_loaded = True
        for gv in self.module.globals.values():
            size = max(size_of(gv.value_type), 16 if gv.is_declaration else 1)
            alloc = self.global_placer(size, gv.name, external=gv.is_declaration)
            self.global_addresses[gv] = alloc.base
            if gv.initializer is not None:
                data = self._serialize_constant(gv.initializer, gv.value_type)
                alloc.data[0 : len(data)] = data

    def _serialize_constant(self, const: Constant, ty: Type) -> bytes:
        if isinstance(const, (ConstantZero, UndefValue)):
            return bytes(size_of(ty))
        if isinstance(const, ConstantInt):
            assert isinstance(ty, IntType)
            return const.value.to_bytes(size_of(ty), "little")
        if isinstance(const, ConstantFloat):
            assert isinstance(ty, FloatType)
            fmt = "<f" if ty.bits == 32 else "<d"
            return struct.pack(fmt, const.value)
        if isinstance(const, ConstantNull):
            return bytes(8)
        if isinstance(const, ConstantString):
            return bytes(const.data)
        if isinstance(const, ConstantArray):
            assert isinstance(ty, ArrayType)
            elem_size = size_of(ty.element)
            out = bytearray()
            for elem in const.elements:
                piece = self._serialize_constant(elem, ty.element)
                out.extend(piece.ljust(elem_size, b"\x00"))
            return bytes(out)
        if isinstance(const, ConstantStruct):
            assert isinstance(ty, StructType)
            out = bytearray(size_of(ty))
            for i, field in enumerate(const.fields):
                offset = struct_field_offset(ty, i)
                piece = self._serialize_constant(field, ty.fields[i])
                out[offset : offset + len(piece)] = piece
            return bytes(out)
        raise VMError(f"cannot serialize constant {const!r}")

    # -- running ------------------------------------------------------------
    def run(self, entry: str = "main", args: Sequence[int] = ()) -> int:
        """Execute ``entry`` and return its exit code."""
        self.load_globals()
        fn = self.module.get_function(entry)
        if fn is None:
            raise VMError(f"no entry function @{entry}")
        try:
            result = self.call_function(fn, list(args))
        except _ExitRequest as req:
            return req.code
        if self._exit_code is not None:
            return self._exit_code
        return int(result) & 0xFFFFFFFF if result is not None else 0

    def request_exit(self, code: int) -> None:
        raise _ExitRequest(code & 0xFFFFFFFF)

    def register_frame_cleanup(self, action: Callable[[], None]) -> None:
        """Register an action to run when the current frame is popped.

        Used by the Low-Fat runtime to release ``__lf_alloca`` memory on
        function return.
        """
        if not self._frame_cleanups:
            raise VMError("no active frame for cleanup registration")
        self._frame_cleanups[-1].append(action)

    # -- call dispatch ---------------------------------------------------------
    def call_function(self, fn: Function, args: List) -> Optional[object]:
        if fn.native:
            impl = self.natives.get(fn.name)
            if impl is None:
                raise VMError(f"native function @{fn.name} has no implementation")
            self.stats.charge(f"native:{fn.name}", costs.call_cost(fn.name))
            self.stats.calls += 1
            return impl(self, args)
        if fn.is_declaration:
            # Unresolved declaration: model a call into an unavailable
            # external library.
            impl = self.natives.get(fn.name)
            if impl is not None:
                self.stats.charge(f"native:{fn.name}", costs.call_cost(fn.name))
                return impl(self, args)
            raise VMError(f"call to undefined function @{fn.name}")
        if self.engine == "codegen" and (fn in self._codegen
                                         or self._tier_up(fn)):
            return self._codegen_direct_call(fn, args)
        self.stats.calls += 1
        return self._run_function(fn, args)

    def _codegen_direct_call(self, fn: Function, args: List) -> Optional[object]:
        """Run a defined function on the codegen engine: its emission,
        or the tree-walker until :meth:`_tier_up` emits it.

        Also bound into generated source (``__dc``) for direct calls
        to defined, non-native functions, where :meth:`call_function`'s
        native / declaration / engine dispatch is statically dead, so
        the whole prologue collapses to the call counter plus the
        codegen frame push.
        """
        self.stats.calls += 1
        compiled = self._codegen.get(fn)
        if compiled is None:
            compiled = self._tier_up(fn)
            if compiled is None:
                return self._run_function(fn, args)
        self.stack.push_frame()
        self._frame_cleanups.append([])
        try:
            return compiled.execute(args)
        finally:
            for action in reversed(self._frame_cleanups.pop()):
                action()
            self.stack.pop_frame()
            if not self._frame_cleanups:
                self._fold()

    def _tier_up(self, fn: Function) -> Optional[CodegenFunction]:
        """The emission one call of ``fn`` runs on, or None to run it
        on the tree-walker; called once per call of a function the
        codegen engine has not emitted.

        At its first call, a function whose emission is cached for this
        VM's environment is emitted (``cached``).  Otherwise it is
        emitted if :func:`~repro.analysis.work.work_bound` of one call
        exceeds its budget, ``TIER_K`` times its size (``over budget``),
        and else interpreted (``interpreted``) until its calls times
        that bound exceed the budget (``promoted at call N``).  With a
        dump directory set, the budget is 0: every function is emitted
        at its first call.  A frame never changes engine."""
        pending = self._interpreted.get(fn)
        if pending is None:
            signature = cached_signature(self, fn)
            if signature is not None:
                return self._emit(fn, "cached", signature)
            budget = (0 if self.codegen_dump_dir
                      else TIER_K * fn.instruction_count())
            cached = getattr(fn, "_work_bound", None)
            if cached is None or cached[0] != budget:
                cached = fn._work_bound = (budget, work_bound(fn, budget)
                                           if budget else math.inf)
            bound = cached[1]
            if bound > budget:
                return self._emit(fn, "over budget")
            self._interpreted[fn] = [1, bound, budget]
            self.tiers[fn] = ("interp", "interpreted")
            return None
        pending[0] += 1
        calls, bound, budget = pending
        if calls * bound <= budget:
            return None
        del self._interpreted[fn]
        return self._emit(fn, f"promoted at call {calls}")

    def _emit(self, fn: Function, reason: str,
              signature: Optional[Tuple] = None) -> CodegenFunction:
        self.tiers[fn] = ("codegen", reason)
        compiled = self._codegen[fn] = CodegenFunction(
            self, fn, index=len(self._codegen), signature=signature)
        return compiled

    def _fold(self) -> None:
        """Charge the codegen engine's block counts: the outermost
        program frame has exited, on either engine."""
        for function in self._codegen.values():
            function.fold()

    # -- the main loop -----------------------------------------------------------
    def _run_function(self, fn: Function, args: List) -> Optional[object]:
        frame: Dict[Value, object] = {}
        for formal, actual in zip(fn.args, args):
            frame[formal] = actual
        self.stack.push_frame()
        self._frame_cleanups.append([])
        try:
            return self._interpret(fn, frame)
        finally:
            for action in reversed(self._frame_cleanups.pop()):
                action()
            self.stack.pop_frame()
            if not self._frame_cleanups:
                self._fold()

    def _interpret(self, fn: Function, frame: Dict[Value, object]):
        stats = self.stats
        cost = costs.INSTRUCTION_COSTS
        scalar = self._scalar_ops
        profile = stats.profile
        c0 = 0
        block = fn.entry
        prev: Optional[BasicBlock] = None
        while True:
            instructions = block.instructions
            index = 0
            # Resolve phis as a parallel assignment.
            if prev is not None and isinstance(instructions[0], Phi):
                phis = block.phis()
                values = [
                    self._eval(phi.incoming_value_for(prev), frame) for phi in phis
                ]
                for phi, value in zip(phis, values):
                    frame[phi] = value
                    stats.charge("phi", cost["phi"])
                index = len(phis)

            next_block: Optional[BasicBlock] = None
            while index < len(instructions):
                inst = instructions[index]
                index += 1
                cls = type(inst)
                if profile:
                    c0 = stats.cycles
                if cls is Load:
                    stats.charge("load", cost["load"])
                    stats.loads += 1
                    frame[inst] = self._load(
                        self._eval(inst.pointer, frame), inst.type  # type: ignore[attr-defined]
                    )
                elif cls is Store:
                    stats.charge("store", cost["store"])
                    stats.stores += 1
                    self._store(
                        self._eval(inst.pointer, frame),  # type: ignore[attr-defined]
                        self._eval(inst.value, frame),  # type: ignore[attr-defined]
                        inst.value.type,  # type: ignore[attr-defined]
                    )
                elif cls is BinOp or cls is ICmp or cls is FCmp:
                    stats.charge(inst.opcode, cost[inst.opcode])
                    frame[inst] = (scalar.get(inst) or self._scalar(inst))(
                        self._eval(inst.lhs, frame),  # type: ignore[attr-defined]
                        self._eval(inst.rhs, frame),  # type: ignore[attr-defined]
                    )
                elif cls is GEP:
                    stats.charge("gep", cost["gep"])
                    frame[inst] = self._gep(inst, frame)
                elif cls is Cast:
                    stats.charge(inst.opcode, cost[inst.opcode])
                    frame[inst] = (scalar.get(inst) or self._scalar(inst))(
                        self._eval(inst.value, frame)  # type: ignore[attr-defined]
                    )
                elif cls is Select:
                    stats.charge("select", cost["select"])
                    cond = self._eval(inst.condition, frame)  # type: ignore[attr-defined]
                    frame[inst] = self._eval(
                        inst.true_value if cond else inst.false_value, frame  # type: ignore[attr-defined]
                    )
                elif cls is Call:
                    result = self._call(inst, frame)
                    if inst.type.is_first_class():
                        frame[inst] = result
                elif cls is Alloca:
                    stats.charge("alloca", cost["alloca"])
                    frame[inst] = self._alloca(inst, frame)
                elif cls is Br:
                    stats.charge("br", cost["br"])
                    next_block = inst.target  # type: ignore[attr-defined]
                    break
                elif cls is CondBr:
                    stats.charge("condbr", cost["condbr"])
                    cond = self._eval(inst.condition, frame)  # type: ignore[attr-defined]
                    next_block = inst.true_block if cond else inst.false_block  # type: ignore[attr-defined]
                    break
                elif cls is Ret:
                    stats.charge("ret", cost["ret"])
                    value = inst.value  # type: ignore[attr-defined]
                    return self._eval(value, frame) if value is not None else None
                elif cls is Phi:
                    # Entry block phis (no predecessor yet) are invalid.
                    raise VMError(f"phi executed without predecessor: {inst}")
                elif cls is Unreachable:
                    raise VMError("executed 'unreachable'")
                else:
                    raise VMError(f"cannot interpret instruction: {inst}")
                if profile and "mi" in inst.meta:
                    # Attribute everything this instruction charged
                    # (including natives' internal charges) to the
                    # instrumentation.  Terminators break/return above
                    # and are never instrumentation code.
                    stats.instrumentation_cycles += stats.cycles - c0

            if next_block is None:
                raise VMError(f"block {block.name} fell through without terminator")
            if (
                self.max_instructions is not None
                and stats.instructions > self.max_instructions
            ):
                raise VMError("instruction budget exceeded (infinite loop?)")
            prev, block = block, next_block

    # -- evaluation helpers ----------------------------------------------------
    def _eval(self, value: Value, frame: Dict[Value, object]):
        if isinstance(value, (Instruction, Argument)):
            try:
                return frame[value]
            except KeyError:
                raise VMError(f"use of undefined value %{value.name}") from None
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, (ConstantNull, ConstantZero)):
            return 0.0 if isinstance(value.type, FloatType) else 0
        if isinstance(value, UndefValue):
            return 0.0 if isinstance(value.type, FloatType) else 0
        if isinstance(value, GlobalVariable):
            try:
                return self.global_addresses[value]
            except KeyError:
                raise VMError(f"global @{value.name} not loaded") from None
        if isinstance(value, Function):
            return self.function_address(value)
        raise VMError(f"cannot evaluate value {value!r}")

    def _load(self, address: int, ty: Type):
        size = size_of(ty)
        if isinstance(ty, FloatType):
            return self.memory.read_float(address, size)
        return self.memory.read_int(address, size)

    def _store(self, address: int, value, ty: Type) -> None:
        size = size_of(ty)
        if isinstance(ty, FloatType):
            self.memory.write_float(address, value, size)
        else:
            self.memory.write_int(address, int(value), size)

    def _scalar(self, inst: Instruction) -> Callable:
        """The evaluator of a binop, comparison or cast, compiled from
        its template in :mod:`repro.ir.semantics` at first execution."""
        fn = self._scalar_ops[inst] = evaluator(inst)
        return fn

    def _gep(self, inst: GEP, frame) -> int:
        address = self._eval(inst.pointer, frame)
        ty = inst.pointer.type
        assert isinstance(ty, PointerType)
        indices = inst.indices
        address += self._index(indices[0], frame) * size_of(ty.pointee)
        current: Type = ty.pointee
        for idx_value in indices[1:]:
            if isinstance(current, ArrayType):
                address += self._index(idx_value, frame) * size_of(current.element)
                current = current.element
            elif isinstance(current, StructType):
                assert isinstance(idx_value, ConstantInt)
                address += struct_field_offset(current, idx_value.value)
                current = current.fields[idx_value.value]
            else:
                raise VMError(f"gep into non-aggregate {current}")
        return address & U64_MASK

    def _index(self, value: Value, frame) -> int:
        """A GEP index, read as signed."""
        half = 1 << ((value.type.bits if isinstance(value.type, IntType) else 64) - 1)
        return (self._eval(value, frame) ^ half) - half

    def _alloca(self, inst: Alloca, frame) -> int:
        size = size_of(inst.allocated_type)
        if inst.count is not None:
            count = self._eval(inst.count, frame)
            size *= count
        alloc = self.stack.alloca(size, inst.name)
        return alloc.base

    def _call(self, inst: Call, frame):
        callee = inst.callee
        fn: Optional[Function]
        if isinstance(callee, Function):
            fn = callee
        else:
            address = self._eval(callee, frame)
            fn = self._functions_by_address.get(address)
            if fn is None:
                raise MemoryFault(address, 0, "indirect call to non-function address")
        args = [self._eval(a, frame) for a in inst.args]
        if fn.native:
            site = inst.meta.get("mi_site")
            if site is not None:
                args = list(args) + [site]
            return self.call_function(fn, args)
        self.stats.charge("call", costs.INSTRUCTION_COSTS["call"])
        return self.call_function(fn, args)
