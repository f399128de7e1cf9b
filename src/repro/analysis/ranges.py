"""Interprocedural value-range and pointer-provenance analysis.

Two abstract domains ride on the :mod:`.dataflow` engine:

* **Integer ranges** -- each integer SSA value gets a signed interval
  ``[lo, hi]`` in its own bit width.  Arithmetic transfer functions
  are *wrap-sound*: any operation whose exact interval leaves the
  representable range degrades to the full type range instead of
  pretending wrap-around cannot happen.  Branch conditions refine the
  interval per CFG edge (``i < n`` bounds ``i`` inside the loop body),
  and widening at loop headers guarantees termination.

* **Pointer provenance** -- each pointer SSA value gets a
  ``(allocation site, byte-offset interval)`` fact.  Sites are
  allocas, sized globals, and calls to the allocation entry points of
  the instrumented runtimes (``malloc``/``calloc``/``realloc`` and
  their SoftBound/Low-Fat replacements) with constant sizes.  ``gep``
  accumulates byte offsets through the typed layout, ``phi``/``select``
  join, ``bitcast`` passes through, and everything else (arguments,
  loads from escaping memory, ``inttoptr``) is unknown.  For
  *non-escaping* stack slots the analysis additionally tracks the
  slot's current content through ``load``/``store``, so a pointer
  parked in a local survives with its provenance.

The analysis is interprocedural in the lightweight summary sense: a
:class:`ReturnSummaries` object computes, bottom-up over the call
graph, the return-value range of every integer-returning function, and
call transfer consults it (recursive cycles degrade to top).

The facts feed two clients: the ``range_filter`` check elimination in
:mod:`repro.core.filters` (a dereference provably inside its
allocation needs no dynamic check) and the ``mi-lint`` pitfall
detectors in :mod:`.lint`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    CondBr,
    GEP,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import BasicBlock, Function, GlobalVariable, Module
from ..ir.types import (
    ArrayType,
    IntType,
    PointerType,
    StructType,
    size_of,
    struct_field_offset,
)
from ..ir.values import Argument, ConstantInt, Value
from .dataflow import INFEASIBLE, DataflowClient, ForwardDataflow, State

#: Allocation entry points whose first (or, for calloc, product of
#: first two) argument is the allocation size in bytes.  Includes the
#: renamed runtime entry points because the mechanisms redirect
#: allocator calls *before* target gathering runs.
ALLOCATION_FUNCTIONS = {
    "malloc": "malloc",
    "realloc": "realloc",
    "calloc": "calloc",
    "__sb_wrap_malloc": "malloc",
    "__sb_wrap_realloc": "realloc",
    "__sb_wrap_calloc": "calloc",
    "__lf_malloc": "malloc",
    "__lf_realloc": "realloc",
    "__lf_calloc": "calloc",
    "__lf_alloca": "malloc",
}


# ---------------------------------------------------------------------
# the integer interval domain
# ---------------------------------------------------------------------


class IntRange:
    """A signed interval ``[lo, hi]`` of an integer type."""

    __slots__ = ("bits", "lo", "hi")

    def __init__(self, bits: int, lo: int, hi: int):
        self.bits = bits
        self.lo = lo
        self.hi = hi

    # -- constructors ---------------------------------------------------
    @staticmethod
    def full(bits: int) -> "IntRange":
        return IntRange(bits, -(1 << (bits - 1)), (1 << (bits - 1)) - 1)

    @staticmethod
    def const(bits: int, value: int) -> "IntRange":
        return IntRange(bits, value, value)

    @staticmethod
    def of_constant(c: ConstantInt) -> "IntRange":
        ty = c.type
        assert isinstance(ty, IntType)
        return IntRange.const(ty.bits, c.signed_value)

    # -- queries --------------------------------------------------------
    @property
    def type_min(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def type_max(self) -> int:
        return (1 << (self.bits - 1)) - 1

    def is_full(self) -> bool:
        return self.lo <= self.type_min and self.hi >= self.type_max

    def is_constant(self) -> bool:
        return self.lo == self.hi

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntRange) and other.bits == self.bits
                and other.lo == self.lo and other.hi == self.hi)

    def __hash__(self) -> int:
        return hash((self.bits, self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"i{self.bits}[{self.lo}, {self.hi}]"

    # -- lattice --------------------------------------------------------
    def clamped(self) -> Optional["IntRange"]:
        """Wrap-soundness: an interval that leaves the representable
        range degrades to the *full* range (the value may have wrapped
        anywhere).  Returns None for the full range (= top)."""
        if self.lo < self.type_min or self.hi > self.type_max:
            return None
        return self

    def join(self, other: "IntRange") -> Optional["IntRange"]:
        """The hull; an operand that already covers the other is
        returned itself, so equal facts stay one object."""
        if other.bits != self.bits:
            return None
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        if lo == self.lo and hi == self.hi:
            return self.clamped()
        if lo == other.lo and hi == other.hi:
            return other.clamped()
        return IntRange(self.bits, lo, hi).clamped()

    def widen(self, newer: "IntRange") -> Optional["IntRange"]:
        """Push every unstable bound to the type bound."""
        lo = self.lo if newer.lo >= self.lo else self.type_min
        hi = self.hi if newer.hi <= self.hi else self.type_max
        if lo == self.lo and hi == self.hi:
            return self.clamped()
        return IntRange(self.bits, lo, hi).clamped()

    def intersect(self, lo: Optional[int], hi: Optional[int]) -> "IntRange":
        new_lo = self.lo if lo is None else max(self.lo, lo)
        new_hi = self.hi if hi is None else min(self.hi, hi)
        return IntRange(self.bits, new_lo, new_hi)

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


def _binop_range(op: str, a: IntRange, b: IntRange) -> Optional[IntRange]:
    """Transfer function for integer binary operations; None = top."""
    bits = a.bits
    if op == "add":
        return IntRange(bits, a.lo + b.lo, a.hi + b.hi).clamped()
    if op == "sub":
        return IntRange(bits, a.lo - b.hi, a.hi - b.lo).clamped()
    if op == "mul":
        corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        return IntRange(bits, min(corners), max(corners)).clamped()
    if op == "and":
        # x & C with C >= 0 lands in [0, C] for any x (two's complement).
        if b.is_constant() and b.lo >= 0:
            return IntRange(bits, 0, b.lo)
        if a.is_constant() and a.lo >= 0:
            return IntRange(bits, 0, a.lo)
        if a.lo >= 0 and b.lo >= 0:
            return IntRange(bits, 0, min(a.hi, b.hi))
        return None
    if op == "or" or op == "xor":
        # Bitwise or/xor of values in [0, 2^k) stays in [0, 2^k).
        if a.lo >= 0 and b.lo >= 0:
            width = max(a.hi, b.hi).bit_length()
            return IntRange(bits, 0, (1 << width) - 1).clamped()
        return None
    if op in ("srem", "urem"):
        # x rem n with constant n > 0: result in (-n, n); non-negative
        # x gives [0, n-1].  (urem additionally needs x >= 0 so the
        # unsigned and signed views agree.)
        if b.is_constant() and b.lo > 0:
            n = b.lo
            if a.lo >= 0:
                return IntRange(bits, 0, min(n - 1, a.hi))
            if op == "srem":
                return IntRange(bits, -(n - 1), n - 1)
        return None
    if op in ("sdiv", "udiv"):
        if b.is_constant() and b.lo > 0 and a.lo >= 0:
            return IntRange(bits, a.lo // b.lo, a.hi // b.lo)
        return None
    if op == "shl":
        if b.is_constant() and 0 <= b.lo < bits:
            return IntRange(bits, a.lo << b.lo, a.hi << b.lo).clamped()
        return None
    if op in ("lshr", "ashr"):
        if b.is_constant() and 0 <= b.lo < bits:
            if a.lo >= 0:
                return IntRange(bits, a.lo >> b.lo, a.hi >> b.lo)
            if op == "ashr":
                return IntRange(bits, a.lo >> b.lo, a.hi >> b.lo)
        return None
    return None


# ---------------------------------------------------------------------
# the pointer provenance domain
# ---------------------------------------------------------------------


class PtrFact:
    """Provenance of a pointer: allocation site + byte-offset interval.

    ``site`` is the IR object that allocated the storage (an
    :class:`Alloca`, a sized :class:`GlobalVariable`, or an allocator
    :class:`Call`); ``size`` is the allocation size in bytes when it
    is a compile-time constant, else None; ``offset`` is the signed
    64-bit interval of byte offsets from the allocation base."""

    __slots__ = ("site", "size", "offset")

    def __init__(self, site: Value, size: Optional[int], offset: IntRange):
        self.site = site
        self.size = size
        self.offset = offset

    def shifted(self, delta: IntRange) -> Optional["PtrFact"]:
        offset = _binop_range("add", self.offset, delta)
        if offset is None:
            return None
        return PtrFact(self.site, self.size, offset)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PtrFact) and other.site is self.site
                and other.size == self.size and other.offset == self.offset)

    def __hash__(self) -> int:
        return hash((id(self.site), self.size, self.offset))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        site = getattr(self.site, "name", "?") or type(self.site).__name__
        return f"<{site}+{self.offset} of {self.size}>"

    def join(self, other: "PtrFact") -> Optional["PtrFact"]:
        if other.site is not self.site or other.size != self.size:
            return None
        offset = self.offset.join(other.offset)
        if offset is None:
            return None
        if offset is self.offset:
            return self
        if offset is other.offset:
            return other
        return PtrFact(self.site, self.size, offset)

    def widen(self, newer: "PtrFact") -> Optional["PtrFact"]:
        if newer.site is not self.site:
            return None
        offset = self.offset.widen(newer.offset)
        if offset is None:
            return None
        if offset is self.offset:
            return self
        return PtrFact(self.site, self.size, offset)

    def proves_in_bounds(self, width: int) -> bool:
        """Whether an access of ``width`` bytes through this pointer is
        in bounds on *every* execution."""
        return (self.size is not None
                and self.offset.lo >= 0
                and self.offset.hi + width <= self.size)

    def proves_out_of_bounds(self, width: int) -> bool:
        """Whether the access is out of bounds on every execution.

        A strictly negative offset is out of bounds no matter the
        allocation size; overrunning the end needs the size."""
        if self.offset.hi < 0:
            return True
        return self.size is not None and self.offset.lo + width > self.size


def _constant_int(value: Value, depth: int = 0) -> Optional[int]:
    """Signed value of a constant expression: folds int casts and
    add/sub/mul of constants (the frontend emits ``mul i64 4, (sext
    i32 8 to i64)`` for ``malloc(sizeof(int) * 8)``)."""
    if depth > 8:
        return None
    if isinstance(value, ConstantInt):
        return value.signed_value
    if isinstance(value, Cast) and value.opcode in ("sext", "zext",
                                                    "trunc"):
        return _constant_int(value.value, depth + 1)
    if isinstance(value, BinOp) and value.opcode in ("add", "sub", "mul"):
        lhs = _constant_int(value.lhs, depth + 1)
        rhs = _constant_int(value.rhs, depth + 1)
        if lhs is None or rhs is None:
            return None
        if value.opcode == "add":
            return lhs + rhs
        if value.opcode == "sub":
            return lhs - rhs
        return lhs * rhs
    return None


def allocation_size(call: Call) -> Optional[int]:
    """Constant allocation size of an allocator call, else None."""
    callee = call.callee_function
    if callee is None:
        return None
    kind = ALLOCATION_FUNCTIONS.get(callee.name)
    if kind is None:
        return None
    args = call.args
    if kind == "calloc":
        if len(args) >= 2:
            count = _constant_int(args[0])
            unit = _constant_int(args[1])
            if count is not None and unit is not None:
                return count * unit
        return None
    index = 1 if kind == "realloc" else 0
    if len(args) > index:
        size = _constant_int(args[index])
        if size is not None and size >= 0:
            return size
    return None


def is_allocation_call(inst: Instruction) -> bool:
    if not isinstance(inst, Call):
        return False
    callee = inst.callee_function
    return callee is not None and callee.name in ALLOCATION_FUNCTIONS


def global_size(gv: GlobalVariable) -> Optional[int]:
    """Byte size of a global as *this translation unit* knows it --
    None for size-less extern declarations (paper Section 4.3)."""
    if gv.declared_without_size:
        return None
    return size_of(gv.value_type)


# ---------------------------------------------------------------------
# escape analysis for stack slots
# ---------------------------------------------------------------------


def non_escaping_slots(fn: Function) -> Dict[int, Alloca]:
    """Allocas whose address is only ever used as the direct operand
    of whole-slot loads and stores (never stored, passed, cast, or
    offset).  Their content can be tracked flow-sensitively: no callee
    or aliasing pointer can reach them."""
    slots: Dict[int, Alloca] = {}
    for block in fn.blocks:
        for inst in block.instructions:
            if not isinstance(inst, Alloca):
                continue
            if inst.count is not None:
                continue
            ok = True
            for user in inst.users():
                if isinstance(user, Load) and user.pointer is inst:
                    continue
                if isinstance(user, Store) and user.pointer is inst \
                        and user.value is not inst:
                    continue
                ok = False
                break
            if ok:
                slots[id(inst)] = inst
    return slots


# ---------------------------------------------------------------------
# interprocedural return summaries
# ---------------------------------------------------------------------


class ReturnSummaries:
    """Bottom-up return-range summaries over the module call graph.

    ``range_for(fn)`` is the interval covering every value ``fn`` can
    return, or None when unknown (non-integer return, native/declared
    functions, recursion)."""

    def __init__(self, module: Optional[Module] = None):
        self.module = module
        self._cache: Dict[int, Optional[IntRange]] = {}
        self._in_progress: set = set()

    def range_for(self, fn: Function) -> Optional[IntRange]:
        key = id(fn)
        if key in self._cache:
            return self._cache[key]
        if key in self._in_progress:
            return None  # recursion: degrade to top
        if fn.native or fn.is_declaration:
            self._cache[key] = None
            return None
        if not isinstance(fn.return_type, IntType):
            self._cache[key] = None
            return None
        self._in_progress.add(key)
        try:
            summary = self._compute(fn)
        finally:
            self._in_progress.discard(key)
        self._cache[key] = summary
        return summary

    def _compute(self, fn: Function) -> Optional[IntRange]:
        analysis = FunctionRangeAnalysis(fn, summaries=self)
        result: Optional[IntRange] = None
        for block, state in analysis.block_out_states():
            term = block.terminator
            if not isinstance(term, Ret) or term.value is None:
                continue
            fact = analysis.client.value_fact(term.value, state)
            if not isinstance(fact, IntRange):
                return None
            result = fact if result is None else result.join(fact)
            if result is None:
                return None
        return result


# ---------------------------------------------------------------------
# the dataflow client
# ---------------------------------------------------------------------


def _vkey(value: Value) -> Tuple[str, int]:
    return ("v", id(value))


def _mkey(slot: Alloca) -> Tuple[str, int]:
    return ("m", id(slot))


class RangeClient(DataflowClient):
    """Combined integer-range + pointer-provenance transfer."""

    def __init__(self, fn: Function,
                 summaries: Optional[ReturnSummaries] = None):
        self.fn = fn
        self.summaries = summaries
        self.slots = non_escaping_slots(fn)
        # inst -> (the state keys its fact is computed from, the facts
        # they held at its last computation, that fact); see transfer.
        self._memo: Dict[Instruction, Tuple[tuple, tuple, object]] = {}

    # -- fact lookup ----------------------------------------------------
    def value_fact(self, value: Value, state: State):
        """Best-known fact for ``value`` at the given state; None=top."""
        if isinstance(value, ConstantInt):
            return IntRange.of_constant(value)
        known = state.get(_vkey(value))
        if known is not None:
            return known
        if isinstance(value, GlobalVariable):
            return PtrFact(value, global_size(value), IntRange.const(64, 0))
        return None

    def int_fact(self, value: Value, state: State) -> Optional[IntRange]:
        fact = self.value_fact(value, state)
        return fact if isinstance(fact, IntRange) else None

    def ptr_fact(self, value: Value, state: State) -> Optional[PtrFact]:
        fact = self.value_fact(value, state)
        return fact if isinstance(fact, PtrFact) else None

    # -- engine hooks ---------------------------------------------------
    def join_fact(self, a: object, b: object) -> Optional[object]:
        if isinstance(a, IntRange) and isinstance(b, IntRange):
            return a.join(b)
        if isinstance(a, PtrFact) and isinstance(b, PtrFact):
            return a.join(b)
        return None

    def widen_fact(self, old: object, new: object) -> Optional[object]:
        if isinstance(old, IntRange) and isinstance(new, IntRange):
            return old.widen(new)
        if isinstance(old, PtrFact) and isinstance(new, PtrFact):
            return old.widen(new)
        return None

    def phi_incoming_fact(self, phi: Phi, value: Value,
                          state: State) -> Optional[object]:
        return self.value_fact(value, state)

    def transfer(self, inst: Instruction, state: State) -> None:
        # Besides the facts under its input keys, a fact depends only
        # on what stays fixed during one analysis: constants, global
        # sizes, type layouts and memoized return summaries.  So equal
        # inputs give an equal fact, and the last one is reused; a
        # recomputed fact equal to the last keeps the last object, so
        # equal facts reach a merge as one object.
        memo = self._memo.get(inst)
        keys = memo[0] if memo is not None else self._input_keys(inst)
        inputs = tuple(map(state.get, keys))
        if memo is not None and inputs == memo[1]:
            fact = memo[2]
        else:
            fact = self._compute_fact(inst, state)
            if memo is not None and fact == memo[2]:
                fact = memo[2]
            self._memo[inst] = (keys, inputs, fact)
        key = _vkey(inst)
        if fact is None:
            state.pop(key, None)
        else:
            state[key] = fact
        self._memory_effects(inst, state)

    def _input_keys(self, inst: Instruction) -> tuple:
        """The state keys ``_compute_fact(inst, ...)`` may read."""
        keys = tuple(_vkey(op) for op in inst.operands)
        if isinstance(inst, Load) and id(inst.pointer) in self.slots:
            keys += (_mkey(self.slots[id(inst.pointer)]),)
        return keys

    # -- per-instruction facts ------------------------------------------
    def _compute_fact(self, inst: Instruction, state: State):
        if isinstance(inst, Alloca):
            count = 1
            if inst.count is not None:
                if not isinstance(inst.count, ConstantInt):
                    return PtrFact(inst, None, IntRange.const(64, 0))
                count = inst.count.signed_value
            return PtrFact(inst, size_of(inst.allocated_type) * count,
                           IntRange.const(64, 0))
        if isinstance(inst, GEP):
            base = self.ptr_fact(inst.pointer, state)
            if base is None:
                return None
            delta = self._gep_offset(inst, state)
            if delta is None:
                return None
            return base.shifted(delta)
        if isinstance(inst, BinOp):
            if not isinstance(inst.type, IntType):
                return None
            a = self.int_fact(inst.lhs, state)
            b = self.int_fact(inst.rhs, state)
            bits = inst.type.bits
            a = a or IntRange.full(bits)
            b = b or IntRange.full(bits)
            result = _binop_range(inst.opcode, a, b)
            if result is not None and result.is_full():
                return None
            return result
        if isinstance(inst, Cast):
            return self._cast_fact(inst, state)
        if isinstance(inst, Select):
            a = self.value_fact(inst.true_value, state)
            b = self.value_fact(inst.false_value, state)
            if a is None or b is None:
                return None
            return self.join_fact(a, b)
        if isinstance(inst, Load):
            slot = self.slots.get(id(inst.pointer))
            if slot is not None:
                return state.get(_mkey(slot))
            return None
        if isinstance(inst, Call):
            return self._call_fact(inst, state)
        if isinstance(inst, ICmp):
            return None  # i1; edges consume the condition instead
        return None

    def _cast_fact(self, inst: Cast, state: State):
        op = inst.opcode
        if op == "bitcast":
            if isinstance(inst.type, PointerType):
                return self.ptr_fact(inst.value, state)
            return None
        if op not in ("sext", "zext", "trunc"):
            return None  # ptrtoint/inttoptr/float casts: top
        src = self.int_fact(inst.value, state)
        if src is None:
            src_ty = inst.value.type
            if not isinstance(src_ty, IntType):
                return None
            src = IntRange.full(src_ty.bits)
        assert isinstance(inst.type, IntType)
        bits = inst.type.bits
        if op == "sext":
            return IntRange(bits, src.lo, src.hi)
        if op == "zext":
            if src.lo >= 0:
                return IntRange(bits, src.lo, src.hi)
            # Negative sources reinterpret as large unsigned values.
            return IntRange(bits, 0, (1 << src.bits) - 1).clamped()
        # trunc keeps the range only when it already fits the new type.
        return IntRange(bits, src.lo, src.hi).clamped()

    def _call_fact(self, inst: Call, state: State):
        size = allocation_size(inst)
        if is_allocation_call(inst):
            return PtrFact(inst, size, IntRange.const(64, 0))
        if isinstance(inst.type, IntType) and self.summaries is not None:
            callee = inst.callee_function
            if callee is not None:
                summary = self.summaries.range_for(callee)
                if summary is not None and summary.bits == inst.type.bits:
                    return summary
        return None

    def _gep_offset(self, gep: GEP, state: State) -> Optional[IntRange]:
        """Byte-offset interval a GEP adds, through the typed layout."""
        pointer_ty = gep.pointer.type
        assert isinstance(pointer_ty, PointerType)
        current = pointer_ty.pointee
        total = IntRange.const(64, 0)
        for position, index in enumerate(gep.indices):
            if position == 0:
                scale = size_of(current)
            elif isinstance(current, ArrayType):
                current = current.element
                scale = size_of(current)
            elif isinstance(current, StructType):
                if not isinstance(index, ConstantInt):
                    return None
                offset = struct_field_offset(current, index.value)
                current = current.fields[index.value]
                total = _binop_range(
                    "add", total, IntRange.const(64, offset))
                if total is None:
                    return None
                continue
            else:
                return None
            index_range = self._index_range(index, state)
            if index_range is None:
                return None
            step = _binop_range(
                "mul", index_range, IntRange.const(64, scale))
            if step is None:
                return None
            total = _binop_range("add", total, step)
            if total is None:
                return None
        return total

    def _index_range(self, index: Value, state: State) -> Optional[IntRange]:
        if isinstance(index, ConstantInt):
            return IntRange.const(64, index.signed_value)
        fact = self.int_fact(index, state)
        if fact is None:
            return None
        # Indices are used in 64-bit address arithmetic; a narrower
        # range embeds losslessly (values are sign-extended).
        return IntRange(64, fact.lo, fact.hi)

    # -- memory tracking -------------------------------------------------
    def _memory_effects(self, inst: Instruction, state: State) -> None:
        if isinstance(inst, Store):
            slot = self.slots.get(id(inst.pointer))
            if slot is not None:
                fact = self.value_fact(inst.value, state)
                key = _mkey(slot)
                if fact is None:
                    state.pop(key, None)
                else:
                    state[key] = fact
            # Stores through *any other* pointer cannot touch a
            # non-escaping slot -- its address was never available.

    # -- edge refinement -------------------------------------------------
    def refine_edge(self, pred: BasicBlock, succ: BasicBlock,
                    state: State) -> State:
        term = pred.terminator
        if not isinstance(term, CondBr):
            return state
        cond = term.condition
        if not isinstance(cond, ICmp):
            return state
        if term.true_block is term.false_block:
            return state  # degenerate: edge truth value unknown
        taken = succ is term.true_block
        self._refine_compare(cond, taken, state)
        return state

    def _refine_compare(self, cmp: ICmp, taken: bool, state: State) -> None:
        # The frontend lowers C truth values as
        #   %c = icmp <pred> ...; %i = zext i1 %c to i32
        #   %b = icmp ne i32 %i, 0; br i1 %b, ...
        # Peel the boolean re-test to reach the comparison that
        # actually constrains program values.
        while cmp.predicate in ("ne", "eq"):
            rhs = cmp.rhs
            lhs = cmp.lhs
            if not (isinstance(rhs, ConstantInt) and rhs.value == 0):
                break
            if not (isinstance(lhs, Cast) and lhs.opcode == "zext"
                    and isinstance(lhs.value, ICmp)):
                break
            if cmp.predicate == "eq":
                taken = not taken
            cmp = lhs.value
        pred = cmp.predicate if taken else _NEGATED[cmp.predicate]
        self._refine_operand(cmp.lhs, pred, cmp.rhs, state)
        self._refine_operand(cmp.rhs, _SWAPPED[pred], cmp.lhs, state)

    def _refine_operand(self, value: Value, pred: str, other: Value,
                        state: State) -> None:
        if isinstance(value, ConstantInt) or not isinstance(
                value.type, IntType):
            return
        bound = self.int_fact(other, state)
        if bound is None:
            return
        bits = value.type.bits
        current = self.int_fact(value, state) or IntRange.full(bits)
        refined: Optional[IntRange] = None
        if pred == "eq":
            refined = current.intersect(bound.lo, bound.hi)
        elif pred == "slt":
            refined = current.intersect(None, bound.hi - 1)
        elif pred == "sle":
            refined = current.intersect(None, bound.hi)
        elif pred == "sgt":
            refined = current.intersect(bound.lo + 1, None)
        elif pred == "sge":
            refined = current.intersect(bound.lo, None)
        elif pred in ("ult", "ule"):
            # Unsigned x < C additionally proves x >= 0 whenever the
            # bound is non-negative (a negative x would be huge
            # unsigned); the unsigned view then matches the signed one.
            if bound.lo >= 0:
                hi = bound.hi - 1 if pred == "ult" else bound.hi
                refined = current.intersect(0, hi)
        elif pred in ("ugt", "uge"):
            if bound.lo >= 0 and current.lo >= 0:
                lo = bound.lo + 1 if pred == "ugt" else bound.lo
                refined = current.intersect(lo, None)
        if refined is None:
            return
        if refined.empty:
            # The branch contradicts the current facts: the edge is
            # infeasible and must contribute bottom.  (Keeping or
            # patching the fact instead would be non-monotone and can
            # manufacture ranges that exclude real executions.)
            state[INFEASIBLE] = True
            return
        state[_vkey(value)] = refined


_NEGATED = {
    "eq": "ne", "ne": "eq",
    "slt": "sge", "sge": "slt", "sgt": "sle", "sle": "sgt",
    "ult": "uge", "uge": "ult", "ugt": "ule", "ule": "ugt",
}

#: pred such that (a pred b) == (b SWAPPED[pred] a)
_SWAPPED = {
    "eq": "eq", "ne": "ne",
    "slt": "sgt", "sgt": "slt", "sle": "sge", "sge": "sle",
    "ult": "ugt", "ugt": "ult", "ule": "uge", "uge": "ule",
}


# ---------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------


class FunctionRangeAnalysis:
    """Fixpoint range/provenance facts for one function.

    ``fact_before(inst, value)`` answers "what is known about
    ``value`` at the program point just before ``inst``" -- the query
    the check-elimination filter and the lint detectors ask."""

    def __init__(self, fn: Function,
                 summaries: Optional[ReturnSummaries] = None):
        self.fn = fn
        self.client = RangeClient(fn, summaries)
        self.engine = ForwardDataflow(self.client)
        self.block_in = self.engine.run(fn)
        self._point_facts: Dict[int, State] = {}

    def _states_for(self, block: BasicBlock) -> None:
        entry = self.block_in.get(block)
        if entry is None:
            return

        def visit(inst: Instruction, state: State) -> None:
            self._point_facts[id(inst)] = dict(state)

        self.engine.replay(block, entry, visit)

    def state_before(self, inst: Instruction) -> Optional[State]:
        """The abstract state just before ``inst``; None when the
        instruction's block is unreachable."""
        if id(inst) not in self._point_facts:
            block = inst.parent
            if block is None or block not in self.block_in:
                return None
            self._states_for(block)
        return self._point_facts.get(id(inst))

    def fact_before(self, inst: Instruction, value: Value):
        state = self.state_before(inst)
        if state is None:
            return None
        return self.client.value_fact(value, state)

    def int_range_before(self, inst: Instruction,
                         value: Value) -> Optional[IntRange]:
        fact = self.fact_before(inst, value)
        return fact if isinstance(fact, IntRange) else None

    def pointer_fact_before(self, inst: Instruction,
                            value: Value) -> Optional[PtrFact]:
        fact = self.fact_before(inst, value)
        return fact if isinstance(fact, PtrFact) else None

    def block_out_states(self) -> List[Tuple[BasicBlock, State]]:
        """The abstract state at the *end* of every reachable block."""
        result = []
        for block, entry in self.block_in.items():
            result.append((block, self.engine._flow_block(block, entry)))
        return result
