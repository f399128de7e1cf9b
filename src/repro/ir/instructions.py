"""Instruction set of the mini-IR.

The instruction set mirrors the fragment of LLVM IR that the paper's
Table 1 operates on: memory access (``load``/``store``), allocation
(``alloca``), pointer arithmetic (``gep``), value selection
(``phi``/``select``), calls and returns, plus the scalar arithmetic,
comparison, cast and branch instructions needed to express real
programs.

Instruction operands use the :class:`~repro.ir.values.User` machinery,
so ``replace_all_uses_with`` works uniformly.  Branch targets and phi
incoming blocks are *block references* (not operands); CFG edits update
them explicitly.

Every instruction carries a ``meta`` dictionary.  The instrumentation
framework uses it to tag inserted code (e.g. ``meta["mi_check_id"]``)
and to mark accesses it has already handled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from .types import (
    ArrayType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
    I1,
    I64,
)
from .values import User, Value

if TYPE_CHECKING:  # pragma: no cover
    from .module import BasicBlock, Function


class Instruction(User):
    """Base class of all instructions."""

    opcode: str = "<abstract>"

    def __init__(self, ty: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(ty, operands, name)
        self.parent: Optional["BasicBlock"] = None
        self.meta: Dict[str, object] = {}

    # -- position management ------------------------------------------
    def erase_from_parent(self) -> None:
        """Remove this instruction from its block and drop operands."""
        assert self.parent is not None, "instruction has no parent"
        self.parent.remove_instruction(self)
        self.drop_all_operands()

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    # -- classification ------------------------------------------------
    def is_terminator(self) -> bool:
        return isinstance(self, (Ret, Br, CondBr, Unreachable))

    def has_side_effects(self) -> bool:
        """Conservatively true if removing this instruction (when its
        value is unused) could change program behaviour."""
        if isinstance(self, (Store, Ret, Br, CondBr, Unreachable)):
            return True
        if isinstance(self, Call):
            return not self.is_pure_call()
        return False

    def may_abort(self) -> bool:
        """True for a call that may end the program or not return: an
        indirect call, or a callee that may abort, is ``noreturn``, or
        is neither ``readnone`` nor ``readonly``.  Code after such a
        call may never run."""
        return isinstance(self, Call) and not self.is_pure_call()

    def may_read_memory(self) -> bool:
        if isinstance(self, Load):
            return True
        if isinstance(self, Call):
            return not self.callee_has_attribute("readnone")
        return False

    def may_write_memory(self) -> bool:
        if isinstance(self, Store):
            return True
        if isinstance(self, Call):
            return not (
                self.callee_has_attribute("readonly")
                or self.callee_has_attribute("readnone")
            )
        return False

    def __str__(self) -> str:
        from .printer import format_instruction

        return format_instruction(self)


# ---------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------


class Alloca(Instruction):
    """Stack allocation of ``allocated_type`` (times optional count)."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, count: Optional[Value] = None, name: str = ""):
        ops = [count] if count is not None else []
        super().__init__(PointerType(allocated_type), ops, name)
        self.allocated_type = allocated_type

    @property
    def count(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None


class Load(Instruction):
    opcode = "load"

    def __init__(self, pointer: Value, name: str = ""):
        pty = pointer.type
        if not isinstance(pty, PointerType):
            raise TypeError(f"load requires a pointer operand, got {pty}")
        super().__init__(pty.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operand(0)


class Store(Instruction):
    opcode = "store"

    def __init__(self, value: Value, pointer: Value):
        pty = pointer.type
        if not isinstance(pty, PointerType):
            raise TypeError(f"store requires a pointer operand, got {pty}")
        if pty.pointee != value.type:
            raise TypeError(f"store type mismatch: {value.type} into {pty}")
        super().__init__(VoidType(), [value, pointer])

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)


def gep_result_type(base: Type, indices: Sequence[Value]) -> Type:
    """Compute the pointee type a GEP with these indices produces."""
    if not isinstance(base, PointerType):
        raise TypeError(f"gep base must be a pointer, got {base}")
    current: Type = base.pointee
    for idx in indices[1:]:
        if isinstance(current, ArrayType):
            current = current.element
        elif isinstance(current, StructType):
            from .values import ConstantInt

            if not isinstance(idx, ConstantInt):
                raise TypeError("struct gep index must be a constant int")
            current = current.fields[idx.value]
        else:
            raise TypeError(f"cannot index into {current}")
    return PointerType(current)


class GEP(Instruction):
    """``getelementptr`` -- pointer arithmetic over a typed layout."""

    opcode = "gep"

    def __init__(self, pointer: Value, indices: Sequence[Value], name: str = "", inbounds: bool = True):
        result = gep_result_type(pointer.type, list(indices))
        super().__init__(result, [pointer, *indices], name)
        self.inbounds = inbounds

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> List[Value]:
        return [self.operand(i) for i in range(1, self.num_operands)]


# ---------------------------------------------------------------------
# SSA / selection
# ---------------------------------------------------------------------


class Phi(Instruction):
    opcode = "phi"

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, [], name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(f"phi incoming type mismatch: {value.type} vs {self.type}")
        self.append_operand(value)
        self.incoming_blocks.append(block)

    @property
    def incoming(self) -> List[tuple]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_value_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming edge from {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                self.remove_operand(i)
                del self.incoming_blocks[i]
                return
        raise KeyError(f"phi has no incoming edge from {block.name}")


class Select(Instruction):
    opcode = "select"

    def __init__(self, cond: Value, true_value: Value, false_value: Value, name: str = ""):
        if cond.type != I1:
            raise TypeError("select condition must be i1")
        if true_value.type != false_value.type:
            raise TypeError("select arm types differ")
        super().__init__(true_value.type, [cond, true_value, false_value], name)

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)


# ---------------------------------------------------------------------
# Arithmetic / comparison / casts
# ---------------------------------------------------------------------

INT_BINOPS = {
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "frem"}
BINOPS = INT_BINOPS | FLOAT_BINOPS


class BinOp(Instruction):
    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINOPS:
            raise ValueError(f"unknown binary op: {op}")
        if lhs.type != rhs.type:
            raise TypeError(f"binop operand types differ: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = op

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


ICMP_PREDICATES = {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
FCMP_PREDICATES = {
    # ordered: false if either operand is NaN
    "oeq", "one", "olt", "ole", "ogt", "oge", "ord",
    # unordered: true if either operand is NaN
    "ueq", "une", "ult", "ule", "ugt", "uge", "uno",
}


class ICmp(Instruction):
    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {predicate}")
        if lhs.type != rhs.type:
            raise TypeError("icmp operand types differ")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class FCmp(Instruction):
    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate: {predicate}")
        if lhs.type != rhs.type:
            raise TypeError("fcmp operand types differ")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


CAST_OPS = {
    "trunc", "zext", "sext",
    "fptrunc", "fpext", "fptosi", "sitofp", "fptoui", "uitofp",
    "ptrtoint", "inttoptr", "bitcast",
}


class Cast(Instruction):
    def __init__(self, op: str, value: Value, dest: Type, name: str = ""):
        if op not in CAST_OPS:
            raise ValueError(f"unknown cast op: {op}")
        super().__init__(dest, [value], name)
        self.opcode = op

    @property
    def value(self) -> Value:
        return self.operand(0)


# ---------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------


class Ret(Instruction):
    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        ops = [value] if value is not None else []
        super().__init__(VoidType(), ops)

    @property
    def value(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None

    @property
    def successors(self) -> List["BasicBlock"]:
        return []


class Br(Instruction):
    opcode = "br"

    def __init__(self, target: "BasicBlock"):
        super().__init__(VoidType(), [])
        self.target = target

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.target is old:
            self.target = new


class CondBr(Instruction):
    opcode = "condbr"

    def __init__(self, cond: Value, true_block: "BasicBlock", false_block: "BasicBlock"):
        if cond.type != I1:
            raise TypeError("conditional branch condition must be i1")
        super().__init__(VoidType(), [cond])
        self.true_block = true_block
        self.false_block = false_block

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def successors(self) -> List["BasicBlock"]:
        return [self.true_block, self.false_block]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.true_block is old:
            self.true_block = new
        if self.false_block is old:
            self.false_block = new


class Unreachable(Instruction):
    opcode = "unreachable"

    def __init__(self):
        super().__init__(VoidType(), [])

    @property
    def successors(self) -> List["BasicBlock"]:
        return []


# ---------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------


class Call(Instruction):
    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value], name: str = ""):
        fnty = Call._callee_fnty(callee)
        super().__init__(fnty.ret, [callee, *args], name)

    @staticmethod
    def _callee_fnty(callee: Value) -> FunctionType:
        ty = callee.type
        if isinstance(ty, FunctionType):
            return ty
        if isinstance(ty, PointerType) and isinstance(ty.pointee, FunctionType):
            return ty.pointee
        raise TypeError(f"call target is not a function: {ty}")

    @property
    def callee(self) -> Value:
        return self.operand(0)

    @property
    def args(self) -> List[Value]:
        return [self.operand(i) for i in range(1, self.num_operands)]

    @property
    def callee_function(self):
        """The statically known callee, or None for indirect calls."""
        from .module import Function

        target = self.callee
        return target if isinstance(target, Function) else None

    def callee_has_attribute(self, attr: str) -> bool:
        fn = self.callee_function
        return fn is not None and attr in fn.attributes

    def is_pure_call(self) -> bool:
        """True if the call can be removed when its result is unused.

        Possibly-aborting calls (memory-safety checks) are never pure,
        even when they read no memory: removing one would silence the
        abort."""
        fn = self.callee_function
        if fn is None:
            return False
        attributes = fn.attributes
        return (("readnone" in attributes or "readonly" in attributes)
                and "may_abort" not in attributes
                and "noreturn" not in attributes)
