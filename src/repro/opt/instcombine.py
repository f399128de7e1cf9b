"""Instruction combining: constant folding and algebraic peepholes.

A worklist-driven local simplifier in the spirit of LLVM's InstCombine,
covering the folds the workloads actually produce: constant arithmetic,
algebraic identities, cast round-trips (including ``ptrtoint`` /
``inttoptr`` pairs -- which is how an optimizer *introduces or removes*
the casts that trouble SoftBound, cf. paper Section 4.4), comparison
folds, and select-on-constant.
"""

from __future__ import annotations

from typing import Optional

from ..ir.instructions import (
    BinOp,
    Cast,
    FCmp,
    GEP,
    ICmp,
    Instruction,
    Select,
)
from ..ir.semantics import fold
from ..ir.types import I1, FloatType, IntType, PointerType
from ..ir.values import ConstantFloat, ConstantInt, ConstantNull, UndefValue, Value
from ..ir.module import Function
from .pass_manager import FunctionPass


def _constant(ty, value) -> Optional[Value]:
    """The constant ``value`` of ``ty``; None when ``value`` is None
    (the fold would raise) or not a value of ``ty``."""
    if isinstance(ty, IntType) and isinstance(value, int):
        return ConstantInt(ty, value)
    if isinstance(ty, FloatType) and isinstance(value, float):
        return ConstantFloat(ty, value)
    return None


class InstCombine(FunctionPass):
    name = "instcombine"

    def run_on_function(self, fn: Function) -> bool:
        changed = False
        progress = True
        while progress:
            progress = False
            for block in fn.blocks:
                for inst in list(block.instructions):
                    if inst.parent is None:
                        continue
                    replacement = self._simplify(inst)
                    if replacement is not None and replacement is not inst:
                        inst.replace_all_uses_with(replacement)
                        inst.erase_from_parent()
                        progress = True
                        changed = True
        return changed

    def _simplify(self, inst: Instruction) -> Optional[Value]:
        if isinstance(inst, BinOp):
            return self._simplify_binop(inst)
        if isinstance(inst, ICmp):
            return self._simplify_icmp(inst)
        if isinstance(inst, FCmp):
            return self._simplify_fcmp(inst)
        if isinstance(inst, Cast):
            return self._simplify_cast(inst)
        if isinstance(inst, Select):
            cond = inst.condition
            if isinstance(cond, ConstantInt):
                return inst.true_value if cond.value else inst.false_value
            if inst.true_value is inst.false_value:
                return inst.true_value
            return None
        if isinstance(inst, GEP):
            # gep with all-zero indices is the base pointer (modulo type).
            if inst.type == inst.pointer.type and all(
                isinstance(i, ConstantInt) and i.value == 0 for i in inst.indices
            ):
                return inst.pointer
            return None
        return None

    def _simplify_binop(self, inst: BinOp) -> Optional[Value]:
        lhs, rhs = inst.lhs, inst.rhs
        ty = inst.type
        if isinstance(ty, IntType):
            if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
                return _constant(ty, fold(inst, lhs.value, rhs.value))
            # Canonicalize constants to the right for commutative ops.
            if isinstance(lhs, ConstantInt) and inst.opcode in (
                "add", "mul", "and", "or", "xor"
            ):
                inst.set_operand(0, rhs)
                inst.set_operand(1, lhs)
                lhs, rhs = inst.lhs, inst.rhs
            if isinstance(rhs, ConstantInt):
                c = rhs.value
                op = inst.opcode
                if c == 0 and op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
                    return lhs
                if c == 0 and op in ("mul", "and"):
                    return ConstantInt(ty, 0)
                if c == 1 and op in ("mul", "sdiv", "udiv"):
                    return lhs
                if c == ty.mask and op == "and":
                    return lhs
            if inst.opcode == "sub" and lhs is rhs:
                return ConstantInt(ty, 0)
            if inst.opcode == "xor" and lhs is rhs:
                return ConstantInt(ty, 0)
            return None
        if isinstance(ty, FloatType):
            if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
                return _constant(ty, fold(inst, lhs.value, rhs.value))
        return None

    def _simplify_icmp(self, inst: ICmp) -> Optional[Value]:
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            return ConstantInt(I1, fold(inst, lhs.value, rhs.value))
        if lhs is rhs:
            return ConstantInt(I1, int(inst.predicate in ("eq", "sle", "sge", "ule", "uge")))
        if isinstance(lhs, ConstantNull) and isinstance(rhs, ConstantNull):
            return ConstantInt(I1, int(inst.predicate in ("eq", "sle", "sge", "ule", "uge")))
        return None

    def _simplify_fcmp(self, inst: FCmp) -> Optional[Value]:
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
            return ConstantInt(I1, fold(inst, lhs.value, rhs.value))
        return None

    def _simplify_cast(self, inst: Cast) -> Optional[Value]:
        value = inst.value
        op = inst.opcode
        src_ty, dst_ty = value.type, inst.type
        if src_ty == dst_ty and op in ("bitcast", "zext", "sext", "trunc",
                                       "fpext", "fptrunc"):
            return value
        if isinstance(value, ConstantInt):
            if op in ("trunc", "zext", "sext", "sitofp", "uitofp"):
                return _constant(dst_ty, fold(inst, value.value))
            if op == "inttoptr" and value.value == 0 and isinstance(dst_ty, PointerType):
                return ConstantNull(dst_ty)
        if isinstance(value, ConstantFloat):
            if op in ("fpext", "fptrunc", "fptosi"):
                # A non-finite fptosi does not fold: it raises at run time.
                return _constant(dst_ty, fold(inst, value.value))
        if isinstance(value, ConstantNull):
            if op == "bitcast" and isinstance(dst_ty, PointerType):
                return ConstantNull(dst_ty)
            if op == "ptrtoint" and isinstance(dst_ty, IntType):
                return ConstantInt(dst_ty, 0)
        if isinstance(value, UndefValue):
            return UndefValue(dst_ty)
        # Cast-of-cast round trips.
        if isinstance(value, Cast):
            inner = value
            # bitcast(bitcast(x)) -> bitcast(x); collapses chains.
            if op == "bitcast" and inner.opcode == "bitcast":
                if inner.value.type == dst_ty:
                    return inner.value
            # inttoptr(ptrtoint(x)) -> x if types line up: LLVM performs
            # this fold, *removing* casts the programmer wrote.
            if op == "inttoptr" and inner.opcode == "ptrtoint":
                if inner.value.type == dst_ty:
                    return inner.value
            if op == "ptrtoint" and inner.opcode == "inttoptr":
                if inner.value.type == dst_ty:
                    return inner.value
            # trunc(zext(x)) / trunc(sext(x)) -> x when widths match.
            if op == "trunc" and inner.opcode in ("zext", "sext"):
                if inner.value.type == dst_ty:
                    return inner.value
        return None
