"""Global value numbering with redundant load and check elimination.

A dominator-tree walk with scoped hash tables:

* *pure expressions* (binops, geps, compares, casts, selects and calls
  to ``readnone`` functions) are CSE'd against dominating occurrences;
* *loads* are CSE'd against dominating loads/stores of the same address
  within the same memory generation (any may-write instruction starts a
  new generation);
* calls to ``readonly`` functions (e.g. SoftBound's trie lookups) are
  CSE'd like loads;
* calls to functions marked ``mi_check`` (the instrumentation's
  dereference and invariant checks) with identical arguments are
  *removed* when a dominating identical check exists: the dominating
  check already aborted on failure.  This reproduces the paper's
  observation (Section 5.3) that the compiler can remove dominated
  duplicate checks by itself, making the explicit dominance filter's
  runtime effect minor.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..analysis.cfg import predecessor_map
from ..analysis.dominators import DominatorTree
from ..ir.instructions import (
    BinOp,
    Call,
    Cast,
    FCmp,
    GEP,
    ICmp,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from ..ir.module import BasicBlock, Function
from ..ir.values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)
from .pass_manager import FunctionPass


def _value_key(value: Value):
    """A hashable key identifying a value; equal constants get equal keys."""
    if isinstance(value, ConstantInt):
        return ("ci", str(value.type), value.value)
    if isinstance(value, ConstantFloat):
        # the sign tells -0.0 from 0.0, which compare equal
        return ("cf", str(value.type), value.value,
                math.copysign(1.0, value.value))
    if isinstance(value, ConstantNull):
        return ("null", str(value.type))
    if isinstance(value, UndefValue):
        return ("undef", id(value))
    return ("v", id(value))


class _ScopedTable:
    """Hash table with scope-based rollback for the dominator-tree walk."""

    def __init__(self) -> None:
        self._table: Dict = {}
        self._scopes: List[List] = []

    def push_scope(self) -> None:
        self._scopes.append([])

    def pop_scope(self) -> None:
        for key, old in reversed(self._scopes.pop()):
            if old is _MISSING:
                del self._table[key]
            else:
                self._table[key] = old

    def get(self, key):
        return self._table.get(key)

    def set(self, key, value) -> None:
        old = self._table.get(key, _MISSING)
        self._scopes[-1].append((key, old))
        self._table[key] = value


class _Missing:
    pass


_MISSING = _Missing()


class GVN(FunctionPass):
    name = "gvn"

    def run_on_function(self, fn: Function) -> bool:
        domtree = DominatorTree(fn)
        pure = _ScopedTable()
        memory = _ScopedTable()
        self._changed = False
        self._memgen = 0
        # GVN never changes the CFG: one map serves the whole walk.
        self._preds = predecessor_map(fn)

        self._walk(fn.entry, domtree, pure, memory)
        return self._changed

    # -- keys -----------------------------------------------------------
    def _expr_key(self, inst: Instruction):
        if isinstance(inst, BinOp):
            ops = [_value_key(inst.lhs), _value_key(inst.rhs)]
            if inst.opcode in ("add", "mul", "and", "or", "xor"):
                ops.sort()
            return ("bin", inst.opcode, str(inst.type), tuple(ops))
        if isinstance(inst, ICmp):
            return ("icmp", inst.predicate, _value_key(inst.lhs), _value_key(inst.rhs))
        if isinstance(inst, FCmp):
            return ("fcmp", inst.predicate, _value_key(inst.lhs), _value_key(inst.rhs))
        if isinstance(inst, Cast):
            return ("cast", inst.opcode, str(inst.type), _value_key(inst.value))
        if isinstance(inst, GEP):
            return (
                "gep",
                str(inst.type),
                _value_key(inst.pointer),
                tuple(_value_key(i) for i in inst.indices),
            )
        if isinstance(inst, Select):
            return (
                "select",
                _value_key(inst.condition),
                _value_key(inst.true_value),
                _value_key(inst.false_value),
            )
        if isinstance(inst, Call):
            fn = inst.callee_function
            if fn is not None and "readnone" in fn.attributes:
                return ("rncall", fn.name, tuple(_value_key(a) for a in inst.args))
        return None

    # -- walk ---------------------------------------------------------------
    def _walk(self, entry: BasicBlock, domtree: DominatorTree,
              pure: _ScopedTable, memory: _ScopedTable) -> None:
        """Preorder over the dominator tree, with an explicit stack:
        a block's scopes stay open while its subtree is walked."""

        def enter(block: BasicBlock):
            pure.push_scope()
            memory.push_scope()
            for inst in list(block.instructions):
                if inst.parent is None:
                    continue
                self._process(inst, pure, memory)
            return block, iter(domtree.children(block))

        stack = [enter(entry)]
        while stack:
            block, children = stack[-1]
            child = next(children, None)
            if child is None:
                memory.pop_scope()
                pure.pop_scope()
                stack.pop()
                continue
            # Memory facts may only flow along straight-line dominance:
            # if the child has any predecessor besides this block, some
            # path into it (join or loop back edge) may contain clobbers
            # that the dominator-tree walk does not see.  Start a fresh
            # memory generation in that case.
            preds = self._preds[child]
            if not (len(preds) == 1 and preds[0] is block):
                self._memgen += 1
            stack.append(enter(child))

    def _process(self, inst: Instruction, pure: _ScopedTable, memory: _ScopedTable) -> None:
        if isinstance(inst, Load):
            key = ("mem", _value_key(inst.pointer), self._memgen)
            existing = memory.get(key)
            if existing is not None and existing.type == inst.type:
                inst.replace_all_uses_with(existing)
                inst.erase_from_parent()
                self._changed = True
                return
            memory.set(key, inst)
            return
        if isinstance(inst, Store):
            self._memgen += 1
            # Store-to-load forwarding within the new generation.
            key = ("mem", _value_key(inst.pointer), self._memgen)
            memory.set(key, inst.value)
            return
        if isinstance(inst, Call):
            callee = inst.callee_function
            if callee is not None and "mi_check" in callee.attributes:
                # The compiler removes dominated duplicate checks on its
                # own, but only within a basic block (branch dedup
                # across blocks would need jump threading).  This is
                # what leaves the explicit dominance filter of
                # Section 5.3 a *small* residual win.
                key = ("check", callee.name, tuple(_value_key(a) for a in inst.args))
                existing = pure.get(key)
                if existing is not None and existing.parent is inst.parent:
                    inst.erase_from_parent()
                    self._changed = True
                    return
                pure.set(key, inst)
                # Surviving checks are opaque external calls: memory
                # facts must not flow across them.
                self._memgen += 1
                return
            if callee is not None and "readnone" in callee.attributes:
                key = self._expr_key(inst)
                existing = pure.get(key)
                if existing is not None:
                    inst.replace_all_uses_with(existing)
                    inst.erase_from_parent()
                    self._changed = True
                    return
                pure.set(key, inst)
                return
            if callee is not None and "readonly" in callee.attributes:
                key = (
                    "rocall",
                    callee.name,
                    tuple(_value_key(a) for a in inst.args),
                    self._memgen,
                )
                existing = memory.get(key)
                if existing is not None:
                    inst.replace_all_uses_with(existing)
                    inst.erase_from_parent()
                    self._changed = True
                    return
                memory.set(key, inst)
                return
            # Unknown call: clobbers memory.
            self._memgen += 1
            return
        key = self._expr_key(inst)
        if key is None:
            return
        existing = pure.get(key)
        if existing is not None and existing.type == inst.type:
            inst.replace_all_uses_with(existing)
            inst.erase_from_parent()
            self._changed = True
            return
        pure.set(key, inst)
