"""Function inlining.

Inlines calls to small defined functions.  This matters for fidelity:
clang at -O2/-O3 inlines small helpers, so the memory accesses the
instrumentation sees at late extension points sit directly in hot loops
rather than behind calls.

Implementation: the call block is split; the callee's blocks are cloned
with arguments substituted; returns branch to the continuation block,
where a phi merges the return values.  Static entry-block allocas of
the callee are re-anchored in the caller's entry block.  Cloning is
two-phase (create, then remap operands) so cross-block forward
references -- e.g. loop phis -- resolve correctly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import VoidType
from ..ir.values import UndefValue, Value
from .pass_manager import Pass

DEFAULT_THRESHOLD = 35


def _clone_shallow(
    inst: Instruction, block_map: Dict[BasicBlock, BasicBlock]
) -> Instruction:
    """Clone one instruction, keeping the *original* value operands.

    Branch targets and phi incoming blocks are remapped immediately
    (``block_map`` is complete before cloning starts); value operands
    are remapped in a second phase.
    """
    if isinstance(inst, Alloca):
        clone: Instruction = Alloca(inst.allocated_type, inst.count, inst.name)
    elif isinstance(inst, Load):
        clone = Load(inst.pointer, inst.name)
    elif isinstance(inst, Store):
        clone = Store(inst.value, inst.pointer)
    elif isinstance(inst, GEP):
        clone = GEP(inst.pointer, inst.indices, inst.name, inst.inbounds)
    elif isinstance(inst, Phi):
        phi = Phi(inst.type, inst.name)
        for value, block in inst.incoming:
            phi.add_incoming(value, block_map[block])
        clone = phi
    elif isinstance(inst, Select):
        clone = Select(inst.condition, inst.true_value, inst.false_value, inst.name)
    elif isinstance(inst, BinOp):
        clone = BinOp(inst.opcode, inst.lhs, inst.rhs, inst.name)
    elif isinstance(inst, ICmp):
        clone = ICmp(inst.predicate, inst.lhs, inst.rhs, inst.name)
    elif isinstance(inst, FCmp):
        clone = FCmp(inst.predicate, inst.lhs, inst.rhs, inst.name)
    elif isinstance(inst, Cast):
        clone = Cast(inst.opcode, inst.value, inst.type, inst.name)
    elif isinstance(inst, Call):
        clone = Call(inst.callee, inst.args, inst.name)
    elif isinstance(inst, Br):
        clone = Br(block_map[inst.target])
    elif isinstance(inst, CondBr):
        clone = CondBr(inst.condition, block_map[inst.true_block],
                       block_map[inst.false_block])
    elif isinstance(inst, Unreachable):
        clone = Unreachable()
    else:
        raise TypeError(f"cannot clone instruction {inst!r}")
    clone.meta = dict(inst.meta)
    return clone


def _is_directly_recursive(fn: Function) -> bool:
    for inst in fn.instructions():
        if isinstance(inst, Call) and inst.callee_function is fn:
            return True
    return False


def inline_call(call: Call) -> bool:
    """Inline one call site.  Returns False if the callee is not
    inlinable (declaration, native, self-call, vararg)."""
    callee = call.callee_function
    if callee is None or callee.native or callee.is_declaration:
        return False
    if callee.fnty.vararg:
        return False
    caller_block = call.parent
    assert caller_block is not None
    caller = caller_block.parent
    assert caller is not None
    if callee is caller:
        return False

    # Split the call block: everything after the call moves to `after`.
    after = caller.add_block(caller.next_name("inl.cont"), after=caller_block)
    call_index = caller_block.index_of(call)
    moved = caller_block.instructions[call_index + 1 :]
    for inst in moved:
        caller_block.remove_instruction(inst)
        inst.parent = None
        after.append(inst)
    # Successor phis must now see `after` as the predecessor.
    for succ in after.successors:
        for phi in succ.phis():
            for i, pred in enumerate(phi.incoming_blocks):
                if pred is caller_block:
                    phi.incoming_blocks[i] = after

    # Build the block map, placing clones before `after`.
    block_map: Dict[BasicBlock, BasicBlock] = {}
    for block in callee.blocks:
        clone_block = BasicBlock(caller.next_name(f"inl.{block.name}"), caller)
        caller.blocks.insert(caller.blocks.index(after), clone_block)
        block_map[block] = clone_block

    # Phase 1: clone instructions (original value operands).
    value_map: Dict[Value, Value] = {}
    for formal, actual in zip(callee.args, call.args):
        value_map[formal] = actual
    returns: List[Tuple[Optional[Value], BasicBlock]] = []
    clones: List[Instruction] = []
    for block in callee.blocks:
        clone_block = block_map[block]
        for inst in block.instructions:
            if isinstance(inst, Ret):
                returns.append((inst.value, clone_block))
                clone_block.append(Br(after))
                continue
            clone = _clone_shallow(inst, block_map)
            clone_block.append(clone)
            clones.append(clone)
            value_map[inst] = clone

    # Phase 2: remap value operands.
    for clone in clones:
        for i, op in enumerate(clone.operands):
            mapped = value_map.get(op)
            if mapped is not None:
                clone.set_operand(i, mapped)

    # Hoist static allocas of the inlined entry into the caller's entry.
    inlined_entry = block_map[callee.entry]
    for inst in list(inlined_entry.instructions):
        if isinstance(inst, Alloca) and inst.count is None:
            inlined_entry.remove_instruction(inst)
            inst.parent = None
            caller.entry.insert(0, inst)

    # Wire the return value(s) into the continuation.
    def mapped_return(value: Optional[Value]) -> Value:
        if value is None:
            return UndefValue(call.type)
        return value_map.get(value, value)

    if call.num_uses:
        if len(returns) == 1:
            call.replace_all_uses_with(mapped_return(returns[0][0]))
        elif len(returns) > 1:
            phi = Phi(call.type, caller.next_name("inl.ret"))
            after.insert(0, phi)
            for value, block in returns:
                phi.add_incoming(mapped_return(value), block)
            call.replace_all_uses_with(phi)
        else:
            call.replace_all_uses_with(UndefValue(call.type))
    call.erase_from_parent()
    caller_block.append(Br(block_map[callee.entry]))
    # If the callee never returns, `after` is unreachable; SimplifyCFG
    # removes it later.  The IR stays structurally valid because `after`
    # inherited the original terminator.
    return True


class Inliner(Pass):
    name = "inline"

    def __init__(self, threshold: int = DEFAULT_THRESHOLD):
        self.threshold = threshold

    def run(self, module: Module) -> bool:
        changed = False
        for fn in list(module.functions.values()):
            if fn.is_declaration or fn.native:
                continue
            # Snapshot call sites up front; no cascading inlining within
            # one pass run, which bounds code growth.
            sites = [
                inst
                for inst in fn.instructions()
                if isinstance(inst, Call) and self._should_inline(inst, fn)
            ]
            for site in sites:
                if site.parent is None:
                    continue
                changed |= inline_call(site)
        return changed

    def _should_inline(self, call: Call, caller: Function) -> bool:
        callee = call.callee_function
        if callee is None or callee.native or callee.is_declaration:
            return False
        if callee is caller or _is_directly_recursive(callee):
            return False
        if "noinline" in callee.attributes:
            return False
        return callee.instruction_count() <= self.threshold
