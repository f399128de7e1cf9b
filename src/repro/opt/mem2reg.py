"""mem2reg: promote allocas to SSA registers.

The frontend lowers every local variable to an ``alloca`` with explicit
loads and stores; this pass promotes the *non-address-taken* scalar
allocas into SSA values using the classic iterated-dominance-frontier
phi placement and a dominator-tree renaming walk.

Where this pass runs relative to the instrumentation extension point
matters greatly for the paper's pipeline experiments: it always runs
before the earliest extension point (as in clang), so instrumentations
never see spurious checks on promotable locals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.dominators import DominatorTree
from ..ir.instructions import Alloca, Instruction, Load, Phi, Store
from ..ir.module import BasicBlock, Function
from ..ir.types import Type
from ..ir.values import UndefValue, Value
from .pass_manager import FunctionPass


def _is_promotable(alloca: Alloca) -> bool:
    if alloca.count is not None:
        return False
    if alloca.allocated_type.is_aggregate():
        return False
    for use in alloca.uses:
        user = use.user
        if isinstance(user, Load):
            continue
        if isinstance(user, Store) and user.pointer is alloca and user.value is not alloca:
            continue
        return False  # address escapes (gep, cast, call, ...)
    return True


class Mem2Reg(FunctionPass):
    name = "mem2reg"

    def run_on_function(self, fn: Function) -> bool:
        allocas = [
            inst
            for inst in fn.entry.instructions
            if isinstance(inst, Alloca) and _is_promotable(inst)
        ]
        if not allocas:
            return False
        domtree = DominatorTree(fn)
        frontier = domtree.dominance_frontier()
        phi_slots: Dict[Phi, Alloca] = {}
        # Layout order for set-of-blocks iteration: phi names (and with
        # them the whole downstream pipeline) must not depend on Python
        # set ordering, or repeated compiles of the same unit diverge.
        block_order = {b: i for i, b in enumerate(fn.blocks)}

        for alloca in allocas:
            defining_blocks = {
                use.user.parent
                for use in alloca.uses
                if isinstance(use.user, Store) and use.user.parent is not None
            }
            # Iterated dominance frontier.
            phi_blocks: Set[BasicBlock] = set()
            worklist = [b for b in defining_blocks if domtree.is_reachable(b)]
            while worklist:
                block = worklist.pop()
                for df_block in frontier.get(block, ()):
                    if df_block not in phi_blocks:
                        phi_blocks.add(df_block)
                        worklist.append(df_block)
            for block in sorted(phi_blocks, key=block_order.__getitem__):
                phi = Phi(alloca.allocated_type, fn.next_name("m2r"))
                block.insert(0, phi)
                phi_slots[phi] = alloca

        # Renaming walk over the dominator tree.
        current: Dict[Alloca, List[Value]] = {a: [] for a in allocas}
        alloca_set = set(map(id, allocas))
        to_erase: List[Instruction] = []

        def value_for(alloca: Alloca) -> Value:
            stack = current[alloca]
            if stack:
                return stack[-1]
            return UndefValue(alloca.allocated_type)

        def rename(block: BasicBlock):
            """Rename ``block`` itself; returns what it pushed, to pop
            once its dominator subtree is done."""
            pushed: Dict[Alloca, int] = {}
            for inst in list(block.instructions):
                if isinstance(inst, Phi) and inst in phi_slots:
                    alloca = phi_slots[inst]
                    current[alloca].append(inst)
                    pushed[alloca] = pushed.get(alloca, 0) + 1
                elif isinstance(inst, Load) and id(inst.pointer) in alloca_set:
                    alloca = inst.pointer  # type: ignore[assignment]
                    inst.replace_all_uses_with(value_for(alloca))
                    to_erase.append(inst)
                elif isinstance(inst, Store) and id(inst.pointer) in alloca_set:
                    alloca = inst.pointer  # type: ignore[assignment]
                    current[alloca].append(inst.value)
                    pushed[alloca] = pushed.get(alloca, 0) + 1
                    to_erase.append(inst)
            for succ in block.successors:
                for phi in succ.phis():
                    if phi in phi_slots:
                        phi.add_incoming(value_for(phi_slots[phi]), block)
            return pushed, iter(domtree.children(block))

        # Preorder over the dominator tree, with an explicit stack.
        stack = [rename(fn.entry)]
        while stack:
            pushed, children = stack[-1]
            child = next(children, None)
            if child is not None:
                stack.append(rename(child))
                continue
            stack.pop()
            for alloca, count in pushed.items():
                del current[alloca][-count:]

        for inst in to_erase:
            inst.erase_from_parent()
        for alloca in allocas:
            alloca.erase_from_parent()
        # Phis placed in blocks that turned out unreachable from any
        # definition keep undef incoming values; clean trivial ones.
        for phi, alloca in phi_slots.items():
            if phi.parent is None:
                continue
            if phi.num_operands == 0:
                phi.replace_all_uses_with(UndefValue(phi.type))
                phi.erase_from_parent()
        return True
