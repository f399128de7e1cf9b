"""Loop-invariant code motion.

Hoists loop-invariant computations into the loop preheader:

* *speculatable* instructions (arithmetic, geps, casts, compares,
  selects and ``readnone`` calls) are hoisted whenever their operands
  are loop-invariant;
* *loads* (and ``readonly`` calls, e.g. SoftBound trie lookups) are
  hoisted only when (a) nothing in the loop may write memory, (b) the
  instruction is guaranteed to execute (its block dominates all loop
  exits), and (c) **no possibly-aborting call precedes it** -- a hoisted
  load must not fault before a check that would have aborted first.

Rule (c) is the mechanism behind the paper's Section 5.5 finding:
memory-safety checks "are very effective at preventing optimizations".
When the instrumentation runs *early* in the pipeline, its may-abort
check calls sit inside every loop and block LICM; at late extension
points LICM has already done its work on clean code.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..analysis.dominators import DominatorTree
from ..analysis.loops import Loop, LoopInfo
from ..ir.builder import IRBuilder
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
)
from ..ir.module import BasicBlock, Function
from ..ir.values import Value
from .pass_manager import FunctionPass


class LICM(FunctionPass):
    name = "licm"

    def run_on_function(self, fn: Function) -> bool:
        domtree = DominatorTree(fn)
        loopinfo = LoopInfo(fn, domtree)
        changed = False
        # Process innermost loops first so code migrates outward
        # through repeated pipeline runs.
        loops = sorted(loopinfo.all_loops(), key=lambda l: -l.depth)
        for loop in loops:
            changed |= self._process_loop(fn, loop, domtree)
        return changed

    def _process_loop(self, fn: Function, loop: Loop, domtree: DominatorTree) -> bool:
        preheader = self._ensure_preheader(fn, loop)
        if preheader is None:
            return False

        loop_may_write = False
        loop_has_abort = False
        for block in loop.blocks:
            for inst in block.instructions:
                if inst.may_write_memory():
                    loop_may_write = True
                if inst.may_abort():
                    loop_has_abort = True

        exits = loop.exit_blocks()
        invariant: Set[int] = set()

        def is_invariant_value(value: Value) -> bool:
            if not isinstance(value, Instruction):
                return True
            if id(value) in invariant:
                return True
            return value.parent not in loop.blocks

        changed = False
        progress = True
        while progress:
            progress = False
            # RPO, not the membership set: the preheader receives the
            # hoisted instructions in visit order, so iteration order
            # is visible in the output IR.
            for block in loop.block_order:
                if block not in fn.blocks:
                    continue
                for inst in list(block.instructions):
                    if inst.parent is None or id(inst) in invariant:
                        continue
                    if not all(is_invariant_value(op) for op in inst.operands):
                        continue
                    if self._hoistable(inst, loop, domtree, exits,
                                       loop_may_write, loop_has_abort):
                        self._hoist(inst, preheader)
                        invariant.add(id(inst))
                        changed = True
                        progress = True
        return changed

    def _hoistable(
        self,
        inst: Instruction,
        loop: Loop,
        domtree: DominatorTree,
        exits: List[BasicBlock],
        loop_may_write: bool,
        loop_has_abort: bool,
    ) -> bool:
        if isinstance(inst, (BinOp, GEP, ICmp, FCmp, Cast, Select)):
            if isinstance(inst, BinOp) and inst.opcode in (
                "sdiv", "udiv", "srem", "urem",
            ):
                # Division can trap; require guaranteed execution.
                return self._guaranteed(inst, domtree, exits)
            return True
        if isinstance(inst, Call):
            callee = inst.callee_function
            if callee is None:
                return False
            if "readnone" in callee.attributes and "may_abort" not in callee.attributes:
                return True
            if "readonly" in callee.attributes and "may_abort" not in callee.attributes:
                return (
                    not loop_may_write
                    and not loop_has_abort
                    and self._guaranteed(inst, domtree, exits)
                )
            return False
        if isinstance(inst, Load):
            return (
                not loop_may_write
                and not loop_has_abort
                and self._guaranteed(inst, domtree, exits)
            )
        return False

    def _guaranteed(self, inst: Instruction, domtree: DominatorTree,
                    exits: List[BasicBlock]) -> bool:
        block = inst.parent
        assert block is not None
        return all(domtree.dominates_block(block, e) for e in exits) if exits else False

    def _hoist(self, inst: Instruction, preheader: BasicBlock) -> None:
        block = inst.parent
        assert block is not None
        block.remove_instruction(inst)
        term = preheader.terminator
        assert term is not None
        inst.parent = None
        preheader.insert(preheader.index_of(term), inst)

    def _ensure_preheader(self, fn: Function, loop: Loop) -> Optional[BasicBlock]:
        """The loop's preheader, inserted right before the header if
        it has none.  The predecessor map the loops share is kept up
        to date, so later loops still read the CFG as it is."""
        existing = loop.preheader()
        if existing is not None:
            return existing
        header = loop.header
        preds = loop.preds
        outside_preds = [p for p in preds[header] if p not in loop.blocks]
        if not outside_preds:
            return None
        preheader = fn.add_block(fn.next_name("preheader"))
        # Move the position right before the header for readable output.
        fn.blocks.remove(preheader)
        position = fn.blocks.index(header)
        fn.blocks.insert(position, preheader)
        builder = IRBuilder(preheader)
        builder.br(header)
        for pred in outside_preds:
            term = pred.terminator
            assert term is not None
            term.replace_successor(header, preheader)  # type: ignore[attr-defined]
        # The header's in-loop predecessors keep their function order
        # around the preheader, which sits right before the header.
        inside = [p for p in preds[header] if p in loop.blocks]
        before = [p for p in inside if fn.blocks.index(p) < position]
        preds[header] = before + [preheader] + inside[len(before):]
        preds[preheader] = outside_preds
        # Split header phis between outside and loop edges.
        for phi in header.phis():
            outside_incoming = [
                (v, b) for v, b in phi.incoming if b in outside_preds
            ]
            if not outside_incoming:
                continue
            if len(outside_incoming) == 1:
                value = outside_incoming[0][0]
            else:
                new_phi = Phi(phi.type, fn.next_name("ph"))
                preheader.insert(0, new_phi)
                for v, b in outside_incoming:
                    new_phi.add_incoming(v, b)
                value = new_phi
            for _, b in outside_incoming:
                phi.remove_incoming(b)
            phi.add_incoming(value, preheader)
        return preheader
