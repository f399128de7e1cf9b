"""Natural loop detection.

LICM, the check-hoisting filter, and the pipeline experiments of
Section 5.5 need loop structure: a back edge ``latch -> header`` where
the header dominates the latch defines a natural loop, whose body is
everything that can reach the latch without passing through the
header.  Several back edges to the same header (``continue``
statements, shared-header rotated loops) form *one* loop with several
latches, not several loops.

Nesting: headers are processed in reverse post order.  A dominator
precedes everything it dominates in any RPO, and an outer loop's
header dominates every inner header, so outer loops are always
discovered before the loops nested inside them.  A new loop's parent
is therefore simply the innermost already-discovered loop containing
its header, and a block's innermost loop assignment is only ever
refined from an enclosing loop to a nested one -- inner-loop bodies
are never attributed to the outer loop.

All orderings exposed here (``Loop.block_order``, ``exit_blocks``,
``latches``, ``LoopInfo.all_loops``) are deterministic functions of
the CFG (RPO-based), never of object identity hashes, so passes that
synthesize IR per loop produce identical modules across processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.module import BasicBlock, Function
from .cfg import predecessor_map
from .dominators import DominatorTree


class Loop:
    def __init__(self, header: BasicBlock,
                 preds: Dict[BasicBlock, List[BasicBlock]]):
        self.header = header
        #: The function's predecessor map, shared with the
        #: :class:`LoopInfo` that found this loop.
        self.preds = preds
        self.blocks: Set[BasicBlock] = {header}
        #: ``blocks`` in reverse post order (header first).  Iterate
        #: this, not the set, whenever the result influences output.
        self.block_order: List[BasicBlock] = [header]
        #: In-loop predecessors of the header (sources of the back
        #: edges), in RPO.  Multi-backedge loops have several.
        self.latches: List[BasicBlock] = []
        self.parent: Optional["Loop"] = None
        self.subloops: List["Loop"] = []

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    @property
    def depth(self) -> int:
        d, loop = 1, self.parent
        while loop is not None:
            d += 1
            loop = loop.parent
        return d

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop that are branched to from inside."""
        exits: List[BasicBlock] = []
        for block in self.block_order:
            for succ in block.successors:
                if succ not in self.blocks and succ not in exits:
                    exits.append(succ)
        return exits

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if any."""
        preds = [p for p in self.preds[self.header] if p not in self.blocks]
        if len(preds) == 1 and len(preds[0].successors) == 1:
            return preds[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop header={self.header.name} blocks={len(self.blocks)}>"


class LoopInfo:
    """All natural loops of a function, nested."""

    def __init__(self, fn: Function, domtree: Optional[DominatorTree] = None):
        self.function = fn
        self.domtree = domtree or DominatorTree(fn)
        self.loops: List[Loop] = []
        #: Predecessors of every block, in function order.  A pass that
        #: edits the CFG while it still uses these loops (LICM adding a
        #: preheader) updates it.
        self.predecessor_map = predecessor_map(fn)
        self._loop_of: Dict[BasicBlock, Loop] = {}
        self._rpo_index: Dict[BasicBlock, int] = {
            block: i for i, block in enumerate(self.domtree.rpo)
        }
        #: True when a cycle enters at a block that does not dominate
        #: it: a retreating edge that is no back edge, so no natural
        #: loop here explains that cycle.
        self.irreducible = False
        self._find_loops()

    def _find_loops(self) -> None:
        preds = self.predecessor_map
        # One loop per header, merging every back edge into it.
        headers: Dict[BasicBlock, List[BasicBlock]] = {}
        rpo_index = self._rpo_index
        for block in self.domtree.rpo:
            for succ in block.successors:
                # A dominator precedes every block it dominates in RPO,
                # so only a retreating edge can be a back edge.
                if rpo_index[succ] <= rpo_index[block]:
                    if self.domtree.dominates_block(succ, block):
                        headers.setdefault(succ, []).append(block)
                    else:
                        self.irreducible = True

        # Dominance (RPO) order: outer loops before the loops they
        # contain, so nesting resolves with a single innermost lookup.
        for header in self.domtree.rpo:
            if header not in headers:
                continue
            loop = Loop(header, preds)
            loop.latches = list(headers[header])
            worklist = list(loop.latches)
            while worklist:
                block = worklist.pop()
                if block in loop.blocks:
                    continue
                loop.blocks.add(block)
                worklist.extend(
                    p for p in preds.get(block, [])
                    if self.domtree.is_reachable(p)
                )
            loop.block_order = sorted(loop.blocks, key=self._rpo_index.get)

            # Parent: the innermost loop already containing our header
            # (computed before the body sweep below overwrites it).
            enclosing = self._loop_of.get(header)
            if enclosing is not None:
                loop.parent = enclosing
                enclosing.subloops.append(loop)
            else:
                self.loops.append(loop)

            for block in loop.block_order:
                current = self._loop_of.get(block)
                if current is None or current.contains(loop.header):
                    # Unclaimed, or claimed by a loop that encloses
                    # this one entirely: this loop is more deeply
                    # nested, so it wins the innermost slot.
                    self._loop_of[block] = loop
            self._loop_of[header] = loop

    def loop_of(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``, if any."""
        return self._loop_of.get(block)

    def all_loops(self) -> List[Loop]:
        result: List[Loop] = []
        stack = list(self.loops)
        while stack:
            loop = stack.pop()
            result.append(loop)
            stack.extend(loop.subloops)
        return result

    def loop_depth(self, block: BasicBlock) -> int:
        loop = self._loop_of.get(block)
        return loop.depth if loop is not None else 0
