"""Control-flow graph utilities."""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..ir.module import BasicBlock, Function


def successors(block: BasicBlock) -> List[BasicBlock]:
    return block.successors


def predecessor_map(fn: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Predecessors of every block, computed in one O(blocks) pass.

    ``predecessor_map(fn)[b] == b.predecessors`` for every block: each
    predecessor is listed once (a ``condbr`` with both edges to ``b``
    counts once), in ``fn.blocks`` order.  Whole-function consumers
    build this once per run instead of querying the property per
    block, which rescans the function on every call."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors:
            listed = preds.setdefault(succ, [])
            if not listed or listed[-1] is not block:
                listed.append(block)
    return preds


def reachable_blocks(fn: Function) -> Set[BasicBlock]:
    """Blocks reachable from the entry block."""
    if not fn.blocks:
        return set()
    seen: Set[BasicBlock] = set()
    stack = [fn.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        stack.extend(block.successors)
    return seen


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder of a DFS from the entry block.

    Reverse postorder visits every block before its successors (except
    along back edges), which makes dataflow analyses converge quickly.
    """
    if not fn.blocks:
        return []
    visited: Set[BasicBlock] = set()
    postorder: List[BasicBlock] = []

    # Iterative DFS to avoid recursion limits on long CFGs.
    stack: List[tuple] = [(fn.entry, iter(fn.entry.successors))]
    visited.add(fn.entry)
    while stack:
        block, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(succ.successors)))
                advanced = True
                break
        if not advanced:
            postorder.append(block)
            stack.pop()
    postorder.reverse()
    return postorder
