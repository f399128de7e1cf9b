"""A static upper bound on the instructions one call of a function runs.

The codegen engine's call dispatch (``vm/interpreter.py``) emits a
function at its first call only when one call is expected to execute
enough instructions to pay for emitting it; otherwise the tree-walker
runs it until its calls have.  The estimate is the sum, over the
reachable blocks, of the block's size times the trip bounds of every
loop enclosing it.

A *trip bound* caps how often a loop's header runs per entry of the
loop.  It comes from an induction variable -- a header phi entered with
constants and advanced by every latch by a constant step, all steps in
one direction -- and an exit test of that variable (or of its advanced
value) against a constant, in a block that runs on every iteration
because it dominates every latch.  That accepts loop shapes the
soundness recognizer of :mod:`repro.analysis.induction` rejects: the
exit test in the latch (a rotated loop), a count-down variable, several
latches, and further exits (``break``), which only shorten the loop.  A
cost bound needs no soundness proof: it decides *when* a function is
emitted, never what a run computes or charges.

A loop with no such test, or a cycle :class:`LoopInfo` does not explain
(an irreducible one), is unbounded, and so is the whole function.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import BinOp, CondBr, ICmp
from ..ir.module import Function
from ..ir.values import ConstantInt, Value
from .dominators import DominatorTree
from .induction import _peel_condition
from .loops import Loop, LoopInfo
from .ranges import _NEGATED, _SWAPPED

#: Continue predicates of a count-up variable; a count-down one's are
#: mirrored into these.
_UP = ("slt", "sle", "ult", "ule", "ne", "eq")
#: ``x > c`` is ``-x < -c``: a count-down test as a count-up one.
_MIRRORED = {"sgt": "slt", "sge": "sle", "ugt": "ult", "uge": "ule",
             "ne": "ne", "eq": "eq"}


def work_bound(fn: Function, cap: float = math.inf) -> float:
    """An upper bound on the instructions one call of ``fn`` executes:
    ``math.inf`` when a loop has no constant trip bound, and any value
    above ``cap`` once the sum passes it (the estimate stops there)."""
    info = LoopInfo(fn)
    if info.irreducible:
        return math.inf
    weights: Dict[Loop, float] = {}
    total = 0
    for block in info.domtree.rpo:
        loop = info.loop_of(block)
        weight = 1 if loop is None else _weight(loop, info.domtree, weights)
        total += len(block.instructions) * weight
        if total > cap or weight == math.inf:
            return total
    return total


def _weight(loop: Loop, domtree: DominatorTree,
            weights: Dict[Loop, float]) -> float:
    """The product of the trip bounds of ``loop`` and the loops
    enclosing it."""
    weight = weights.get(loop)
    if weight is None:
        trips = trip_bound(loop, domtree)
        weight = math.inf if trips is None else trips
        if loop.parent is not None:
            weight *= _weight(loop.parent, domtree, weights)
        weights[loop] = weight
    return weight


def trip_bound(loop: Loop, domtree: DominatorTree) -> Optional[int]:
    """How often ``loop``'s header can run per entry of the loop, or
    None without a constant bound (see the module docstring)."""
    ivs = _induction_values(loop)
    if not ivs:
        return None
    best: Optional[int] = None
    for block in loop.block_order:
        term = block.terminator
        if not isinstance(term, CondBr):
            continue
        stays = term.true_block in loop.blocks
        if stays == (term.false_block in loop.blocks):
            continue
        if not all(domtree.dominates_block(block, latch)
                   for latch in loop.latches):
            continue
        cond, stays = _peel_condition(term.condition, stays)
        if not isinstance(cond, ICmp):
            continue
        trips = _exit_test_trips(cond, stays, ivs)
        if trips is not None and (best is None or trips < best):
            best = trips
    return best


#: ``(initial constants, steps of the latches, the step this value is
#: ahead of the phi)`` per induction value.
_IV = Tuple[List[ConstantInt], List[int], int]


def _induction_values(loop: Loop) -> Dict[Value, _IV]:
    """Each header phi entered with constants and advanced by every
    latch by a nonzero constant step, all steps of one sign, and each
    of its advanced values, with what :func:`_exit_test_trips` needs."""
    found: Dict[Value, _IV] = {}
    for phi in loop.header.phis():
        inits: List[ConstantInt] = []
        advanced: Dict[Value, int] = {}
        for value, pred in phi.incoming:
            if pred not in loop.blocks:
                if not isinstance(value, ConstantInt):
                    break
                inits.append(value)
                continue
            step = _step(value, phi)
            if step is None:
                break
            advanced[value] = step
        else:
            steps = list(advanced.values())
            if inits and steps and (min(steps) > 0 or max(steps) < 0):
                found[phi] = (inits, steps, 0)
                for value, step in advanced.items():
                    found[value] = (inits, steps, step)
    return found


def _step(value: Value, phi: Value) -> Optional[int]:
    """``c`` when ``value`` is ``phi + c`` or ``phi - (-c)``, for a
    nonzero constant ``c``."""
    if not isinstance(value, BinOp) or value.opcode not in ("add", "sub"):
        return None
    lhs, rhs = value.lhs, value.rhs
    if value.opcode == "add" and rhs is phi:
        lhs, rhs = rhs, lhs
    if lhs is not phi or not isinstance(rhs, ConstantInt):
        return None
    step = rhs.signed_value if value.opcode == "add" else -rhs.signed_value
    return step or None


def _exit_test_trips(cond: ICmp, stays: bool,
                     ivs: Dict[Value, _IV]) -> Optional[int]:
    """How often the header can run: one more than how often ``cond``
    can come out ``stays`` (the loop continues), when it compares an
    induction value with a constant; else None."""
    predicate, value, bound = cond.predicate, cond.lhs, cond.rhs
    if value not in ivs:
        predicate, value, bound = _SWAPPED[predicate], bound, value
    if value not in ivs or not isinstance(bound, ConstantInt):
        return None
    if not stays:
        predicate = _NEGATED[predicate]
    inits, steps, ahead = ivs[value]
    signed = not predicate.startswith("u")
    read = (lambda c: c.signed_value) if signed else (lambda c: c.value)
    limit = read(bound)
    starts = [read(c) + ahead for c in inits]
    if steps[0] < 0:
        # Count down: mirror the values so the variable counts up.
        if predicate not in _MIRRORED:
            return None
        predicate = _MIRRORED[predicate]
        limit, starts, steps = -limit, [-s for s in starts], [-s for s in steps]
    elif predicate not in _UP:
        return None
    start, step = min(starts), min(steps)
    if predicate == "eq":
        passes = 1
    elif predicate == "ne":
        # Only a variable that lands on the limit stops there.
        if max(steps) != step or any(s > limit or (limit - s) % step
                                     for s in starts):
            return None
        passes = (limit - start) // step
    elif predicate in ("slt", "ult"):
        passes = -((start - limit) // step)
    else:
        passes = (limit - start) // step + 1
    return max(passes, 0) + 1
