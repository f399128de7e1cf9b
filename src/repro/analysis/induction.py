"""Induction-variable and monotone-pointer analysis for counted loops.

The check-hoisting filter (``-mi-opt-hoist``) replaces the
per-iteration dereference checks of a loop with one widened check in
the preheader.  Everything it needs to know about the loop is derived
here:

* :func:`analyze_counted_loop` recognizes *counted loops*: a natural
  loop with a unique preheader, a single latch, whose only exit is the
  header's conditional branch on ``iv <cmp> bound``, where ``iv`` is a
  header phi advancing by a positive constant step from a constant
  initial value.  The recognizer also demands that every non-header
  block branches back into the loop (no breaks), that the body
  contains no may-abort calls, and that every nested subloop provably
  *terminates* (:func:`_loop_terminates`) -- these conditions make
  the trip count exact and guarantee that once the loop is entered,
  *every* iteration's checks execute.  :func:`_loop_terminates`
  shares the recognizer's loop-shape test, stepped-phi search and
  continue-predicate normalisation, and keeps its own range proofs.

* :func:`affine_pointer` decomposes a checked pointer into
  ``root + slope*iv + intercept`` (bytes) by walking its GEP/bitcast
  chain through the typed layout, where ``root`` is loop-invariant and
  available in the preheader.  Index expressions may use the IV,
  constants, and ``add``/``sub``/``mul``/``shl``/``sext``/``zext``
  combinations thereof -- but the VM implements *fixed-width wrapping*
  arithmetic, so the decomposition is only exact when no intermediate
  wraps.  Every node of the index expression is therefore checked to
  fit its own integer type across the whole IV range the check
  executes over (the model is linear in ``iv``, so checking the two
  endpoint values suffices); ``zext`` additionally requires its
  operand to be provably non-negative over that range (``zext`` of a
  negative value is not value-preserving), and ``trunc`` is always
  rejected.  Any node that could wrap makes the modeled address
  diverge from the executed one in *either* direction, so the whole
  pointer is conservatively rejected.

Why a single widened check is exact (the *extremes argument*): the
addresses a group of affine checks accesses over iterations
``init..last`` form a set whose minimum and maximum are attained at
the first or last iteration (monotonicity in ``iv``).  Allocations are
contiguous, so the convex hull ``[min, max+width)`` lies inside the
witness allocation iff both extreme accesses do, iff every access
does.  The widened check over the hull therefore passes exactly when
all the per-iteration checks it replaces would have passed.

The trip count must be the *dynamic* one: the hull's upper end uses
the last IV value computed at run time from the loop bound (the
filter synthesizes that arithmetic in the preheader); a static
over-approximation could widen the hull beyond what the program
actually accesses and abort a valid run.  For the same reason the
recognizer requires a static proof that the loop runs at least once
(``init < bound`` at the preheader): for a zero-trip loop the "first
access" does not exist, so there is nothing sound to check.

One block is special: the *header* executes ``trip_count + 1`` times
-- its instructions also run on the final entry whose exit test
fails, with ``iv == last + step``.  A header-resident access
therefore spans IV values ``init .. last+step``, one step beyond a
body access (``CountedLoop.iv_range(True)``), and every hull over it
-- hoisting, verdicts, lint -- is one step wider.  That extension
is still exact: whenever the loop is entered the header runs for
every one of those IV values, including the final one.  The
recognizer's latch-increment no-wrap proof covers ``last + step``
too, so the extended endpoint is modeled faithfully.

The same decomposition yields *static safety verdicts*: when the loop
bound is a compile-time constant and the range analysis knows the
witness allocation of ``root``, the whole accessed extent is static,
and comparing it against the allocation size proves every iteration
safe -- or proves the loop *will* violate (the hull's endpoints are
genuinely accessed), which ``repro lint`` reports as ``proven-oob``.

:class:`CountedLoops` applies these rules once per function for the
static verdicts, the hoist filter and lint alike: it recognizes each
loop at most once and alone decides which accesses a loop covers,
header residency, and the hull-against-root comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from ..ir.instructions import (
    BinOp,
    Cast,
    CondBr,
    GEP,
    ICmp,
    Instruction,
    Phi,
)
from ..ir.module import BasicBlock
from ..ir.types import (
    ArrayType,
    IntType,
    PointerType,
    StructType,
    size_of,
    struct_field_offset,
)
from ..ir.values import ConstantInt, Value
from .dominators import DominatorTree
from .loops import Loop, LoopInfo
from .ranges import _NEGATED, _SWAPPED, FunctionRangeAnalysis, PtrFact

#: Predicates the recognizer accepts for the continue-branch compare,
#: after normalization (IV on the left, "stay in the loop" when true).
_CONTINUE_PREDICATES = ("slt", "sle", "ne")

#: Magnitude cap on recognized IV/bound/offset values.  Keeping every
#: modeled quantity far below 2**63 means the synthesized i64 hull
#: arithmetic in the preheader (sub/sdiv/mul/add chains) can never
#: wrap, so the Python-side exact integers and the VM's fixed-width
#: results agree.  No realistic loop comes anywhere near the cap.
_MAG_LIMIT = 1 << 59


@dataclass
class CountedLoop:
    """A loop with a recognized IV and an exact, exit-free trip count."""

    loop: Loop
    preheader: BasicBlock
    latch: BasicBlock
    iv: Phi
    init: int                 # constant initial IV value
    step: int                 # positive constant increment per iteration
    predicate: str            # normalized continue predicate: slt/sle/ne
    bound: Value              # loop-invariant compare bound
    #: Conservative upper bound on the last in-loop IV value, derived
    #: from the bound's range fact at the preheader.  The recognizer
    #: proves ``last_hi + step`` fits the IV's type, so neither the
    #: latch increment nor the final header-entry IV ever wraps.
    last_hi: int = 0
    #: Last IV value when the bound is itself a constant, else None
    #: (the filter then synthesizes the computation at run time).
    static_last: Optional[int] = None

    def static_trip_count(self) -> Optional[int]:
        if self.static_last is None:
            return None
        return (self.static_last - self.init) // self.step + 1

    def iv_range(self, header_resident: bool = False) -> Tuple[int, int]:
        """Inclusive range of IV values an access executes over: body
        blocks see ``init..last``; the header also runs on the final
        exit-test entry with ``iv == last + step``."""
        hi = self.last_hi + (self.step if header_resident else 0)
        return (self.init, hi)


def _peel_condition(cond: Value, taken: bool) -> Tuple[Value, bool]:
    """Strip ``icmp ne/eq (zext i1 (icmp ...)), 0`` wrappers (the
    frontend's truthiness pattern), tracking branch polarity."""
    while isinstance(cond, ICmp) and cond.predicate in ("ne", "eq"):
        rhs = cond.rhs
        inner = cond.lhs
        if not (isinstance(rhs, ConstantInt) and rhs.value == 0):
            break
        if isinstance(inner, Cast) and inner.opcode == "zext":
            inner = inner.value
        if isinstance(inner, ICmp) and inner.type.bits == 1 \
                and inner is not cond:
            if cond.predicate == "eq":
                taken = not taken
            cond = inner
            continue
        break
    return cond, taken


def available_outside(value: Value, point: Instruction,
                      domtree: DominatorTree) -> bool:
    """True when ``value`` is defined at ``point`` (the preheader
    terminator): non-instructions are available everywhere, and an
    instruction qualifies iff its definition dominates the point --
    loop invariance alone is *not* enough (a value defined on only one
    path before the loop is invariant but unavailable)."""
    if not isinstance(value, Instruction):
        return True
    return domtree.dominates(value, point)


def _loop_shape(loop: Loop) -> Optional[Tuple[BasicBlock, ICmp, bool]]:
    """The loop's single latch and its exit compare, with the compare
    outcome that stays in the loop, when the header's conditional
    branch is the loop's only exit; else None."""
    if len(loop.latches) != 1:
        return None
    term = loop.header.terminator
    if not isinstance(term, CondBr):
        return None
    in_true = term.true_block in loop.blocks
    if in_true == (term.false_block in loop.blocks):
        return None  # both arms inside (no exit) or both outside
    # Every other block stays strictly inside the loop: the header's
    # compare is the only exit, so the trip count is exact.
    for block in loop.block_order:
        if block is not loop.header and any(
                succ not in loop.blocks for succ in block.successors):
            return None
    cond, taken = _peel_condition(term.condition, in_true)
    if not isinstance(cond, ICmp):
        return None
    return loop.latches[0], cond, taken


def _stepped_phis(loop: Loop, latch: BasicBlock,
                  cond: ICmp) -> Iterator[Tuple[Phi, int]]:
    """Header phis that ``cond`` compares and the latch advances by a
    positive constant (``add phi, step`` inside the loop), in header
    order, each with its step."""
    for phi in loop.header.phis():
        if len(phi.incoming_blocks) != 2:
            continue
        if phi is not cond.lhs and phi is not cond.rhs:
            continue
        try:
            next_v = phi.incoming_value_for(latch)
        except KeyError:
            continue
        if not (isinstance(next_v, BinOp) and next_v.opcode == "add"
                and next_v.parent in loop.blocks):
            continue
        if next_v.lhs is phi and isinstance(next_v.rhs, ConstantInt):
            step = next_v.rhs.signed_value
        elif next_v.rhs is phi and isinstance(next_v.lhs, ConstantInt):
            step = next_v.lhs.signed_value
        else:
            continue
        if step > 0:
            yield phi, step


def _continue_predicate(cond: ICmp, taken: bool, iv: Phi,
                        step: int) -> Optional[Tuple[str, Value]]:
    """Normalize the exit compare to ``iv <predicate> bound``, true
    while the loop continues.  None unless the predicate is ``slt`` or
    ``sle``, or ``ne`` with step 1 (a larger step could jump over the
    bound: an unbounded loop)."""
    predicate, bound = cond.predicate, cond.rhs
    if cond.rhs is iv:
        predicate, bound = _SWAPPED[predicate], cond.lhs
    if not taken:
        predicate = _NEGATED[predicate]
    if predicate not in _CONTINUE_PREDICATES:
        return None
    if predicate == "ne" and step != 1:
        return None
    return predicate, bound


def _int_bounds(value: Value, point: Optional[Instruction],
                analysis: FunctionRangeAnalysis) -> Optional[Tuple[int, int]]:
    """``value``'s ``(lo, hi)`` just before ``point``: exact for a
    constant, else the range fact (None without one or without a
    point)."""
    if isinstance(value, ConstantInt):
        return value.signed_value, value.signed_value
    if point is None:
        return None
    fact = analysis.int_range_before(point, value)
    return None if fact is None else (fact.lo, fact.hi)


def _loop_terminates(loop: Loop, analysis: FunctionRangeAnalysis) -> bool:
    """Prove ``loop`` always terminates: its only exit is the header's
    conditional branch on an IV that advances by a positive constant
    step toward a loop-invariant bound, and every subloop terminates
    too.  Unlike the full counted-loop recognition this needs no
    minimum-trip proof -- a zero-trip subloop still lets the enclosing
    loop finish its iteration -- and it tries every stepped phi, not
    only one with a constant init.  It *does* need wrap evidence,
    because the VM's arithmetic is fixed-width:

    * ``slt``/``sle``: the increment must not be able to jump the IV
      over the bound and wrap past the type maximum (``while (i <=
      INT_MAX)`` never exits -- the IV wraps and stays ``<= bound``),
      so ``bound_hi + step`` (``sle``; minus one for ``slt``) must fit
      the compare type;
    * ``ne`` (step 1): the IV must provably start at or below the
      bound -- a runtime ``init > bound`` spins for ~2**bits
      iterations before the wrapped IV comes back around, which is a
      hang for every practical purpose.  Both proofs come from the
      range facts at the loop's preheader; without a preheader only
      compile-time constants qualify."""
    shape = _loop_shape(loop)
    if shape is None or not all(_loop_terminates(sub, analysis)
                                for sub in loop.subloops):
        return False
    latch, cond, taken = shape
    preheader = loop.preheader()
    query = preheader.terminator if preheader is not None else None
    for phi, step in _stepped_phis(loop, latch, cond):
        normalized = _continue_predicate(cond, taken, phi, step)
        if normalized is None:
            continue
        predicate, bound = normalized
        if isinstance(bound, Instruction) and isinstance(
                bound.parent, BasicBlock) and bound.parent in loop.blocks:
            continue  # bound varies inside the loop
        bounds = _int_bounds(bound, query, analysis)
        if bounds is None or not isinstance(phi.type, IntType):
            continue  # no bound facts to prove wrap facts from
        bound_lo, bound_hi = bounds
        if predicate == "ne":
            # Step 1 hits the bound exactly -- provided it starts at
            # or below it on every execution.
            if preheader is None:
                continue
            try:
                init_v = phi.incoming_value_for(preheader)
            except KeyError:
                continue
            init = _int_bounds(init_v, query, analysis)
            if init is None or init[1] > bound_lo:
                continue
        else:
            # The overshoot after the final in-bound IV must not wrap:
            # max in-loop IV is bound-1 (slt) / bound (sle), plus step.
            overshoot = bound_hi + step - (1 if predicate == "slt" else 0)
            if overshoot > phi.type.max_signed:
                continue
        return True
    return False


def analyze_counted_loop(
    loop: Loop,
    domtree: DominatorTree,
    analysis: FunctionRangeAnalysis,
) -> Optional[CountedLoop]:
    """Recognize ``loop`` as a counted loop, or return None.

    A nested loop is acceptable only when it provably terminates: an
    unbounded subloop could keep the outer loop from ever reaching the
    iterations a hoisted check already covered.
    """
    preheader = loop.preheader()
    shape = _loop_shape(loop)
    if preheader is None or shape is None:
        return None
    latch, cond, taken = shape
    for block in loop.block_order:
        if any(inst.may_abort() for inst in block.instructions):
            return None
    if not all(_loop_terminates(sub, analysis) for sub in loop.subloops):
        return None

    # The IV is the first stepped header phi with a constant init.
    for iv, step in _stepped_phis(loop, latch, cond):
        try:
            init_v = iv.incoming_value_for(preheader)
        except KeyError:
            continue
        if isinstance(init_v, ConstantInt):
            init = init_v.signed_value
            break
    else:
        return None
    normalized = _continue_predicate(cond, taken, iv, step)
    if normalized is None:
        return None
    predicate, bound = normalized
    if not available_outside(bound, preheader.terminator, domtree):
        return None

    # Prove the loop runs at least once: ``init < bound`` (``<=`` for
    # sle) must hold on every execution reaching the preheader.  The
    # range fact at the preheader terminator incorporates any guard
    # branches (``if (n > 0)``) on the way in.  ``bound - exclusive``
    # is the largest IV value that continues the loop.
    bounds = _int_bounds(bound, preheader.terminator, analysis)
    if bounds is None:
        return None
    bound_lo, bound_hi = bounds
    exclusive = 0 if predicate == "sle" else 1
    if init > bound_lo - exclusive:
        return None

    # Wrap soundness.  The VM's arithmetic is fixed-width, so the
    # model (exact integers) is only faithful when nothing wraps:
    # ``last_hi + step`` -- the largest value the latch increment can
    # produce, and the IV of the final header entry -- must fit the
    # IV's type.  The magnitude cap additionally keeps the preheader's
    # synthesized i64 hull arithmetic exact.
    if not isinstance(iv.type, IntType):
        return None
    if max(abs(init), abs(bound_lo), abs(bound_hi)) > _MAG_LIMIT:
        return None
    last_hi = init + ((bound_hi - exclusive - init) // step) * step
    if last_hi + step > iv.type.max_signed:
        return None
    # A constant bound makes ``last_hi`` the exact last IV value.
    static_last = last_hi if isinstance(bound, ConstantInt) else None
    return CountedLoop(loop=loop, preheader=preheader, latch=latch, iv=iv,
                       init=init, step=step, predicate=predicate,
                       bound=bound, last_hi=last_hi, static_last=static_last)


# ----------------------------------------------------------------------
# Affine pointer decomposition
# ----------------------------------------------------------------------

_MAX_DEPTH = 24


def _model_extremes(model: Tuple[int, int],
                    iv_range: Tuple[int, int]) -> Tuple[int, int]:
    """Min/max of ``a*iv + b`` over the inclusive IV range (linear, so
    attained at the endpoints)."""
    a, b = model
    lo, hi = a * iv_range[0] + b, a * iv_range[1] + b
    return (lo, hi) if lo <= hi else (hi, lo)


def _fits_type(model: Tuple[int, int], bits: int,
               iv_range: Tuple[int, int]) -> bool:
    """Does ``a*iv + b`` stay inside the signed ``bits``-wide range for
    every IV value the expression is evaluated at?  When it does, the
    VM's wrapping result equals the exact-integer model."""
    lo, hi = _model_extremes(model, iv_range)
    return lo >= -(1 << (bits - 1)) and hi <= (1 << (bits - 1)) - 1


def _affine_int(value: Value, iv: Optional[Phi],
                iv_range: Tuple[int, int],
                depth: int = 0) -> Optional[Tuple[int, int]]:
    """``value == a*iv + b`` exactly for every IV value in the
    inclusive ``iv_range``.  The VM's arithmetic wraps at each node's
    type width, so exactness requires a per-node proof that the
    modeled value fits that type over the whole range: an i32
    ``i * 0x40000000`` that wraps would make the executed address
    diverge from the model in either direction, and a negative value
    flowing through ``zext`` is not value-preserving.  Any node
    without such a proof rejects the whole expression."""
    if depth > _MAX_DEPTH:
        return None
    if iv is not None and value is iv:
        # The recognizer proved every IV value in iv_range fits the
        # IV's own type (last_hi + step no-wrap check).
        return (1, 0)
    if isinstance(value, ConstantInt):
        return (0, value.signed_value)
    if isinstance(value, Cast):
        operand = _affine_int(value.value, iv, iv_range, depth + 1)
        if operand is None:
            return None
        if value.opcode == "sext":
            return operand  # value-preserving on signed values
        if value.opcode == "zext":
            # Only value-preserving when the operand is non-negative
            # on every iteration.
            if _model_extremes(operand, iv_range)[0] < 0:
                return None
            return operand
        return None  # trunc folds wrapped values back into range
    if isinstance(value, BinOp):
        ty = value.type
        if not isinstance(ty, IntType):
            return None
        result: Optional[Tuple[int, int]] = None
        if value.opcode in ("add", "sub"):
            lhs = _affine_int(value.lhs, iv, iv_range, depth + 1)
            rhs = _affine_int(value.rhs, iv, iv_range, depth + 1)
            if lhs is None or rhs is None:
                return None
            if value.opcode == "add":
                result = (lhs[0] + rhs[0], lhs[1] + rhs[1])
            else:
                result = (lhs[0] - rhs[0], lhs[1] - rhs[1])
        elif value.opcode == "mul":
            lhs = _affine_int(value.lhs, iv, iv_range, depth + 1)
            rhs = _affine_int(value.rhs, iv, iv_range, depth + 1)
            if lhs is None or rhs is None:
                return None
            if lhs[0] == 0:
                result = (lhs[1] * rhs[0], lhs[1] * rhs[1])
            elif rhs[0] == 0:
                result = (lhs[0] * rhs[1], lhs[1] * rhs[1])
            else:
                return None
        elif value.opcode == "shl":
            lhs = _affine_int(value.lhs, iv, iv_range, depth + 1)
            if lhs is None or not isinstance(value.rhs, ConstantInt):
                return None
            shift = value.rhs.signed_value
            # The VM shifts by ``rhs % bits``: a shift >= the width
            # would not mean what the model says.
            if not 0 <= shift < ty.bits:
                return None
            result = (lhs[0] << shift, lhs[1] << shift)
        if result is None:
            return None
        # The operands are exact by induction, so the mathematical
        # result equals the model; fitting the node's type makes the
        # wrapped result equal it too.
        if not _fits_type(result, ty.bits, iv_range):
            return None
        return result
    return None


@dataclass
class AffinePointer:
    """``address == root + slope*iv + intercept`` (bytes)."""

    root: Value
    slope: int
    intercept: int


def affine_pointer(
    pointer: Value,
    iv: Optional[Phi],
    point: Instruction,
    domtree: DominatorTree,
    iv_range: Optional[Tuple[int, int]] = None,
) -> Optional[AffinePointer]:
    """Decompose a checked pointer into an affine byte offset from a
    root that is available at ``point`` (the preheader terminator for
    hoisting; the first run member for block coalescing).  With
    ``iv=None`` only constant offsets qualify (slope 0).

    ``iv_range`` is the inclusive range of IV values the pointer is
    evaluated at (``CountedLoop.iv_range`` -- mind header residency);
    it drives the per-node no-wrap proofs, so it is mandatory whenever
    ``iv`` is given."""
    if iv is not None and iv_range is None:
        raise ValueError("iv_range is required when decomposing "
                         "against an induction variable")
    if iv_range is None:
        iv_range = (0, 0)
    slope = 0
    intercept = 0
    value = pointer
    for _ in range(_MAX_DEPTH):
        if isinstance(value, Cast) and value.opcode == "bitcast":
            value = value.value
            continue
        if isinstance(value, GEP):
            pointer_ty = value.pointer.type
            assert isinstance(pointer_ty, PointerType)
            current = pointer_ty.pointee
            for position, index in enumerate(value.indices):
                if position == 0:
                    scale = size_of(current)
                elif isinstance(current, ArrayType):
                    current = current.element
                    scale = size_of(current)
                elif isinstance(current, StructType):
                    if not isinstance(index, ConstantInt):
                        return None
                    intercept += struct_field_offset(current, index.value)
                    current = current.fields[index.value]
                    continue
                else:
                    return None
                affine = _affine_int(index, iv, iv_range)
                if affine is None:
                    return None
                slope += scale * affine[0]
                intercept += scale * affine[1]
            value = value.pointer
            continue
        break
    else:
        return None
    root = value
    if isinstance(root, (GEP, Cast)):
        return None  # depth exhausted mid-chain
    if not available_outside(root, point, domtree):
        return None
    # Keep the whole modeled byte-offset hull far below 2**63: the VM
    # adds GEP offsets to the address modulo 2**64, and the preheader's
    # synthesized extent arithmetic runs in i64 -- both exact only
    # while nothing approaches the wrap boundary.
    lo_off, hi_off = _model_extremes((slope, intercept), iv_range)
    if (abs(intercept) > _MAG_LIMIT or abs(lo_off) > _MAG_LIMIT
            or abs(hi_off) > _MAG_LIMIT):
        return None
    return AffinePointer(root=root, slope=slope, intercept=intercept)


def extent_bytes(
    affine: AffinePointer, counted: CountedLoop, width: int,
    header_resident: bool = False,
) -> Optional[Tuple[int, int]]:
    """Static accessed extent ``[lo, hi)`` relative to the root, when
    the trip count is static (``last_hi`` is then the exact last IV).
    Used by the loop verdicts and by the hoist filter's static-trip
    groups.  Header-resident accesses also run on the final exit-test
    entry (``iv == last + step``), so their hull is one step wider."""
    if counted.static_last is None:
        return None
    lo, hi = _model_extremes((affine.slope, affine.intercept),
                             counted.iv_range(header_resident))
    return (lo, hi + width)


def hull_in_bounds(lo: int, hi: int, root: PtrFact) -> Optional[bool]:
    """Compare the static byte hull ``[lo, hi)``, relative to a root
    whose fact has a known size, against that allocation: True when
    the whole hull is inside on every execution, False when some part
    is outside on every execution, None when the facts cannot tell.
    Both endpoints are accesses the loop genuinely performs, so False
    means some iteration definitely goes out of bounds."""
    off = root.offset
    if off.lo + lo >= 0 and off.hi + hi <= root.size:
        return True
    if off.lo + hi > root.size or off.hi + lo < 0:
        return False
    return None


class LoopHull(NamedTuple):
    """The bytes ``[lo, hi)`` relative to its root that an access
    covers over all ``trips`` iterations of a counted loop with a
    static trip count, and the root's fact (size known) at the
    preheader."""

    lo: int
    hi: int
    root: PtrFact
    trips: int


class CountedLoops:
    """The counted loops of one function, each recognized at most once.

    Built once per function from its range analysis, it owns the
    function's one :class:`DominatorTree` and the one :class:`LoopInfo`
    over it, each built on first use (a function without checks needs
    neither).  Recognition is on demand too: only a loop that is some
    queried block's innermost loop is analysed.  This is the one place
    that decides which accesses a counted loop covers:

    * an access runs once per iteration iff the loop is its block's
      innermost one (a subloop member runs the subloop's trip count,
      possibly zero, times per iteration) and its block dominates the
      latch (no iteration skips it);
    * a header-resident access also runs on the final exit test, with
      ``iv == last + step``, so it is decomposed over
      ``counted.iv_range(True)`` and its hull is one step wider.
    """

    def __init__(self, analysis: FunctionRangeAnalysis):
        self.analysis = analysis
        self._counted: Dict[Loop, Optional[CountedLoop]] = {}
        self._access: Dict[Tuple[BasicBlock, Value], Optional[
            Tuple[CountedLoop, bool, AffinePointer]]] = {}

    @cached_property
    def domtree(self) -> DominatorTree:
        return DominatorTree(self.analysis.fn)

    @cached_property
    def loopinfo(self) -> LoopInfo:
        return LoopInfo(self.analysis.fn, self.domtree)

    def access(
        self, block: BasicBlock, pointer: Value,
    ) -> Optional[Tuple[CountedLoop, bool, AffinePointer]]:
        """The counted loop that runs ``block`` once per iteration,
        whether ``block`` is its header, and ``pointer``'s affine
        decomposition over the IV values the block runs at; None when
        any of the three does not exist.  Each answer is computed once:
        the IR a decomposition reads is not changed while the loop
        model is in use (the hoist filter asks about every check before
        it inserts code)."""
        key = (block, pointer)
        if key not in self._access:
            self._access[key] = self._decompose(block, pointer)
        return self._access[key]

    def _decompose(
        self, block: BasicBlock, pointer: Value,
    ) -> Optional[Tuple[CountedLoop, bool, AffinePointer]]:
        loop = self.loopinfo.loop_of(block)
        if loop is None:
            return None
        if loop not in self._counted:
            self._counted[loop] = analyze_counted_loop(
                loop, self.domtree, self.analysis)
        counted = self._counted[loop]
        if counted is None or not self.domtree.dominates_block(
                block, counted.latch):
            return None
        header_resident = block is loop.header
        affine = affine_pointer(pointer, counted.iv,
                                counted.preheader.terminator, self.domtree,
                                counted.iv_range(header_resident))
        if affine is None:
            return None
        return counted, header_resident, affine

    def hull(self, block: BasicBlock, pointer: Value,
             width: int) -> Optional[LoopHull]:
        """The static hull of a ``width``-byte access through
        ``pointer`` in ``block``; None unless the access runs once per
        iteration of a counted loop with a static trip count and the
        root's allocation size is known at the preheader."""
        found = self.access(block, pointer)
        if found is None:
            return None
        counted, header_resident, affine = found
        extent = extent_bytes(affine, counted, width, header_resident)
        if extent is None:
            return None
        root = self.analysis.pointer_fact_before(
            counted.preheader.terminator, affine.root)
        if root is None or root.size is None:
            return None
        return LoopHull(extent[0], extent[1], root,
                        counted.static_trip_count())
