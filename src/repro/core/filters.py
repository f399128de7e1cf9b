"""ITarget filters: approach-independent check optimizations.

The paper's Section 5.3 optimization: when two accesses go to the same
memory location and one dominates the other, the dominated check is
redundant -- if the first access was in bounds, so is the second.  The
filter drops the dominated :class:`~repro.core.itarget.ITarget` before
the mechanism ever emits code for it (8%--50% of static checks in the
paper's benchmarks, with only minor runtime impact because the compiler
can also remove the residual duplicates on its own).

On top of that, ``range_filter`` (``-mi-opt-ranges``) goes beyond
duplicate elimination: using the interprocedural value-range and
pointer-provenance analysis it drops dereference checks whose access is
*provably inside the witness allocation* on every execution -- no
dominating twin required.  The soundness argument lives with the filter
below (and in DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.dominators import DominatorTree
from ..analysis.induction import (
    AffinePointer,
    CountedLoop,
    CountedLoops,
    affine_pointer,
    extent_bytes,
    hull_in_bounds,
)
from ..analysis.loops import Loop
from ..analysis.ranges import FunctionRangeAnalysis
from ..ir.instructions import Instruction
from ..ir.module import BasicBlock, Function
from ..ir.types import I8, I64, PointerType
from ..ir.values import Value
from .itarget import ITarget, TargetKind


def dominance_filter(
    fn: Function, targets: List[ITarget],
    loops: Optional[CountedLoops] = None,
) -> Tuple[List[ITarget], int]:
    """Drop dominated duplicate dereference checks.

    Two checks are duplicates when they check the *same pointer SSA
    value* and the surviving (dominating) check covers at least the
    width of the dropped one.  The dominator tree is the loop model's
    when the range analysis runs, else one built here; either is built
    only when there are two checks to compare.  Returns the filtered
    target list and the number of checks removed.
    """
    checks = [t for t in targets if t.kind == TargetKind.CHECK_DEREF]
    if len(checks) < 2:
        return targets, 0
    domtree = loops.domtree if loops is not None else DominatorTree(fn)
    by_pointer: Dict[int, List[ITarget]] = {}
    for target in checks:
        by_pointer.setdefault(id(target.pointer), []).append(target)

    removed = set()
    for group in by_pointer.values():
        if len(group) < 2:
            continue
        for candidate in group:
            if id(candidate) in removed:
                continue
            for other in group:
                if other is candidate or id(other) in removed:
                    continue
                if other.width < candidate.width:
                    continue
                if domtree.dominates(other.instruction, candidate.instruction):
                    removed.add(id(candidate))
                    break

    filtered = [t for t in targets if id(t) not in removed]
    return filtered, len(removed)


def range_filter(
    targets: List[ITarget], analysis: FunctionRangeAnalysis,
) -> Tuple[List[ITarget], int]:
    """Drop dereference checks the range analysis proves in bounds.

    A ``CHECK_DEREF`` of ``width`` bytes is removed iff the analysis
    derives a provenance fact ``(site, size, offset)`` for the pointer
    at the check's program point with ``offset.lo >= 0`` and
    ``offset.hi + width <= size``.  Why this is sound for both
    instrumentations:

    * the fact is a *may* interval covering every concrete execution
      (transfer functions are wrap-sound, merges join, loops widen),
      so the proof holds on all paths;
    * proofs are against the *requested* allocation size.  Low-Fat
      rounds sizes up to its region class, SoftBound records the exact
      size -- in both cases the runtime bound is at least the
      requested size, so a requested-size proof implies the dynamic
      check would pass;
    * temporal errors cannot hide behind a dropped check: both
      mechanisms' dereference checks are purely spatial (a freed but
      in-bounds pointer passes them anyway), so removing a provably
      in-bounds check never masks a verdict the dynamic check would
      have produced;
    * the VM's ``malloc`` aborts rather than returning NULL, so an
      allocation-site fact implies a valid base pointer.

    Invariant targets (escapes into memory/calls/returns) are never
    dropped -- metadata propagation must stay complete.  Returns the
    filtered list and the number of checks removed.
    """
    if not any(t.kind == TargetKind.CHECK_DEREF for t in targets):
        return targets, 0
    removed = set()
    for target in targets:
        if target.kind != TargetKind.CHECK_DEREF or target.pointer is None:
            continue
        fact = analysis.pointer_fact_before(target.instruction,
                                            target.pointer)
        if fact is not None and fact.proves_in_bounds(target.width):
            removed.add(id(target))
    if not removed:
        return targets, 0
    filtered = [t for t in targets if id(t) not in removed]
    return filtered, len(removed)


# ----------------------------------------------------------------------
# Loop-aware hoisting and block coalescing (``-mi-opt-hoist``)
# ----------------------------------------------------------------------


def _synthesize_check(
    fn: Function,
    anchor: Instruction,
    root: Value,
    lo,                      # int or i64 Value: start byte offset
    extent,                  # int or i64 Value: covered bytes
    width: int,
    site: str,
) -> ITarget:
    """Materialize the widened check's operands right before ``anchor``
    and return the replacement ITarget.

    The pointer is built as ``gep i8* (bitcast root), lo`` rather than
    through ``ptrtoint`` arithmetic: the lowering framework resolves a
    check's witness through GEP/bitcast chains, so the synthesized check
    inherits the *root's* witness (exactly the allocation the original
    per-iteration checks were checked against).  Every instruction is
    tagged ``meta["mi"]`` so re-gathering skips it and the profiler
    attributes its cycles to instrumentation.
    """
    from .mechanism import MarkingBuilder

    builder = MarkingBuilder(fn)
    builder.position_before(anchor)
    base = builder.bitcast(root, PointerType(I8))
    index = builder.const_i64(lo) if isinstance(lo, int) else lo
    pointer = builder.gep(base, [index])
    width_value = None if isinstance(extent, int) else extent
    return ITarget(
        kind=TargetKind.CHECK_DEREF,
        instruction=anchor,
        pointer=pointer,
        width=extent if isinstance(extent, int) else width,
        site=site,
        width_value=width_value,
    )


#: One counted loop's hoistable checks: (root id, slope,
#: header-resident) -> (root, [(check, its decomposition)]).
_Groups = Dict[Tuple[int, int, bool],
               Tuple[Value, List[Tuple[ITarget, AffinePointer]]]]


def _hoist_loop_groups(
    fn: Function,
    counted: CountedLoop,
    members: _Groups,
    site_counter: List[int],
) -> Tuple[List[ITarget], set]:
    """Synthesize one widened preheader check per (root, slope,
    header-resident) group and report the replaced member targets.
    Header-resident members also execute on the final exit-test entry
    (``iv == last + step``), so their group's hull extends one step
    further than a body group's."""
    from .mechanism import MarkingBuilder

    preheader = counted.preheader
    anchor = preheader.terminator
    builder = MarkingBuilder(fn)
    synthesized: List[ITarget] = []
    removed: set = set()
    last_value = None  # lazily computed runtime last-IV (i64)

    def runtime_last() -> Value:
        # last = init + floor((bound' - init) / step) * step, where
        # bound' is bound-1 for slt/ne and bound for sle.  The >=1
        # iteration proof makes the numerator non-negative, so sdiv
        # is the floor division the formula needs.
        nonlocal last_value
        if last_value is not None:
            return last_value
        builder.position_before(anchor)
        bound = counted.bound
        b64 = bound if bound.type == I64 else builder.sext(bound, I64)
        upper = b64 if counted.predicate == "sle" else \
            builder.sub(b64, builder.const_i64(1))
        if counted.step == 1:
            last_value = upper
        else:
            span = builder.sub(upper, builder.const_i64(counted.init))
            trips = builder.binop("sdiv", span,
                                  builder.const_i64(counted.step))
            stepped = builder.mul(trips, builder.const_i64(counted.step))
            last_value = builder.add(stepped, builder.const_i64(counted.init))
        return last_value

    for (_, slope, header_resident), (root, group) in members.items():
        min_b = min(aff.intercept for _, aff in group)
        max_end = max(aff.intercept + t.width for t, aff in group)
        max_width = max(t.width for t, _ in group)
        site_counter[0] += 1
        site = f"{fn.name}:{preheader.name}:hoist{site_counter[0]}"
        if slope == 0:
            lo, extent = min_b, max_end - min_b
        elif counted.static_last is not None:
            # The group's hull is that of one access at its lowest
            # intercept, as wide as the bytes one iteration covers.
            lo, hi = extent_bytes(AffinePointer(root, slope, min_b), counted,
                                  max_end - min_b, header_resident)
            extent = hi - lo
        else:
            builder.position_before(anchor)
            last_v = runtime_last()
            if header_resident:
                last_v = builder.add(last_v, builder.const_i64(counted.step))
            scaled = builder.mul(last_v, builder.const_i64(slope))
            if slope > 0:
                lo = slope * counted.init + min_b
                hi = builder.add(scaled, builder.const_i64(max_end))
                extent = builder.sub(hi, builder.const_i64(lo))
            else:
                lo = builder.add(scaled, builder.const_i64(min_b))
                hi = slope * counted.init + max_end
                extent = builder.sub(builder.const_i64(hi), lo)
        synthesized.append(_synthesize_check(
            fn, anchor, root, lo, extent, max_width, site))
        removed.update(id(t) for t, _ in group)
    return synthesized, removed


def hoist_filter(
    fn: Function, targets: List[ITarget], loops: CountedLoops,
) -> Tuple[List[ITarget], int, int, int]:
    """Hoist per-iteration loop checks into one widened preheader
    check, then coalesce same-root constant-offset check runs within
    blocks.  Returns ``(targets, hoisted, coalesced, synthesized)``.

    Legality and exactness (the full argument lives in
    :mod:`repro.analysis.induction` and DESIGN.md section 3h):

    * only *counted* loops qualify (exact trip count, header-only
      exit, no may-abort calls, proven to run at least once, no
      IV/index wrap), and only checks ``loops.access`` finds running
      once per iteration; header-resident checks additionally run on
      the final exit-test entry with ``iv == last + step``, so their
      hull is widened by one step;
    * the widened check's extent is computed from the *dynamic* trip
      count -- synthesized i64 arithmetic on the loop bound -- so the
      checked interval is exactly the hull of the accessed bytes;
    * allocations are contiguous, so the hull is in bounds iff the
      extreme accesses are, iff every replaced check would have
      passed: abort-free executions are bit-identical, and a widened
      check that aborts corresponds to some original check aborting
      (possibly later, mid-loop -- the one observable difference,
      which only violating programs can see);
    * a coalesced block run's members sit between no may-abort calls,
      so whenever the run's first member executes, all members do.
    """
    checks = [
        t for t in targets
        if t.kind == TargetKind.CHECK_DEREF and t.pointer is not None
    ]
    if not checks:
        return targets, 0, 0, 0
    domtree = loops.domtree

    site_counter = [0]
    removed: set = set()
    synthesized: List[ITarget] = []
    hoisted = 0

    # -- stage 1: loop hoisting ---------------------------------------
    # Group each loop's checks by (root, slope, header residency):
    # header checks also run on the final exit-test entry, so their
    # group's hull covers one extra step.
    by_loop: Dict[Loop, Tuple[CountedLoop, _Groups]] = {}
    for target in checks:
        found = loops.access(target.instruction.parent, target.pointer)
        if found is None:
            continue
        counted, header_resident, aff = found
        groups = by_loop.setdefault(counted.loop, (counted, {}))[1]
        key = (id(aff.root), aff.slope, header_resident)
        groups.setdefault(key, (aff.root, []))[1].append((target, aff))
    # Loops in header RPO order, so site names follow the CFG.
    for loop in sorted(by_loop, key=lambda l: domtree._rpo_index[l.header]):
        counted, groups = by_loop[loop]
        new_checks, replaced = _hoist_loop_groups(
            fn, counted, groups, site_counter)
        synthesized.extend(new_checks)
        removed.update(replaced)
        hoisted += len(replaced)

    # -- stage 2: block-level run coalescing --------------------------
    coalesced = 0
    remaining = [t for t in checks if id(t) not in removed]
    by_block: Dict[BasicBlock, List[ITarget]] = {}
    for target in remaining:
        by_block.setdefault(target.instruction.parent, []).append(target)
    for block, block_checks in by_block.items():
        positions = {id(t): block.index_of(t.instruction)
                     for t in block_checks}
        block_checks.sort(key=lambda t: positions[id(t)])
        barriers = [i for i, inst in enumerate(block.instructions)
                    if inst.may_abort()]
        run: List[Tuple[ITarget, AffinePointer]] = []
        run_root_id: Optional[int] = None

        def flush() -> None:
            nonlocal coalesced, run, run_root_id
            if len(run) >= 2:
                first_t, first_aff = run[0]
                lo = min(aff.intercept for _, aff in run)
                hi = max(aff.intercept + t.width for t, aff in run)
                site_counter[0] += 1
                site = (f"{fn.name}:{block.name}:"
                        f"coalesce{site_counter[0]}")
                synthesized.append(_synthesize_check(
                    fn, first_t.instruction, first_aff.root, lo, hi - lo,
                    hi - lo, site))
                removed.update(id(t) for t, _ in run)
                coalesced += len(run)
            run = []
            run_root_id = None

        prev_pos: Optional[int] = None
        for target in block_checks:
            pos = positions[id(target)]
            aff = affine_pointer(target.pointer, None,
                                 target.instruction, domtree)
            crossed_barrier = prev_pos is not None and any(
                prev_pos < b < pos for b in barriers)
            if aff is None or crossed_barrier or (
                    run and id(aff.root) != run_root_id):
                flush()
            if aff is not None:
                run.append((target, aff))
                run_root_id = id(aff.root)
            prev_pos = pos
        flush()

    if not removed:
        return targets, 0, 0, 0
    result = [t for t in targets if id(t) not in removed]
    result.extend(synthesized)
    return result, hoisted, coalesced, len(synthesized)


# ----------------------------------------------------------------------
# Static safety verdicts
# ----------------------------------------------------------------------

PROVEN_SAFE = "proven-safe"
PROVEN_VIOLATING = "proven-violating"
UNKNOWN = "unknown"
_VERDICTS = {True: PROVEN_SAFE, False: PROVEN_VIOLATING, None: UNKNOWN}


def check_verdicts(
    targets: List[ITarget], loops: CountedLoops,
) -> Dict[str, str]:
    """Per-check-site static safety verdicts over the gathered checks.

    Two proof sources, both sound over every execution that reaches
    the check:

    * the per-point range/provenance fact of the checked pointer
      (exactly the range filter's criterion, plus its dual for
      proven violations);
    * the loop-extent argument (``loops.hull``): for a counted loop
      with a static trip count, the accessed byte hull of an affine
      check is static, and comparing it against the known witness
      allocation proves every iteration safe -- or proves the hull's
      genuinely-accessed endpoint out of bounds
      (``proven-violating``), which per-point facts cannot (only the
      *last* iterations violate).
    """
    verdicts: Dict[str, str] = {}
    for target in targets:
        if target.kind != TargetKind.CHECK_DEREF or target.pointer is None:
            continue
        fact = loops.analysis.pointer_fact_before(target.instruction,
                                                  target.pointer)
        if fact is not None and fact.proves_in_bounds(target.width):
            proof: Optional[bool] = True
        elif fact is not None and fact.proves_out_of_bounds(target.width):
            proof = False
        else:
            hull = loops.hull(target.instruction.parent, target.pointer,
                              target.width)
            proof = None if hull is None else hull_in_bounds(
                hull.lo, hull.hi, hull.root)
        verdicts[target.site] = _VERDICTS[proof]
    return verdicts
