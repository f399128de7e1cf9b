"""``mi-lint``: static detection of the paper's Section 4 pitfalls.

The paper diagnoses its usability pitfalls by observing runtime false
positives and negatives; this module flags them at compile time, before
any run.  Each detector corresponds to one Section 4 case study:

* ``inttoptr-roundtrip`` (Section 4.4) -- pointers that travel through
  integers.  SoftBound's trie keys metadata by pointer value; a pointer
  reconstructed via ``inttoptr`` carries no provenance, so the trie
  either goes stale (false positives, Figure 7's ``swap``) or must fall
  back to wide bounds (lost protection).
* ``bytewise-pointer-copy`` (Section 4.5) -- copy loops that move
  pointer-typed memory at byte granularity.  Legal C, but invisible to
  the trie: the pointer's metadata is not copied along.  The
  ``memcpy`` form is *not* flagged -- the wrapper moves metadata.
* ``sizeless-extern-array`` (Section 4.3) -- ``extern`` array
  declarations without a size.  Under separate compilation SoftBound
  cannot know the object's extent and must assign wide (unchecked)
  bounds, cf. Table 2's 164gzip.
* ``oob-pointer-arithmetic`` / ``oob-access`` (Section 4.2) -- GEPs
  (accesses) the range analysis proves out of bounds on every
  execution.  Low-Fat's escape invariant rejects even the un-derefed
  intermediate pointer; one-past-the-end is allowed and not flagged.
  ``proven-oob`` is the loop form: a counted loop's access that some
  iteration provably performs out of bounds.
* ``huge-allocation`` (Section 4.6) -- constant allocations too large
  for Low-Fat's largest region class (> 2^30 bytes): the object falls
  back to the standard allocator and is effectively unprotected, cf.
  Table 2's 429mcf.

Linting runs per translation unit on the un-instrumented module (after
mem2reg cleanup), honouring each workload's obfuscated units -- the
same separate-compilation setting the instrumentations face.
"""

from __future__ import annotations

import json as _json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..ir.instructions import (
    Call,
    Cast,
    GEP,
    Instruction,
    Load,
    Store,
)
from ..ir.module import Function, Module
from ..ir.types import (
    ArrayType,
    IntType,
    PointerType,
    StructType,
    Type,
    size_of,
)
from .induction import CountedLoops, hull_in_bounds
from .loops import LoopInfo
from .ranges import (
    FunctionRangeAnalysis,
    ReturnSummaries,
    allocation_size,
    is_allocation_call,
)

#: Largest allocation Low-Fat's region classes can host (2^30 bytes
#: minus the one-byte one-past-the-end pad); anything bigger falls
#: back to the unprotected standard allocator.
LOWFAT_MAX_PROTECTED = (1 << 30) - 1

SEVERITIES = ("error", "warning", "info")


@dataclass
class Diagnostic:
    """One lint finding, tagged with the paper section it reproduces."""

    code: str        # stable machine-readable identifier
    severity: str    # "error" | "warning" | "info"
    section: str     # paper section, e.g. "4.4"
    location: str    # "unit:function:line 12" (best effort)
    message: str
    function: str = ""              # enclosing function, "" at unit scope
    line: Optional[int] = None      # source line, when known
    loop_depth: int = 0             # loop nesting depth at the finding
    #: The offending instruction, for the driver to derive ``line`` and
    #: ``loop_depth`` from; never serialized.
    inst: Optional[Instruction] = field(
        default=None, repr=False, compare=False)

    @property
    def unit(self) -> str:
        return self.location.split(":", 1)[0]

    def format(self) -> str:
        return (f"{self.location}: {self.severity}: {self.message} "
                f"[{self.code}, paper section {self.section}]")

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "section": self.section,
            "location": self.location,
            "message": self.message,
            "function": self.function,
            "line": self.line,
            "loop_depth": self.loop_depth,
        }


def _location(unit: str, fn: Optional[Function],
              inst: Optional[Instruction] = None) -> str:
    parts = [unit]
    if fn is not None:
        parts.append(fn.name)
    if inst is not None:
        line = inst.meta.get("line")
        if line is not None:
            parts.append(f"line {line}")
        elif inst.parent is not None:
            parts.append(inst.parent.name)
    return ":".join(parts)


def _contains_pointer(ty: Type, depth: int = 0) -> bool:
    if isinstance(ty, PointerType):
        return True
    if depth > 8:
        return False
    if isinstance(ty, ArrayType):
        return _contains_pointer(ty.element, depth + 1)
    if isinstance(ty, StructType):
        return any(_contains_pointer(f, depth + 1) for f in ty.fields)
    return False


# ---------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------


def _lint_sizeless_globals(module: Module, unit: str) -> List[Diagnostic]:
    out = []
    for gv in module.globals.values():
        if not gv.declared_without_size:
            continue
        out.append(Diagnostic(
            code="sizeless-extern-array",
            severity="warning",
            section="4.3",
            location=f"{unit}:{gv.name}",
            message=(f"extern array '{gv.name}' is declared without a "
                     "size; SoftBound must assign wide (unchecked) "
                     "upper bounds to every access through it"),
        ))
    return out


def _lint_inttoptr(fn: Function, unit: str) -> List[Diagnostic]:
    casts = [inst for inst in fn.instructions()
             if isinstance(inst, Cast) and inst.opcode == "inttoptr"]
    if not casts:
        return []
    count = len(casts)
    plural = "s" if count > 1 else ""
    return [Diagnostic(
        code="inttoptr-roundtrip",
        severity="warning",
        section="4.4",
        location=_location(unit, fn, casts[0]),
        inst=casts[0],
        message=(f"{count} pointer{plural} materialized from integers "
                 "(inttoptr); SoftBound's metadata trie cannot track "
                 "pointers that travel through integers -- expect stale "
                 "bounds (spurious reports) or wide bounds (lost "
                 "protection)"),
    )]


def _lint_bytewise_copies(fn: Function, unit: str,
                          loops: LoopInfo) -> List[Diagnostic]:
    """Byte-granularity loads/stores, inside a loop, through a pointer
    derived from a cast of pointer-typed storage (Section 4.5)."""
    suspicious: List[Cast] = []
    for inst in fn.instructions():
        if not (isinstance(inst, Cast) and inst.opcode == "bitcast"):
            continue
        src_ty = inst.value.type
        dst_ty = inst.type
        if not (isinstance(src_ty, PointerType)
                and isinstance(dst_ty, PointerType)):
            continue
        if not isinstance(dst_ty.pointee, IntType):
            continue
        if size_of(dst_ty.pointee) >= 8:
            continue  # word-sized copies move whole pointers
        if not _contains_pointer(src_ty.pointee):
            continue
        suspicious.append(inst)
    if not suspicious:
        return []

    out: List[Diagnostic] = []
    for cast in suspicious:
        # Follow derived pointers (geps/casts) to dereferences.
        worklist: List = [cast]
        derived = {id(cast)}
        hit: Optional[Instruction] = None
        while worklist and hit is None:
            value = worklist.pop()
            for user in value.users():
                if isinstance(user, (GEP, Cast)):
                    if id(user) not in derived:
                        derived.add(id(user))
                        worklist.append(user)
                elif isinstance(user, Load) and user.pointer is value:
                    if user.parent and loops.loop_of(user.parent):
                        hit = user
                        break
                elif isinstance(user, Store) and user.pointer is value:
                    if user.parent and loops.loop_of(user.parent):
                        hit = user
                        break
        if hit is None:
            continue
        # One finding per function: the source and destination sides of
        # the same copy loop are a single pitfall.
        return [Diagnostic(
            code="bytewise-pointer-copy",
            severity="warning",
            section="4.5",
            location=_location(unit, fn, hit),
            inst=hit,
            message=("pointer-typed memory is copied at byte "
                     "granularity in a loop; the metadata trie cannot "
                     "follow partial-pointer writes -- use memcpy (the "
                     "wrapper moves metadata with the bytes)"),
        )]
    return []


def _lint_ranges(fn: Function, unit: str,
                 loops: CountedLoops) -> List[Diagnostic]:
    """Definite out-of-bounds pointers and accesses (Section 4.2).

    Only *must*-violations are reported: the abstract offset interval
    has to lie entirely outside the allocation.  Forming a
    one-past-the-end pointer is legal C and stays silent.

    Per-point facts cannot flag the classic ``i <= N`` off-by-one:
    only the final iteration violates, so no single program point is a
    must-violation.  The loop model can (``proven-oob``, the loop
    form): for a counted loop with a static trip count, an affine
    access's byte hull is static, and a hull endpoint outside the
    witness allocation is an access some iteration *definitely*
    performs."""
    analysis = loops.analysis
    out: List[Diagnostic] = []
    for block in fn.blocks:
        for inst in block.instructions:
            if isinstance(inst, GEP):
                fact = analysis.pointer_fact_before(inst, inst.pointer)
                if fact is None:
                    continue
                delta = analysis.client._gep_offset(
                    inst, analysis.state_before(inst) or {})
                if delta is None:
                    continue
                shifted = fact.shifted(delta)
                if shifted is None:
                    continue
                if (shifted.offset.hi < 0
                        or (shifted.size is not None
                            and shifted.offset.lo > shifted.size)):
                    size = (f"{shifted.size}" if shifted.size is not None
                            else "unknown")
                    out.append(Diagnostic(
                        code="oob-pointer-arithmetic",
                        severity="warning",
                        section="4.2",
                        location=_location(unit, fn, inst),
                        inst=inst,
                        message=(
                            "pointer arithmetic provably leaves the "
                            f"allocation (offset {shifted.offset.lo}.."
                            f"{shifted.offset.hi} of {size} "
                            "bytes); Low-Fat's escape invariant rejects "
                            "the out-of-bounds intermediate even if it "
                            "is brought back in bounds before use"),
                    ))
            elif isinstance(inst, (Load, Store)):
                pointer = inst.pointer
                width = size_of(inst.type if isinstance(inst, Load)
                                else inst.value.type)
                fact = analysis.pointer_fact_before(inst, pointer)
                if fact is not None and fact.proves_out_of_bounds(width):
                    out.append(Diagnostic(
                        code="oob-access",
                        severity="error",
                        section="4.2",
                        location=_location(unit, fn, inst),
                        inst=inst,
                        message=(
                            f"{width}-byte access provably out of "
                            f"bounds (offset {fact.offset.lo}.."
                            f"{fact.offset.hi} of {fact.size} bytes); "
                            "every instrumentation check here will "
                            "fire"),
                    ))
                    continue
                hull = loops.hull(block, pointer, width)
                if hull is None or hull_in_bounds(hull.lo, hull.hi,
                                                  hull.root) is not False:
                    continue
                out.append(Diagnostic(
                    code="proven-oob",
                    severity="error",
                    section="4.2",
                    location=_location(unit, fn, inst),
                    inst=inst,
                    message=(
                        f"loop provably accesses bytes {hull.lo}..{hull.hi} "
                        f"of a {hull.root.size}-byte allocation over "
                        f"{hull.trips} iterations; some iteration's "
                        f"{width}-byte access is out of bounds and "
                        "every instrumentation aborts here"),
                ))
    return out


def _lint_huge_allocations(fn: Function, unit: str) -> List[Diagnostic]:
    out = []
    for inst in fn.instructions():
        if not (isinstance(inst, Call) and is_allocation_call(inst)):
            continue
        size = allocation_size(inst)
        if size is None or size <= LOWFAT_MAX_PROTECTED:
            continue
        out.append(Diagnostic(
            code="huge-allocation",
            severity="warning",
            section="4.6",
            location=_location(unit, fn, inst),
            inst=inst,
            message=(f"allocation of {size} bytes exceeds Low-Fat's "
                     "largest region class (max protected size "
                     f"{LOWFAT_MAX_PROTECTED} bytes); the object falls "
                     "back to the standard allocator and is "
                     "effectively unprotected"),
        ))
    return out


# ---------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------

_SEVERITY_ORDER = {name: i for i, name in enumerate(SEVERITIES)}


def _sort_key(d: Diagnostic):
    """Stable report order: source order -- ``(unit, line)`` -- with
    severity and code breaking ties; unit-scope findings first."""
    return (
        d.unit,
        d.line if d.line is not None else -1,
        _SEVERITY_ORDER.get(d.severity, 99),
        d.code,
    )


def lint_module(module: Module, unit: Optional[str] = None) -> List[Diagnostic]:
    """Run every detector over one (un-instrumented) module.

    Findings come back stably sorted by ``(unit, line)`` -- source
    order, the order editors and diff tools want -- with severity and
    code only breaking ties.  Unit-scope findings (no line) sort before
    the unit's line-anchored ones."""
    unit = unit or module.name
    diagnostics = _lint_sizeless_globals(module, unit)
    summaries = ReturnSummaries(module)
    for fn in module.functions.values():
        if fn.native or fn.is_declaration:
            continue
        # One range analysis and one loop model serve every detector.
        loops = CountedLoops(FunctionRangeAnalysis(fn, summaries))
        found = (
            _lint_inttoptr(fn, unit)
            + _lint_bytewise_copies(fn, unit, loops.loopinfo)
            + _lint_ranges(fn, unit, loops)
            + _lint_huge_allocations(fn, unit)
        )
        for diag in found:
            diag.function = fn.name
            if diag.inst is not None:
                diag.line = diag.inst.meta.get("line")
                if diag.inst.parent is not None:
                    diag.loop_depth = loops.loopinfo.loop_depth(
                        diag.inst.parent)
        diagnostics.extend(found)
    diagnostics.sort(key=_sort_key)
    return diagnostics


def lint_sources(
    sources: Union[str, Dict[str, str], Sequence[str]],
    obfuscated_units: Sequence[str] = (),
) -> List[Diagnostic]:
    """Compile each translation unit separately and lint it.

    Linting is deliberately per-unit (pre-link): the Section 4.3 and
    4.4 pitfalls only exist under separate compilation."""
    from ..frontend import compile_source
    from ..opt import Mem2Reg, SimplifyCFG

    if isinstance(sources, str):
        named = {"tu0": sources}
    elif isinstance(sources, dict):
        named = dict(sources)
    else:
        named = {f"tu{i}": src for i, src in enumerate(sources)}

    diagnostics: List[Diagnostic] = []
    for name, source in named.items():
        module = compile_source(
            source, name,
            obfuscate_pointer_copies=name in tuple(obfuscated_units),
        )
        SimplifyCFG().run(module)
        Mem2Reg().run(module)
        diagnostics.extend(lint_module(module, name))
    diagnostics.sort(key=_sort_key)
    return diagnostics


def lint_workload(workload) -> List[Diagnostic]:
    """Lint a registered workload with its own obfuscation setting."""
    return lint_sources(workload.sources, tuple(workload.obfuscated_units))


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    lines = [d.format() for d in diagnostics]
    if not lines:
        return "no findings"
    return "\n".join(lines)


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    return _json.dumps([d.to_dict() for d in diagnostics], indent=2)
