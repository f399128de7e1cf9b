"""The Low-Fat Pointers mechanism: lowering ITargets to low-fat code.

Follows Table 1's Low-Fat column:

* dereference checks validate the pointer against its witness base
  using the region arithmetic of Figure 5 (``__lf_check``);
* ``malloc``/``calloc``/``realloc``/``free`` are redirected to the
  custom low-fat allocator; ``alloca`` is *replaced* by region-backed
  ``__lf_alloca`` ("mirror, replace"); globals are mirrored into the
  regions by the runtime's global placer;
* a witness is the base pointer alone, ``(base,)``, which the
  framework propagates through geps, bitcasts, phis and selects;
  pointers whose provenance crosses a function or memory boundary
  (loads, arguments, call results, inttoptr) *assume the in-bounds
  invariant* and recompute the base from the pointer value
  (``__lf_compute_base``);
* the invariant is established by escape checks
  (``__lf_invariant_check``) at stores, calls, returns and
  pointer-to-integer casts -- the behaviour that makes Low-Fat report
  out-of-bounds pointer *arithmetic*, not just accesses
  (Section 4.2).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..ir.instructions import Alloca, Cast, Instruction
from ..ir.module import Function, GlobalVariable, Module
from ..ir.types import I8, I64, VOID, FunctionType, PointerType, ptr
from ..ir.values import Argument, ConstantInt, Value
from .itarget import ITarget, TargetKind
from .mechanism import (
    InstrumentationMechanism,
    Witness,
    alloca_bytes,
    register_mechanism,
    set_flag,
)

I8P = ptr(I8)

#: libc allocation entry points and their low-fat replacements.
ALLOCATOR_REPLACEMENTS = {
    "malloc": "__lf_malloc",
    "calloc": "__lf_calloc",
    "realloc": "__lf_realloc",
    "free": "__lf_free",
}


class LowFatMechanism(InstrumentationMechanism):
    name = "lowfat"
    # Checks are barriers to the optimizer, as SoftBound's are; the
    # base computation is pure arithmetic on the pointer value.
    runtime = {
        "__lf_check": (FunctionType(VOID, [I64, I64, I64]),
                       frozenset({"mi_check", "may_abort"})),
        "__lf_invariant_check": (FunctionType(VOID, [I64, I64]),
                                 frozenset({"mi_check", "may_abort"})),
        "__lf_compute_base": (FunctionType(I64, [I64]),
                              frozenset({"readnone"})),
        "__lf_malloc": (FunctionType(I8P, [I64]), frozenset()),
        "__lf_calloc": (FunctionType(I8P, [I64, I64]), frozenset()),
        "__lf_realloc": (FunctionType(I8P, [I8P, I64]), frozenset()),
        "__lf_free": (FunctionType(VOID, [I8P]), frozenset()),
        "__lf_alloca": (FunctionType(I8P, [I64]), frozenset()),
    }
    check_native = "__lf_check"
    witness_parts = ("lf.base",)

    def prepare_module(self, module: Module) -> None:
        super().prepare_module(module)
        if self.config.lf_transform_common_to_weak_linkage:
            for gv in module.globals.values():
                if gv.linkage == "common":
                    gv.linkage = "weak"

    def redirect(self, callee: Function) -> Optional[Function]:
        replacement = ALLOCATOR_REPLACEMENTS.get(callee.name)
        if replacement is None:
            return None
        return self.module.get_function(replacement)

    def prepare_function(self, fn: Function) -> None:
        """Replace every alloca by region-backed ``__lf_alloca``.

        Runs before target gathering so the checks see the replaced
        pointers."""
        lf_alloca = self.module.get_function("__lf_alloca")
        for block in fn.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, Alloca):
                    continue
                builder = self.marked_builder(fn)
                builder.position_before(inst)
                raw = builder.call(lf_alloca, [alloca_bytes(builder, inst)])
                typed = builder.bitcast(raw, inst.type)
                inst.replace_all_uses_with(typed)
                inst.erase_from_parent()

    # -- invariants: escape checks -------------------------------------------
    def lower_invariant(self, target: ITarget) -> None:
        """Establish the in-bounds invariant for every pointer that
        escapes at a store, call, return or pointer-to-integer cast."""
        if target.kind == TargetKind.INVARIANT_CALL:
            pointers = [a for a in target.instruction.args
                        if isinstance(a.type, PointerType)]
        else:
            pointers = [target.pointer]
        for pointer in pointers:
            (base,) = self.witness(pointer)
            builder = self.marked_builder(self.fn)
            builder.position_before(target.instruction)
            p64 = builder.ptrtoint(pointer, I64)
            check = builder.call(
                self.module.get_function("__lf_invariant_check"), [p64, base])
            self.record_site(check, target, pointer, "invariant")

    # -- witness sources: the base pointer -------------------------------
    def source_witness(self, pointer: Value) -> Witness:
        builder = self.marked_builder(self.fn)
        if isinstance(pointer, (Argument, GlobalVariable)):
            builder.position_at_start(self.fn.entry)
        elif isinstance(pointer, Instruction):
            # Loads, call results, inttoptr casts, __lf_alloca /
            # __lf_malloc results: rely on the in-bounds invariant and
            # recompute the base from the pointer value (Figure 4).
            builder.position_after(pointer)
        else:
            return (ConstantInt(I64, 0),)  # null, undef, code: wide
        p64 = builder.ptrtoint(pointer, I64)
        return (builder.call(self.module.get_function("__lf_compute_base"),
                             [p64]),)

    # -- site provenance -----------------------------------------------------
    def classify_source(self, root: Value) -> Tuple[str, str]:
        """A base that ``__lf_compute_base`` recomputes can only go wide
        dynamically (non-low-fat allocation), whereas external globals
        and code pointers are wide by construction."""
        if isinstance(root, GlobalVariable):
            if root.is_declaration:
                return ("external-global", "unmirrored-external-global")
            return ("global", "")
        if isinstance(root, Cast) and root.opcode == "inttoptr":
            return ("inttoptr", "")
        if isinstance(root, Instruction):
            return ("recomputed-base", "")
        return super().classify_source(root)


def _lowfat_runtime(config, lf_region_capacity=None):
    from ..lowfat.runtime import LowFatRuntime

    return LowFatRuntime(region_capacity=lf_region_capacity)


register_mechanism(
    "lowfat",
    factory=LowFatMechanism,
    flag_handlers={
        "-mi-lf-transform-common-to-weak-linkage":
            set_flag("lf_transform_common_to_weak_linkage"),
    },
    runtime_factory=_lowfat_runtime,
    description="Low-Fat Pointers: pointer-derivable bounds via "
                "size-class regions (paper Figure 5)",
)
