"""The SoftBound mechanism: lowering ITargets to SoftBound code.

Follows Table 1's SoftBound column:

* dereference checks compare the pointer against its (base, bound)
  witness (Figure 2);
* a witness is a pair of ``i64`` SSA values, ``(base, bound)``:
  allocations yield them directly, and the framework propagates them
  through geps, bitcasts, phis and selects;
* pointers loaded from memory take their bounds from the **trie**,
  keyed by the loaded-from address; pointer stores update the trie;
* pointer arguments and return values travel over the **shadow stack**;
* calls to the supported C standard library are redirected to wrappers
  that maintain metadata (Figure 6);
* integer-to-pointer casts get wide or NULL bounds depending on
  ``sb_inttoptr_wide_bounds`` (Section 4.4);
* size-less extern array declarations get a wide upper bound under
  ``sb_size_zero_wide_upper`` (Section 4.3) -- the source of Table 2's
  unchecked accesses for gzip-like code.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..ir.instructions import Alloca, Call, Cast, Load, Ret, Store
from ..ir.module import Function, GlobalVariable
from ..ir.types import I64, VOID, FunctionType, PointerType, size_of
from ..ir.values import Argument, ConstantInt, ConstantNull, UndefValue, Value
from ..softbound.runtime import WRAPPED_FUNCTIONS
from .itarget import ITarget, TargetKind
from .mechanism import (
    InstrumentationMechanism,
    MarkingBuilder,
    Witness,
    alloca_bytes,
    register_mechanism,
    set_flag,
)

WIDE_BOUND_INT = (1 << 64) - 1


class SoftBoundMechanism(InstrumentationMechanism):
    name = "softbound"
    # Checks are calls to external runtime functions with *no* memory
    # attributes: like in the paper's setting, the compiler must assume
    # they may write memory and may not return, so they act as barriers
    # for load CSE and code motion -- the mechanism behind the
    # extension-point gap of Figures 12/13 (Section 5.5).  Metadata
    # *loads*, in contrast, model the inlined lookup sequences and stay
    # readonly, so unused ones are dead-code-eliminated (the Section 5.4
    # observation).
    runtime = {
        "__sb_check": (FunctionType(VOID, [I64, I64, I64, I64]),
                       frozenset({"mi_check", "may_abort"})),
        "__sb_trie_load_base": (FunctionType(I64, [I64]),
                                frozenset({"readonly"})),
        "__sb_trie_load_bound": (FunctionType(I64, [I64]),
                                 frozenset({"readonly"})),
        "__sb_trie_store": (FunctionType(VOID, [I64, I64, I64]), frozenset()),
        "__sb_ss_enter": (FunctionType(VOID, [I64]), frozenset()),
        "__sb_ss_exit": (FunctionType(VOID, []), frozenset()),
        "__sb_ss_set": (FunctionType(VOID, [I64, I64, I64]), frozenset()),
        "__sb_ss_get_base": (FunctionType(I64, [I64]),
                             frozenset({"readonly"})),
        "__sb_ss_get_bound": (FunctionType(I64, [I64]),
                              frozenset({"readonly"})),
        "__sb_ss_set_ret": (FunctionType(VOID, [I64, I64]), frozenset()),
        "__sb_ss_get_ret_base": (FunctionType(I64, []),
                                 frozenset({"readonly"})),
        "__sb_ss_get_ret_bound": (FunctionType(I64, []),
                                  frozenset({"readonly"})),
    }
    check_native = "__sb_check"
    witness_parts = ("sb.base", "sb.bound")

    def redirect(self, callee: Function) -> Optional[Function]:
        """Calls to wrapped libc functions go to their SoftBound
        wrappers (paper Figure 6)."""
        if callee.name not in WRAPPED_FUNCTIONS:
            return None
        wrapper = self.module.get_or_declare_function(
            f"__sb_wrap_{callee.name}", callee.fnty, callee.attributes)
        wrapper.native = True
        return wrapper

    def _call_runtime(self, builder: MarkingBuilder, name: str,
                      args=()) -> Call:
        return builder.call(self.module.get_function(name), list(args))

    # -- invariants: trie and shadow stack -------------------------------
    def lower_invariant(self, target: ITarget) -> None:
        # INVARIANT_CAST: SoftBound does not act on ptrtoint.
        if target.kind == TargetKind.INVARIANT_STORE:
            self._lower_store_invariant(target.instruction)
        elif target.kind == TargetKind.INVARIANT_CALL:
            self._lower_call_invariant(target.instruction)
        elif target.kind == TargetKind.INVARIANT_RET:
            self._lower_ret_invariant(target.instruction)

    def _lower_store_invariant(self, store: Store) -> None:
        base, bound = self.witness(store.value)
        builder = self.marked_builder(self.fn)
        builder.position_before(store)
        location = builder.ptrtoint(store.pointer, I64)
        self._call_runtime(builder, "__sb_trie_store", [location, base, bound])

    def _lower_call_invariant(self, call: Call) -> None:
        ptr_args = [a for a in call.args if isinstance(a.type, PointerType)]
        builder = self.marked_builder(self.fn)
        if ptr_args:
            witnesses = [self.witness(a) for a in ptr_args]
            builder.position_before(call)
            self._call_runtime(builder, "__sb_ss_enter",
                               [ConstantInt(I64, len(ptr_args))])
            for index, (base, bound) in enumerate(witnesses):
                self._call_runtime(builder, "__sb_ss_set",
                                   [ConstantInt(I64, index), base, bound])
        builder.position_after(call)
        if isinstance(call.type, PointerType):
            self.preset_witness(call, lambda: self._return_witness(builder))
        if ptr_args:
            self._call_runtime(builder, "__sb_ss_exit")

    def _lower_ret_invariant(self, ret: Ret) -> None:
        base, bound = self.witness(ret.value)
        builder = self.marked_builder(self.fn)
        builder.position_before(ret)
        self._call_runtime(builder, "__sb_ss_set_ret", [base, bound])

    # -- witness sources -----------------------------------------------------
    def source_witness(self, pointer: Value) -> Witness:
        if isinstance(pointer, Cast) and pointer.opcode == "inttoptr":
            if self.config.sb_inttoptr_wide_bounds:
                return _wide()
            return _null()
        if isinstance(pointer, Alloca):
            builder = self._builder_after(pointer)
            base = builder.ptrtoint(pointer, I64)
            return (base, builder.add(base, alloca_bytes(builder, pointer)))
        if isinstance(pointer, Load):
            # Bounds come from the trie, keyed by the address the
            # pointer was loaded from (Section 3.2).
            builder = self._builder_after(pointer)
            location = builder.ptrtoint(pointer.pointer, I64)
            return (
                self._call_runtime(builder, "__sb_trie_load_base", [location]),
                self._call_runtime(builder, "__sb_trie_load_bound", [location]),
            )
        if isinstance(pointer, Call):
            # Normally preset by the call-invariant lowering; this path
            # covers calls without pointer arguments.
            return self._return_witness(self._builder_after(pointer))
        if isinstance(pointer, Argument):
            return self._argument_witness(pointer)
        if isinstance(pointer, GlobalVariable):
            return self._global_witness(pointer)
        if isinstance(pointer, (ConstantNull, UndefValue)):
            return _null()
        # Function pointers are not data objects, and an unknown
        # producer is permitted rather than rejected.
        return _wide()

    def _builder_after(self, inst) -> MarkingBuilder:
        builder = self.marked_builder(self.fn)
        builder.position_after(inst)
        return builder

    def _return_witness(self, builder: MarkingBuilder) -> Witness:
        """Bounds from the shadow-stack return slot."""
        return (self._call_runtime(builder, "__sb_ss_get_ret_base"),
                self._call_runtime(builder, "__sb_ss_get_ret_bound"))

    def _argument_witness(self, arg: Argument) -> Witness:
        """Pointer parameter: bounds from the caller's shadow-stack
        frame (slot index = position among the pointer parameters)."""
        slot = 0
        for other in self.fn.args:
            if other is arg:
                break
            if isinstance(other.type, PointerType):
                slot += 1
        builder = self.marked_builder(self.fn)
        builder.position_at_start(self.fn.entry)
        return (
            self._call_runtime(builder, "__sb_ss_get_base",
                               [ConstantInt(I64, slot)]),
            self._call_runtime(builder, "__sb_ss_get_bound",
                               [ConstantInt(I64, slot)]),
        )

    def _global_witness(self, gv: GlobalVariable) -> Witness:
        builder = self.marked_builder(self.fn)
        builder.position_at_start(self.fn.entry)
        base = builder.ptrtoint(gv, I64)
        if gv.declared_without_size:
            if self.config.sb_size_zero_wide_upper:
                return (base, ConstantInt(I64, WIDE_BOUND_INT))
            # NULL upper bound: every access through it reports.
            return (base, ConstantInt(I64, 0))
        return (base, builder.add(base, ConstantInt(I64, size_of(gv.value_type))))

    # -- site provenance -----------------------------------------------------
    def classify_source(self, root: Value) -> Tuple[str, str]:
        if isinstance(root, Cast) and root.opcode == "inttoptr":
            if self.config.sb_inttoptr_wide_bounds:
                return ("inttoptr", "inttoptr-roundtrip")
            return ("inttoptr", "")
        if isinstance(root, GlobalVariable):
            if root.declared_without_size and self.config.sb_size_zero_wide_upper:
                return ("global", "sizeless-extern-array")
            return ("global", "")
        if isinstance(root, Alloca):
            return ("alloca", "")
        if isinstance(root, Load):
            return ("trie-load", "")
        if isinstance(root, Call):
            return ("call-result", "")
        return super().classify_source(root)


def _wide() -> Witness:
    return (ConstantInt(I64, 0), ConstantInt(I64, WIDE_BOUND_INT))


def _null() -> Witness:
    return (ConstantInt(I64, 0), ConstantInt(I64, 0))


def _softbound_runtime(config, lf_region_capacity=None):
    from ..softbound.runtime import SoftBoundRuntime

    return SoftBoundRuntime(
        missing_metadata_wide=config.sb_missing_metadata_wide,
        wrapper_checks=config.sb_wrapper_checks,
    )


register_mechanism(
    "softbound",
    factory=SoftBoundMechanism,
    flag_handlers={
        "-mi-sb-size-zero-wide-upper": set_flag("sb_size_zero_wide_upper"),
        "-mi-sb-inttoptr-wide-bounds": set_flag("sb_inttoptr_wide_bounds"),
        "-mi-sb-missing-metadata-wide": set_flag("sb_missing_metadata_wide"),
        "-mi-sb-wrapper-checks": set_flag("sb_wrapper_checks"),
    },
    runtime_factory=_softbound_runtime,
    description="SoftBound: disjoint (base, bound) metadata in a trie "
                "plus a shadow stack (paper Figure 2)",
)
