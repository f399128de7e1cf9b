"""SoftBound runtime: trie + shadow stack natives and libc wrappers.

The SoftBound mechanism (:mod:`repro.core.sb_mechanism`) lowers its
instrumentation targets into calls to the natives registered here.  The
trie and shadow-stack natives and the check are template natives
(:class:`~repro.vm.native.TemplateNative`): generated code runs them
inline, so a metadata operation makes no Python-level call there.

Standard-library calls are redirected to *wrapper* natives
(``__sb_wrap_malloc`` etc., paper Figure 6) that

1. perform the underlying libc operation,
2. maintain SoftBound's metadata (e.g. ``memcpy`` copies trie entries
   for all pointer slots in the copied range; ``malloc`` publishes the
   new allocation's bounds in the shadow-stack return slot), and
3. optionally check the operation against the argument bounds from the
   shadow stack (disabled by default for comparability, paper
   Section 5.1.2).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from ..errors import MemSafetyViolation
from ..vm import costs
from ..vm import native as libc
from ..vm.native import CheckNative, TemplateNative
from ..vm.stats import RuntimeStats
from .shadow_stack import ShadowStack, WIDE, WIDE_BOUND
from .trie import SLOT_SHIFT, MetadataTrie

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.interpreter import VirtualMachine

U64 = (1 << 64) - 1
_CHECK_COST = costs.INTRINSIC_COSTS["__sb_check"]

#: libc functions that get wrappers, and how many leading pointer
#: arguments each should be checked against its shadow-stack bounds
#: (argument index -> length argument index or fixed semantics).
WRAPPED_FUNCTIONS = (
    "malloc", "calloc", "realloc", "free",
    "memcpy", "memmove", "memset", "strcpy", "strlen", "strcmp",
)


class SoftBoundRuntime:
    def __init__(
        self,
        missing_metadata_wide: bool = False,
        wrapper_checks: bool = False,
    ):
        """``missing_metadata_wide``: bounds for pointer loads with no
        trie entry (True: wide bounds = silent, False: NULL bounds =
        spurious report on dereference; the paper discusses both).

        ``wrapper_checks``: make libc wrappers check their arguments
        (extra safety; disabled in the paper's runtime comparison)."""
        self.trie = MetadataTrie()
        self.shadow_stack = ShadowStack()
        self.missing_metadata_wide = missing_metadata_wide
        self.wrapper_checks = wrapper_checks
        self.vm: Optional["VirtualMachine"] = None
        self.stats: Optional[RuntimeStats] = None

    # -- installation ----------------------------------------------------
    def install(self, vm: "VirtualMachine") -> None:
        self.vm = vm
        self.stats = vm.stats
        # Generated code runs the metadata natives inline, from these
        # templates over the trie's and the shadow stack's own
        # containers; the tree-walker calls the methods below, which
        # keep the same semantics through MetadataTrie and ShadowStack.
        trie = {"trie": self.trie.slots}
        load = (f"{{trie}}.get({{0}} >> {SLOT_SHIFT}, "
                f"{self._missing_bounds()!r})")
        vm.register_native("__sb_trie_load_base", TemplateNative(
            self._trie_load_base, 1, expr=load + "[0]",
            counter="trie_loads", helpers=trie))
        vm.register_native("__sb_trie_load_bound", TemplateNative(
            self._trie_load_bound, 1, expr=load + "[1]",
            counter="trie_loads", helpers=trie))
        vm.register_native("__sb_trie_store", TemplateNative(
            self._trie_store, 3,
            stmt=f"{{trie}}[{{0}} >> {SLOT_SHIFT}] = ({{1}}, {{2}})",
            counter="trie_stores", helpers=trie))
        ss = self.shadow_stack
        stack = {"counter": "shadow_stack_ops",
                 "helpers": {"slots": ss.slots, "marks": ss.marks}}
        # The current frame's slot {0}, or wide bounds with no frame or
        # past the slots.
        slot = (f"({{slots}}[__ss] if (__ss := {{marks}}[-2] + {{0}}) < "
                f"len({{slots}}) else {WIDE!r})")
        vm.register_native("__sb_ss_enter", TemplateNative(
            self._ss_enter, 1,
            stmt=("{marks}.append({marks}[-1] + {0}); {slots}.extend("
                  f"[{WIDE!r}] * ({{marks}}[-1] - len({{slots}})))"),
            **stack))
        vm.register_native("__sb_ss_exit", TemplateNative(
            self._ss_exit, 0, stmt="if len({marks}) > 2: {marks}.pop()",
            **stack))
        vm.register_native("__sb_ss_set", TemplateNative(
            self._ss_set, 3,
            stmt=("if (__ss := {marks}[-2] + {0}) < len({slots}): "
                  "{slots}[__ss] = ({1}, {2})"),
            **stack))
        vm.register_native("__sb_ss_get_base", TemplateNative(
            self._ss_get_base, 1, expr=slot + "[0]", **stack))
        vm.register_native("__sb_ss_get_bound", TemplateNative(
            self._ss_get_bound, 1, expr=slot + "[1]", **stack))
        ret = {"counter": "shadow_stack_ops", "helpers": {"ret": ss.ret}}
        vm.register_native("__sb_ss_set_ret", TemplateNative(
            self._ss_set_ret, 2, stmt="{ret}[0] = ({0}, {1})", **ret))
        vm.register_native("__sb_ss_get_ret_base", TemplateNative(
            self._ss_get_ret_base, 0, expr="{ret}[0][0]", **ret))
        vm.register_native("__sb_ss_get_ret_bound", TemplateNative(
            self._ss_get_ret_bound, 0, expr="{ret}[0][1]", **ret))
        vm.register_native("__sb_check", CheckNative(
            self.check, 4, "deref", fail=self.fail,
            # ptr {0}, width {1}, base {2}, bound {3}: check()'s tests.
            fails="{0} < {2} or {0} + {1} > {3}",
            wide=f"{{3}} == {WIDE_BOUND}"))
        for name in WRAPPED_FUNCTIONS:
            vm.register_native(f"__sb_wrap_{name}", self._make_wrapper(name))

    # -- trie ----------------------------------------------------------------
    def _missing_bounds(self) -> Tuple[int, int]:
        """Bounds of a pointer load with no trie entry."""
        if self.missing_metadata_wide:
            return WIDE
        return (0, 0)  # NULL bounds: any dereference reports

    def _bounds_for_load(self, location: int) -> Tuple[int, int]:
        entry = self.trie.load(location)
        self.vm.stats.trie_loads += 1
        return self._missing_bounds() if entry is None else entry

    def _trie_load_base(self, vm: "VirtualMachine", args: List[int]) -> int:
        return self._bounds_for_load(args[0])[0]

    def _trie_load_bound(self, vm: "VirtualMachine", args: List[int]) -> int:
        return self._bounds_for_load(args[0])[1]

    def _trie_store(self, vm: "VirtualMachine", args: List[int]) -> None:
        location, base, bound = args[0], args[1], args[2]
        self.trie.store(location, base, bound)
        vm.stats.trie_stores += 1

    # -- shadow stack ------------------------------------------------------------
    def _ss_enter(self, vm: "VirtualMachine", args: List[int]) -> None:
        self.shadow_stack.enter(args[0])
        vm.stats.shadow_stack_ops += 1

    def _ss_exit(self, vm: "VirtualMachine", args: List[int]) -> None:
        self.shadow_stack.exit()
        vm.stats.shadow_stack_ops += 1

    def _ss_set(self, vm: "VirtualMachine", args: List[int]) -> None:
        self.shadow_stack.set_slot(args[0], args[1], args[2])
        vm.stats.shadow_stack_ops += 1

    def _ss_get_base(self, vm: "VirtualMachine", args: List[int]) -> int:
        vm.stats.shadow_stack_ops += 1
        return self.shadow_stack.get_slot(args[0])[0]

    def _ss_get_bound(self, vm: "VirtualMachine", args: List[int]) -> int:
        vm.stats.shadow_stack_ops += 1
        return self.shadow_stack.get_slot(args[0])[1]

    def _ss_set_ret(self, vm: "VirtualMachine", args: List[int]) -> None:
        self.shadow_stack.set_ret(args[0], args[1])
        vm.stats.shadow_stack_ops += 1

    def _ss_get_ret_base(self, vm: "VirtualMachine", args: List[int]) -> int:
        vm.stats.shadow_stack_ops += 1
        return self.shadow_stack.get_ret()[0]

    def _ss_get_ret_bound(self, vm: "VirtualMachine", args: List[int]) -> int:
        vm.stats.shadow_stack_ops += 1
        return self.shadow_stack.get_ret()[1]

    # -- the dereference check (paper Figure 2) ------------------------------------
    def check(self, ptr: int, width: int, base: int, bound: int,
              site: Optional[str] = None) -> None:
        """One dereference check, as the tree-walker runs it; the
        codegen tier compares the templates registered in :meth:`install`
        instead."""
        self.stats.record_check(site, bound == WIDE_BOUND, _CHECK_COST)
        if ptr < base or ptr + width > bound:
            self.fail(ptr, width, base, bound, site)

    def fail(self, ptr: int, width: int, base: int, bound: int,
             site: Optional[str] = None) -> None:
        """Raise the violation of a failed dereference check."""
        raise MemSafetyViolation(
            "deref",
            "SoftBound: access outside [base, bound)"
            + ("" if base or bound else " (NULL bounds: missing or "
               "stale metadata, cf. paper Sections 4.3-4.5)"),
            pointer=ptr, base=base, bound=bound, site=site,
        )

    def _wrapper_check(self, ptr: int, nbytes: int, slot: int, what: str) -> None:
        if not self.wrapper_checks:
            return
        # Two shadow-stack loads plus the range comparison (Figure 6's
        # check_abort); only charged when the checks are enabled.
        stats = self.vm.stats
        stats.cycles += 8
        if stats.profile:
            stats.instrumentation_cycles += 8
        base, bound = self.shadow_stack.get_slot(slot)
        if bound == WIDE_BOUND:
            return
        if ptr < base or ptr + nbytes > bound:
            raise MemSafetyViolation(
                "wrapper", f"SoftBound wrapper: {what} of {nbytes} bytes "
                f"exceeds the argument's bounds",
                pointer=ptr, base=base, bound=bound,
            )

    # -- libc wrappers (paper Figure 6) ------------------------------------------------
    def _make_wrapper(self, name: str) -> Callable:
        impl = libc.LIBC_IMPLS[name]

        def wrapper(vm: "VirtualMachine", args: List) -> object:
            ss = self.shadow_stack
            stats = vm.stats
            if stats.profile:
                # The wrapper's bookkeeping share of the charged call
                # cost (call_cost = wrapped base + call + overhead).
                stats.instrumentation_cycles += costs.SB_WRAPPER_OVERHEAD
            if name == "malloc":
                result = impl(vm, args)
                ss.set_ret(result, result + args[0])
                return result
            if name == "calloc":
                result = impl(vm, args)
                ss.set_ret(result, result + args[0] * args[1])
                return result
            if name == "realloc":
                old_ptr, new_size = args[0], args[1]
                old_size = 0
                if old_ptr != 0:
                    old_alloc = vm.memory.find(old_ptr)
                    if old_alloc is not None:
                        old_size = old_alloc.size
                result = impl(vm, args)
                migrated = min(old_size, new_size)
                if old_ptr != 0 and result != old_ptr and migrated > 0:
                    # The allocation moved: migrate the trie entries of
                    # every pointer slot the data copy carried over
                    # (Figure 6's copy_metadata applies to realloc just
                    # like memcpy; without it, pointers stored inside
                    # the buffer lose their metadata and the next load
                    # through them sees NULL bounds).
                    copied = self.trie.copy_range(result, old_ptr, migrated)
                    if copied:
                        stats.cycles += 4 * copied
                        stats.trie_stores += copied
                        if stats.profile:
                            stats.instrumentation_cycles += 4 * copied
                ss.set_ret(result, result + new_size)
                return result
            if name == "free":
                return impl(vm, args)
            if name in ("memcpy", "memmove"):
                dest, src, n = args[0], args[1], args[2]
                self._wrapper_check(dest, n, 0, name)
                self._wrapper_check(src, n, 1, name)
                result = impl(vm, args)
                if n > 0:
                    copied = self.trie.copy_range(dest, src, n)
                    # copy_metadata walks the trie per 8-byte slot.
                    stats.cycles += 4 * copied
                    stats.trie_stores += copied
                    if stats.profile and copied:
                        stats.instrumentation_cycles += 4 * copied
                base, bound = ss.get_slot(0)
                ss.set_ret(base, bound)
                return result
            if name == "memset":
                self._wrapper_check(args[0], args[2], 0, name)
                result = impl(vm, args)
                base, bound = ss.get_slot(0)
                ss.set_ret(base, bound)
                return result
            if name == "strcpy":
                if self.wrapper_checks:
                    # strlen(src)+1 bytes are read from src and written
                    # to dest; both ranges must lie inside the argument
                    # bounds, exactly like memcpy's argument checks.
                    n = len(libc._read_cstring(vm, args[1])) + 1
                    self._wrapper_check(args[0], n, 0, name)
                    self._wrapper_check(args[1], n, 1, name)
                result = impl(vm, args)
                base, bound = ss.get_slot(0)
                ss.set_ret(base, bound)
                return result
            # strlen / strcmp: value results, no metadata involved.
            return impl(vm, args)

        return wrapper
