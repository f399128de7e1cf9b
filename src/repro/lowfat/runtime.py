"""Low-Fat Pointers runtime: the natives the instrumented code calls.

The Low-Fat mechanism (:mod:`repro.core.lf_mechanism`) lowers its
instrumentation targets into calls to the natives registered here:

* ``__lf_malloc`` / ``__lf_calloc`` / ``__lf_realloc`` / ``__lf_free``
  -- the custom allocator ("use custom malloc" in Table 1);
* ``__lf_alloca`` -- region-backed stack allocation replacing
  ``alloca`` ("mirror, replace");
* ``__lf_compute_base`` -- recover the witness base from a pointer
  value (Figure 4 arithmetic); returns the NO_BASE sentinel for
  non-low-fat pointers (wide bounds).  It and the two checks are
  template natives (:class:`~repro.vm.native.TemplateNative`), which
  generated code runs inline;
* ``__lf_check`` -- the dereference check of Figure 5;
* ``__lf_invariant_check`` -- the escape check establishing the
  in-bounds invariant at stores/calls/returns/ptr-to-int casts
  (Sections 3.3 and 4.2).

The runtime also supplies the VM's global placer so global variables
are mirrored into low-fat regions (Duck & Yap 2018).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..errors import MemSafetyViolation
from ..vm import costs
from ..vm.native import CheckNative, TemplateNative
from ..vm.stats import RuntimeStats
from . import layout
from .allocator import LowFatAllocator

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.interpreter import VirtualMachine

_CHECK_COST = costs.INTRINSIC_COSTS["__lf_check"]
_INVARIANT_COST = costs.INTRINSIC_COSTS["__lf_invariant_check"]
_U64 = (1 << 64) - 1
#: The size the inline fail tests read for a base in region 0: more
#: than any u64 offset plus any u64 width, so such a check never fails
#: (``check`` returns early on size 0 instead).  A base past the
#: regions never fails either: the tests compare it with LOWFAT_END
#: before they index the table.
_UNCHECKED = 1 << 65
#: The size each inline fail test reads, by the base's region index.
_CHECKED_SIZES = [_UNCHECKED] + [layout.allocation_size(r) for r in
                                 range(1, layout.NUM_REGIONS + 1)]


def _wide_reason(vm: "VirtualMachine", ptr: int) -> str:
    """Why did this access run with wide bounds?  Only consulted when
    profiling is on; classifies by the allocation the pointer actually
    refers to (paper Section 4.3's sources of unprotected memory)."""
    alloc = vm.memory.find(ptr)
    if alloc is None:
        return "no-allocation"
    kind = getattr(alloc, "kind", None)
    if kind == "heap":
        return "oversized-or-fallback-allocation"
    if kind == "global":
        return "unmirrored-global"
    if kind == "stack":
        return "uninstrumented-stack"
    if kind == "lowfat":
        return "wide-witness-into-lowfat-region"
    return "non-lowfat-pointer"


class LowFatRuntime:
    def __init__(self, region_capacity: Optional[int] = None):
        self.region_capacity = region_capacity
        self.allocator: Optional[LowFatAllocator] = None
        self.vm: Optional["VirtualMachine"] = None
        self.stats: Optional[RuntimeStats] = None

    # -- installation ------------------------------------------------------
    def install(self, vm: "VirtualMachine") -> None:
        self.vm = vm
        self.stats = vm.stats
        self.allocator = LowFatAllocator(
            vm.memory, vm.heap, vm.stats, self.region_capacity
        )
        vm.register_native("__lf_malloc", self._malloc)
        vm.register_native("__lf_calloc", self._calloc)
        vm.register_native("__lf_realloc", self._realloc)
        vm.register_native("__lf_free", self._free)
        vm.register_native("__lf_alloca", self._alloca)
        # layout.base_of, inline: a pure expression over the mask table.
        vm.register_native("__lf_compute_base", TemplateNative(
            self._compute_base, 1, pure=True,
            helpers={"masks": layout.BASE_MASKS},
            expr=f"({{0}} & {{masks}}[{{0}} >> {layout.REGION_SHIFT}]) "
                 f"if {{0}} < {layout.LOWFAT_END} else {layout.NO_BASE}"))
        # The inline forms of the checks below: the size of
        # layout.size_of_pointer, read from a table where a base outside
        # the low-fat regions (size 0) never fails.
        size = {"sizes": _CHECKED_SIZES}
        vm.register_native("__lf_check", CheckNative(
            self.check, 3, "deref", fail=self.fail, helpers=size,
            # ptr {0}, width {1}, base {2}
            fails=f"{{2}} < {layout.LOWFAT_END} and "
                  f"(({{0}} - {{2}}) & {_U64}) > "
                  f"{{sizes}}[{{2}} >> {layout.REGION_SHIFT}] - {{1}}",
            wide=f"not {layout.LOWFAT_BASE} <= {{2}} < {layout.LOWFAT_END}",
            reason=self._record_wide_reason))
        vm.register_native("__lf_invariant_check", CheckNative(
            self.invariant_check, 2, "invariant", fail=self.invariant_fail,
            helpers=size,
            # ptr {0}, base {1}
            fails=f"{{1}} < {layout.LOWFAT_END} and "
                  f"(({{0}} - {{1}}) & {_U64}) > "
                  f"{{sizes}}[{{1}} >> {layout.REGION_SHIFT}]"))
        vm.global_placer = self._place_global

    # -- witness base ------------------------------------------------------
    def _compute_base(self, vm: "VirtualMachine", args: List[int]) -> int:
        return layout.base_of(args[0])

    # -- allocation ----------------------------------------------------------
    def _malloc(self, vm: "VirtualMachine", args: List[int]) -> int:
        return self.allocator.malloc(args[0]).base

    def _calloc(self, vm: "VirtualMachine", args: List[int]) -> int:
        count, size = args
        return self.allocator.malloc(count * size).base

    def _realloc(self, vm: "VirtualMachine", args: List[int]) -> int:
        old_ptr, new_size = args
        new_alloc = self.allocator.malloc(new_size)
        if old_ptr != 0:
            old_alloc = vm.memory.find(old_ptr)
            if old_alloc is not None:
                n = min(old_alloc.size, new_size)
                new_alloc.data[0:n] = old_alloc.data[0:n]
                self.allocator.free(old_ptr)
        return new_alloc.base

    def _free(self, vm: "VirtualMachine", args: List[int]) -> None:
        self.allocator.free(args[0])
        vm.stats.heap_frees += 1

    def _alloca(self, vm: "VirtualMachine", args: List[int]) -> int:
        alloc = self.allocator.stack_alloc(args[0])
        vm.register_frame_cleanup(lambda: self.allocator.stack_release(alloc))
        return alloc.base

    def _place_global(self, size: int, name: str, external: bool = False):
        if external:
            # Globals of uninstrumented libraries are not mirrored into
            # the low-fat regions (paper Section 4.3): accesses through
            # them get wide bounds.
            return self.vm.globals_allocator.allocate(size, name)
        alloc = self.allocator.place_global(size, name)
        if alloc is None:
            return self.vm.globals_allocator.allocate(size, name)
        return alloc

    # -- checks -------------------------------------------------------------------
    # As the tree-walker runs them; the codegen tier compares the
    # templates registered in :meth:`install` instead and calls the
    # raise-only entries only to fail.
    def check(self, ptr: int, width: int, base: int,
              site: Optional[str] = None) -> None:
        """The dereference check of Figure 5."""
        size = layout.size_of_pointer(base)
        stats = self.stats
        if size == 0:
            # Non-low-fat witness: wide bounds, access is unchecked.
            reason = _wide_reason(self.vm, ptr) if stats.profile else None
            stats.record_check(site, True, _CHECK_COST, reason)
            return
        stats.record_check(site, False, _CHECK_COST)
        if (ptr - base) % (1 << 64) > size - width:
            self.fail(ptr, width, base, site)

    def fail(self, ptr: int, width: int, base: int,
             site: Optional[str] = None) -> None:
        """Raise the violation of a failed dereference check."""
        raise MemSafetyViolation(
            "deref",
            "Low-Fat Pointers: access outside the witness allocation",
            pointer=ptr, base=base, bound=base + layout.size_of_pointer(base),
            site=site,
        )

    def _record_wide_reason(self, ptr: int, width: int, base: int,
                            site: Optional[str] = None) -> None:
        self.stats.record_reason(site, _wide_reason(self.vm, ptr))

    def invariant_check(self, ptr: int, base: int,
                        site: Optional[str] = None) -> None:
        """Figure 5 arithmetic applied at escape points (width 1 would
        reject one-past-the-end pointers, which the padded allocation
        admits -- width 0 here, so base+size itself stays legal)."""
        self.stats.record_invariant(site, _INVARIANT_COST)
        size = layout.size_of_pointer(base)
        if size == 0:
            return  # non-low-fat pointer: no invariant to establish
        if (ptr - base) % (1 << 64) > size:
            self.invariant_fail(ptr, base, site)

    def invariant_fail(self, ptr: int, base: int,
                       site: Optional[str] = None) -> None:
        """Raise the violation of a failed escape check."""
        raise MemSafetyViolation(
            "invariant",
            "Low-Fat Pointers: escaping pointer is out of bounds of "
            "its object (out-of-bounds pointer arithmetic, cf. "
            "paper Section 4.2)",
            pointer=ptr, base=base, bound=base + layout.size_of_pointer(base),
            site=site,
        )
