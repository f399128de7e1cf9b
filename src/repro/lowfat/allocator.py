"""The low-fat memory allocator.

Groups allocations into per-size-class regions (see
:mod:`repro.lowfat.layout`).  Heap allocations bump within their
region; requests that exceed the largest class (or a region whose
configured capacity is exhausted) *fall back to the standard
allocator*, producing non-low-fat pointers that the instrumentation
can only check with wide bounds -- the exact mechanism behind the
unchecked accesses of the paper's Table 2 (429mcf) and Section 4.6.

Stack allocations (for ``__lf_alloca``) come from the same regions but
keep per-class LIFO free lists so loops that repeatedly enter a frame
reuse addresses, mirroring the low-fat stack scheme of Duck et al.
(NDSS'17) at the level of behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..vm.memory import Allocation, Memory, StandardAllocator
from ..vm.stats import RuntimeStats
from . import layout


class LowFatAllocator:
    def __init__(
        self,
        memory: Memory,
        fallback: StandardAllocator,
        stats: Optional[RuntimeStats] = None,
        region_capacity: Optional[int] = None,
    ):
        """``region_capacity`` caps the bytes handed out per region
        (default: the full region), letting tests reproduce region
        exhaustion."""
        self.memory = memory
        self.fallback = fallback
        self.stats = stats
        self.region_capacity = (
            region_capacity if region_capacity is not None else layout.REGION_SIZE
        )
        self._cursors: Dict[int, int] = {}
        self._free_stacks: Dict[int, List[int]] = {}
        self._count = 0

    # -- heap ----------------------------------------------------------
    def malloc(self, size: int, name: str = "", stack: bool = False) -> Allocation:
        region = layout.size_class_for(size)
        if region == 0:
            return self._fallback_alloc(size, name)
        class_size = layout.allocation_size(region)
        base = self._take_base(region, class_size, stack)
        if base is None:
            return self._fallback_alloc(size, name)
        alloc = Allocation(
            base=base,
            size=class_size,          # padded: OOB into padding succeeds
            kind="lowfat",
            name=name or f"lowfat#{self._count}",
            requested_size=size,
        )
        self._count += 1
        if self.stats is not None:
            self.stats.lowfat_allocs += 1
        return self.memory.map(alloc)

    def _take_base(self, region: int, class_size: int, stack: bool) -> Optional[int]:
        if stack:
            free = self._free_stacks.setdefault(region, [])
            if free:
                return free.pop()
        cursor = self._cursors.get(region, 0)
        if cursor + class_size > self.region_capacity:
            return None  # region exhausted
        self._cursors[region] = cursor + class_size
        return layout.region_base(region) + cursor

    def _fallback_alloc(self, size: int, name: str) -> Allocation:
        if self.stats is not None:
            self.stats.lowfat_fallback_allocs += 1
        return self.fallback.malloc(size, name or "lowfat-fallback")

    def free(self, address: int) -> None:
        if address == 0:
            return
        if not layout.is_lowfat(address):
            self.fallback.free(address)
            return
        alloc = self.memory.find(address)
        if alloc is None or alloc.base != address:
            from ..errors import MemoryFault

            raise MemoryFault(address, 0, "low-fat free of invalid pointer")
        alloc.freed = True

    # -- stack discipline -------------------------------------------------
    def stack_alloc(self, size: int, name: str = "") -> Allocation:
        return self.malloc(size, name or "lf-stack", stack=True)

    def stack_release(self, alloc: Allocation) -> None:
        """Return a stack allocation's slot for reuse.

        The allocation is unmapped entirely, so dangling stack pointers
        fault; the address goes back on the class free list.
        """
        if alloc.kind != "lowfat":
            # Fallback allocation: tombstone like a heap free.
            alloc.freed = True
            return
        # Unmapping marks the object freed, which is all a stale
        # per-site cache in the codegen engine tests; the slot itself
        # is recycled with a fresh Allocation on reuse.
        self.memory.unmap(alloc)
        region = layout.region_index(alloc.base)
        self._free_stacks.setdefault(region, []).append(alloc.base)

    # -- globals ----------------------------------------------------------
    def place_global(self, size: int, name: str) -> Allocation:
        """Global placement in low-fat regions (Duck & Yap 2018).

        Oversized globals fall back to the standard globals segment
        outside the low-fat space (wide bounds)."""
        region = layout.size_class_for(size)
        if region == 0:
            return None  # caller falls back
        return self.malloc(size, name)
