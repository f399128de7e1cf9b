"""Simulated flat 64-bit address space.

Pointers in the VM are plain integers, exactly as on real hardware.
This is essential for the reproduction: Low-Fat Pointers derive bounds
*from the pointer value* (region arithmetic), and integer/pointer casts
must round-trip without the VM noticing -- both impossible with opaque
pointer handles.

The address space is an interval map from address ranges to
:class:`Allocation` objects, each holding one writable buffer: a
``bytearray``, or an anonymous private ``mmap`` from
:data:`SPARSE_THRESHOLD` up.  An access that
falls entirely inside a live allocation succeeds -- even if it is
out-of-bounds *of the object the programmer meant*, which is how real
silent corruption works and why padding hides overflows from Low-Fat
Pointers.  An access that touches unmapped or freed memory raises
:class:`~repro.errors.MemoryFault` (the simulated segfault).

Layout (all constants in :data:`LAYOUT`):

* ``[0, 0x1000)`` -- the NULL page, never mapped.
* ``[GLOBALS_BASE, ...)`` -- global variables (below 2^32, so they are
  *not* low-fat: region index 0).
* ``[2^32, 28 * 2^32)`` -- the 27 Low-Fat regions for sizes 2^4..2^30
  (see :mod:`repro.lowfat.layout`).
* ``[HEAP_BASE, ...)`` -- the standard heap (region index way above the
  low-fat range -> non-low-fat).
* ``[... , STACK_TOP)`` -- the standard stack, growing down.
"""

from __future__ import annotations

import bisect
import mmap
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import MemoryFault, VMError

NULL_PAGE_END = 0x1000
GLOBALS_BASE = 0x0100_0000            # 16 MiB, below the low-fat regions
LOWFAT_BASE = 1 << 32
LOWFAT_END = 28 << 32
HEAP_BASE = 0x7000_0000_0000
STACK_TOP = 0x7FFF_FFFF_0000
STACK_LIMIT = 0x7FF0_0000_0000

ADDRESS_MASK = (1 << 64) - 1

#: Allocations at or above this size are backed by an anonymous
#: private ``mmap``, which the OS commits a page at a time on first
#: write, so multi-gigabyte allocations (e.g. 429mcf's >1 GiB array)
#: cost memory proportional to the pages actually written.
SPARSE_THRESHOLD = 1 << 21

#: Private, so forked experiment workers never share pages.
_MAP_FLAGS = ({"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE")
              else {})


def _buffer(size: int):
    """The zero-filled writable buffer backing a ``size``-byte
    allocation: a bytearray, or an anonymous mapping from
    :data:`SPARSE_THRESHOLD` up.  A mapping the host refuses is a
    one-line :class:`VMError`."""
    if size < SPARSE_THRESHOLD:
        return bytearray(size)
    try:
        return mmap.mmap(-1, size, **_MAP_FLAGS)
    except (OSError, ValueError, OverflowError) as exc:
        raise VMError(f"cannot map a {size}-byte allocation: {exc}") from None


@dataclass
class Allocation:
    """A contiguous mapped range of the address space."""

    base: int
    size: int
    kind: str                  # "global" | "stack" | "heap" | "lowfat"
    name: str = ""
    requested_size: int = 0    # pre-padding size (low-fat pads)
    freed: bool = False
    #: The bytes of ``[base, end)``: a bytearray, or an mmap at or
    #: above :data:`SPARSE_THRESHOLD` (see :func:`_buffer`).
    data: object = None

    def __post_init__(self) -> None:
        if self.data is None:
            self.data = _buffer(self.size)
        if self.requested_size == 0:
            self.requested_size = self.size

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " freed" if self.freed else ""
        return (
            f"<Allocation {self.name or self.kind} "
            f"[0x{self.base:x}, 0x{self.end:x}){state}>"
        )


class Memory:
    """Interval-mapped simulated memory."""

    def __init__(self) -> None:
        self._bases: List[int] = []
        self._allocs: List[Allocation] = []
        #: Last allocation a ``locate`` resolved to.  Accesses cluster
        #: heavily (loops walk one array at a time), so this answers
        #: most lookups without the bisect.  The entry is dropped on
        #: map/unmap; frees are caught by the ``freed`` guard.
        self._hot: Optional[Allocation] = None

    # -- mapping -------------------------------------------------------
    def map(self, alloc: Allocation) -> Allocation:
        self._hot = None
        if alloc.base < NULL_PAGE_END:
            raise VMError(f"cannot map into the NULL page: 0x{alloc.base:x}")
        idx = bisect.bisect_right(self._bases, alloc.base)
        # Overlap checks against neighbours.
        if idx > 0:
            prev = self._allocs[idx - 1]
            if not prev.freed and prev.end > alloc.base:
                raise VMError(
                    f"mapping overlap: {alloc!r} overlaps {prev!r}"
                )
        if idx < len(self._allocs):
            nxt = self._allocs[idx]
            if not nxt.freed and alloc.end > nxt.base:
                raise VMError(f"mapping overlap: {alloc!r} overlaps {nxt!r}")
        self._bases.insert(idx, alloc.base)
        self._allocs.insert(idx, alloc)
        return alloc

    def unmap(self, alloc: Allocation) -> None:
        """Free an allocation and remove it from the index entirely.

        The ``freed`` mark is what a stale reference -- ``_hot`` or a
        :meth:`site` cache entry -- is tested against, so the range can
        be remapped without any other invalidation."""
        alloc.freed = True
        if self._hot is alloc:
            self._hot = None
        idx = bisect.bisect_left(self._bases, alloc.base)
        while idx < len(self._allocs):
            if self._allocs[idx] is alloc:
                del self._bases[idx]
                del self._allocs[idx]
                return
            if self._bases[idx] != alloc.base:
                break
            idx += 1
        raise VMError(f"unmap of unknown allocation {alloc!r}")

    def find(self, address: int) -> Optional[Allocation]:
        """The live allocation containing ``address``, or None."""
        idx = bisect.bisect_right(self._bases, address) - 1
        if idx < 0:
            return None
        alloc = self._allocs[idx]
        if alloc.freed or address >= alloc.end:
            return None
        return alloc

    def locate(self, address: int, size: int, write: bool) -> Tuple[Allocation, int]:
        """Resolve an access; raise :class:`MemoryFault` if invalid."""
        alloc = self._hot
        if (
            alloc is not None
            and alloc.base <= address
            and address + size <= alloc.base + alloc.size
            and not alloc.freed
        ):
            # NULL-page accesses can never hit here: mapped bases are
            # always >= NULL_PAGE_END, so ``alloc.base <= address``
            # already excludes them.
            return alloc, address - alloc.base
        if address < NULL_PAGE_END:
            raise MemoryFault(address, size, "null pointer dereference")
        idx = bisect.bisect_right(self._bases, address) - 1
        if idx >= 0:
            alloc = self._allocs[idx]
            base = alloc.base
            end = base + alloc.size
            if address < end:
                if alloc.freed:
                    raise MemoryFault(address, size, f"use after free of {alloc.name or alloc.kind}")
                if address + size > end:
                    raise MemoryFault(
                        address, size,
                        f"access straddles end of {alloc.name or alloc.kind} allocation",
                    )
                self._hot = alloc
                return alloc, address - base
        raise MemoryFault(address, size, "access to unmapped memory")

    def site(self, address: int, size: int,
             write: bool) -> Tuple[Allocation, int, int, object]:
        """Resolve an access for a per-site inline cache.

        Returns ``(alloc, base, high, buf)``: ``high`` is the largest
        address at which a ``size``-byte access still fits, so a later
        access hits when ``base <= p <= high`` and the allocation is
        not freed, and reads or writes ``buf`` (``alloc.data``) at
        ``p - base``.  A valid access costs no further Python call; an
        invalid one raises :meth:`locate`'s fault.
        """
        idx = bisect.bisect_right(self._bases, address) - 1
        alloc = self._allocs[idx] if idx >= 0 else None
        if (alloc is None or alloc.freed
                or address + size > alloc.base + alloc.size):
            alloc, _ = self.locate(address, size, write)
        base = alloc.base
        return alloc, base, base + alloc.size - size, alloc.data

    # -- typed access ----------------------------------------------------
    def read_bytes(self, address: int, size: int) -> bytes:
        alloc, offset = self.locate(address, size, write=False)
        return bytes(alloc.data[offset : offset + size])

    def write_bytes(self, address: int, data: bytes) -> None:
        alloc, offset = self.locate(address, len(data), write=True)
        alloc.data[offset : offset + len(data)] = data

    def read_int(self, address: int, size: int, signed: bool = False) -> int:
        alloc, offset = self.locate(address, size, write=False)
        if size == 1 and not signed:
            return alloc.data[offset]
        return int.from_bytes(alloc.data[offset : offset + size], "little",
                              signed=signed)

    def write_int(self, address: int, value: int, size: int) -> None:
        alloc, offset = self.locate(address, size, write=True)
        if size == 1:
            alloc.data[offset] = value & 0xFF
            return
        value &= (1 << (8 * size)) - 1
        alloc.data[offset : offset + size] = value.to_bytes(size, "little")

    def read_float(self, address: int, size: int) -> float:
        alloc, offset = self.locate(address, size, write=False)
        return struct.unpack_from("<f" if size == 4 else "<d", alloc.data,
                                  offset)[0]

    def write_float(self, address: int, value: float, size: int) -> None:
        alloc, offset = self.locate(address, size, write=True)
        struct.pack_into("<f" if size == 4 else "<d", alloc.data, offset,
                         value)


class StandardAllocator:
    """The `malloc` substrate: a bump allocator over the heap segment.

    Freed blocks are tombstoned (kept mapped as ``freed``) so that
    use-after-free reliably faults instead of silently landing in a new
    allocation.  Spatial safety is the paper's topic; temporal realism
    beyond this is out of scope.
    """

    ALIGNMENT = 16

    def __init__(self, memory: Memory, base: int = HEAP_BASE):
        self.memory = memory
        self._cursor = base
        self._count = 0

    def malloc(self, size: int, name: str = "") -> Allocation:
        if size < 0:
            raise VMError(f"malloc of negative size {size}")
        padded = max(size, 1)
        alloc = Allocation(
            base=self._cursor,
            size=padded,
            kind="heap",
            name=name or f"heap#{self._count}",
            requested_size=size,
        )
        self._count += 1
        self._cursor += (padded + self.ALIGNMENT - 1) & ~(self.ALIGNMENT - 1)
        # Guard gap between heap allocations: linear overruns fault
        # instead of corrupting the neighbour, like a red zone of one
        # alignment unit.
        self._cursor += self.ALIGNMENT
        return self.memory.map(alloc)

    def free(self, address: int) -> None:
        if address == 0:
            return
        alloc = self.memory.find(address)
        if alloc is None or alloc.base != address:
            raise MemoryFault(address, 0, "free of invalid pointer")
        if alloc.kind not in ("heap", "lowfat"):
            raise MemoryFault(address, 0, f"free of non-heap pointer ({alloc.kind})")
        alloc.freed = True


class StackAllocator:
    """Call-stack allocation for ``alloca``.

    Frames are pushed/popped in sync with interpreted calls.  Popping a
    frame tombstones its allocations, so escaping stack pointers fault
    when dereferenced later.
    """

    ALIGNMENT = 16

    def __init__(self, memory: Memory, top: int = STACK_TOP):
        self.memory = memory
        self._cursor = top
        self._frames: List[List[Allocation]] = []
        self._cursor_stack: List[int] = []

    @property
    def depth(self) -> int:
        return len(self._frames)

    def push_frame(self) -> None:
        self._frames.append([])
        self._cursor_stack.append(self._cursor)

    def pop_frame(self) -> None:
        frame = self._frames.pop()
        for alloc in frame:
            self.memory.unmap(alloc)
        self._cursor = self._cursor_stack.pop()

    def alloca(self, size: int, name: str = "") -> Allocation:
        if not self._frames:
            raise VMError("alloca outside of a stack frame")
        padded = max((size + self.ALIGNMENT - 1) & ~(self.ALIGNMENT - 1), self.ALIGNMENT)
        # Guard gap, then the allocation (stack grows down).
        self._cursor -= padded + self.ALIGNMENT
        if self._cursor < STACK_LIMIT:
            raise VMError("simulated stack overflow")
        alloc = Allocation(
            base=self._cursor,
            size=size if size > 0 else 1,
            kind="stack",
            name=name,
            requested_size=size,
        )
        self._frames[-1].append(alloc)
        return self.memory.map(alloc)


class GlobalsAllocator:
    """Placement of global variables in the globals segment."""

    ALIGNMENT = 16

    def __init__(self, memory: Memory, base: int = GLOBALS_BASE):
        self.memory = memory
        self._cursor = base

    def allocate(self, size: int, name: str) -> Allocation:
        padded = max(size, 1)
        alloc = Allocation(
            base=self._cursor, size=padded, kind="global", name=name,
            requested_size=size,
        )
        self._cursor += (padded + self.ALIGNMENT - 1) & ~(self.ALIGNMENT - 1)
        self._cursor += self.ALIGNMENT  # guard gap
        return self.memory.map(alloc)
