"""Tests for the simulated address space."""

import mmap

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryFault, VMError
from repro.vm.memory import (
    Allocation,
    GlobalsAllocator,
    HEAP_BASE,
    Memory,
    SPARSE_THRESHOLD,
    StackAllocator,
    StandardAllocator,
)


class TestMemoryMapping:
    def test_map_and_find(self):
        mem = Memory()
        alloc = mem.map(Allocation(0x10000, 64, "heap"))
        assert mem.find(0x10000) is alloc
        assert mem.find(0x1003F) is alloc
        assert mem.find(0x10040) is None
        assert mem.find(0xFFFF) is None

    def test_overlap_rejected(self):
        mem = Memory()
        mem.map(Allocation(0x10000, 64, "heap"))
        with pytest.raises(VMError, match="overlap"):
            mem.map(Allocation(0x10020, 64, "heap"))
        with pytest.raises(VMError, match="overlap"):
            mem.map(Allocation(0xFFE0, 64, "heap"))

    def test_null_page_unmappable(self):
        mem = Memory()
        with pytest.raises(VMError, match="NULL page"):
            mem.map(Allocation(0x10, 8, "heap"))

    def test_unmap(self):
        mem = Memory()
        alloc = mem.map(Allocation(0x10000, 64, "heap"))
        mem.unmap(alloc)
        assert mem.find(0x10000) is None
        # space can be reused after unmap
        mem.map(Allocation(0x10000, 32, "heap"))

    def test_unmap_marks_freed(self):
        # ``freed`` is the only thing a stale site cache tests, so an
        # unmapped allocation must carry it.
        mem = Memory()
        alloc = mem.map(Allocation(0x10000, 64, "heap"))
        assert not alloc.freed
        mem.unmap(alloc)
        assert alloc.freed


class TestSite:
    """``Memory.site``: the per-site inline-cache refill of generated
    code, with ``locate``'s faults."""

    def test_bytearray_form(self):
        # ``high`` is the last address a ``size``-byte access fits at.
        mem = Memory()
        alloc = mem.map(Allocation(0x10000, 64, "heap"))
        assert type(alloc.data) is bytearray
        for address in (0x10000, 0x10038):
            site = mem.site(address, 8, False)
            assert site == (alloc, 0x10000, 0x10038, alloc.data)
            assert site[3] is alloc.data

    def test_mmap_form(self):
        mem = Memory()
        alloc = mem.map(Allocation(HEAP_BASE, SPARSE_THRESHOLD, "heap"))
        assert type(alloc.data) is mmap.mmap
        site = mem.site(HEAP_BASE + 100, 4, True)
        assert site == (alloc, HEAP_BASE, HEAP_BASE + SPARSE_THRESHOLD - 4,
                        alloc.data)
        assert site[3] is alloc.data

    @pytest.mark.parametrize("address, size, reason", [
        (0, 8, "null pointer dereference"),
        (0x10100, 4, "use after free of gone"),
        (0x1003E, 4, "access straddles end of obj allocation"),
        (0x20000, 4, "access to unmapped memory"),
        (0x2000, 1, "access to unmapped memory"),
    ])
    def test_faults_match_locate(self, address, size, reason):
        mem = Memory()
        mem.map(Allocation(0x10000, 64, "heap", name="obj"))
        mem.map(Allocation(0x10100, 64, "heap", name="gone")).freed = True
        faults = []
        for resolve in (mem.locate, mem.site):
            with pytest.raises(MemoryFault) as info:
                resolve(address, size, False)
            fault = info.value
            faults.append((fault.address, fault.size, fault.reason))
        assert faults[0] == faults[1] == (address, size, reason)


class TestAccess:
    def _mem(self):
        mem = Memory()
        mem.map(Allocation(0x10000, 64, "heap", name="obj"))
        return mem

    def test_read_write_roundtrip(self):
        mem = self._mem()
        mem.write_int(0x10000, 0xDEADBEEF, 4)
        assert mem.read_int(0x10000, 4) == 0xDEADBEEF

    def test_little_endian(self):
        mem = self._mem()
        mem.write_int(0x10000, 0x0102030405060708, 8)
        assert mem.read_bytes(0x10000, 1) == b"\x08"

    def test_float_roundtrip(self):
        mem = self._mem()
        mem.write_float(0x10008, 3.25, 8)
        assert mem.read_float(0x10008, 8) == 3.25
        mem.write_float(0x10010, 1.5, 4)
        assert mem.read_float(0x10010, 4) == 1.5

    def test_null_dereference_faults(self):
        mem = self._mem()
        with pytest.raises(MemoryFault, match="null pointer"):
            mem.read_int(0, 8)

    def test_unmapped_access_faults(self):
        mem = self._mem()
        with pytest.raises(MemoryFault, match="unmapped"):
            mem.read_int(0x20000, 4)

    def test_straddling_access_faults(self):
        mem = self._mem()
        with pytest.raises(MemoryFault, match="straddles"):
            mem.read_int(0x1003E, 4)

    def test_use_after_free_faults(self):
        mem = self._mem()
        mem.find(0x10000).freed = True
        with pytest.raises(MemoryFault, match="use after free"):
            mem.read_int(0x10000, 4)

    def test_in_bounds_of_wrong_object_succeeds(self):
        """The key substrate property: OOB into *another mapped
        allocation* silently corrupts -- no fault (paper Section 2)."""
        mem = Memory()
        mem.map(Allocation(0x10000, 64, "heap", name="a"))
        mem.map(Allocation(0x10040, 64, "heap", name="b"))
        # overrun of `a` by one lands in `b`
        mem.write_int(0x10040, 7, 4)
        assert mem.read_int(0x10040, 4) == 7


class TestAllocators:
    def test_malloc_unique_and_aligned(self):
        mem = Memory()
        heap = StandardAllocator(mem)
        a = heap.malloc(10)
        b = heap.malloc(10)
        assert a.base % 16 == 0 and b.base % 16 == 0
        assert a.end <= b.base  # guard gap between allocations

    def test_malloc_guard_gap_faults(self):
        mem = Memory()
        heap = StandardAllocator(mem)
        a = heap.malloc(16)
        heap.malloc(16)
        with pytest.raises(MemoryFault):
            mem.read_int(a.end, 4)  # linear overrun hits the gap

    def test_free_and_uaf(self):
        mem = Memory()
        heap = StandardAllocator(mem)
        a = heap.malloc(16)
        heap.free(a.base)
        with pytest.raises(MemoryFault, match="use after free"):
            mem.read_int(a.base, 4)

    def test_free_invalid_pointer(self):
        mem = Memory()
        heap = StandardAllocator(mem)
        a = heap.malloc(16)
        with pytest.raises(MemoryFault, match="free of invalid"):
            heap.free(a.base + 4)

    def test_free_null_is_noop(self):
        heap = StandardAllocator(Memory())
        heap.free(0)

    def test_stack_frames(self):
        mem = Memory()
        stack = StackAllocator(mem)
        stack.push_frame()
        a = stack.alloca(32)
        stack.push_frame()
        b = stack.alloca(32)
        assert b.base < a.base  # grows down
        stack.pop_frame()
        with pytest.raises(MemoryFault):
            mem.read_int(b.base, 4)  # popped frame is gone
        mem.read_int(a.base, 4)      # outer frame still live
        stack.pop_frame()

    def test_alloca_outside_frame_rejected(self):
        stack = StackAllocator(Memory())
        with pytest.raises(VMError):
            stack.alloca(8)

    def test_globals_allocator(self):
        mem = Memory()
        ga = GlobalsAllocator(mem)
        a = ga.allocate(100, "g1")
        b = ga.allocate(4, "g2")
        assert a.end <= b.base


class TestLargeAllocations:
    """From ``SPARSE_THRESHOLD`` up an allocation's ``data`` is an
    anonymous mapping: zero-filled, committed only where written."""

    @staticmethod
    def _data(size=1 << 30):
        return Allocation(HEAP_BASE, size, "heap").data

    def test_default_zero(self):
        data = self._data()
        assert data[12345] == 0
        assert data[0:16] == bytes(16)

    def test_write_read_roundtrip(self):
        data = self._data()
        data[1000:1008] = b"abcdefgh"
        assert data[1000:1008] == b"abcdefgh"
        assert data[999] == 0

    def test_cross_page_slice(self):
        # Across a 64 KiB boundary (the former software page size).
        data = self._data()
        boundary = (1 << 16) - 4
        data[boundary : boundary + 8] = b"12345678"
        assert data[boundary : boundary + 8] == b"12345678"

    @given(
        st.integers(0, (1 << 22) - 64),
        st.binary(min_size=1, max_size=64),
    )
    def test_random_offsets_roundtrip(self, offset, data):
        buf = self._data(1 << 22)
        buf[offset : offset + len(data)] = data
        assert buf[offset : offset + len(data)] == data

    def test_huge_allocation_is_cheap(self):
        alloc = Allocation(HEAP_BASE, 1 << 31, "heap")
        assert type(alloc.data) is mmap.mmap
        alloc.data[1 << 30] = 42
        assert alloc.data[1 << 30] == 42

    def test_refused_mapping_is_one_line_vm_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", refuse)
        with pytest.raises(VMError) as info:
            Allocation(HEAP_BASE, 4 << 20, "heap")
        message = str(info.value)
        assert "\n" not in message
        assert str(4 << 20) in message
        # Below the threshold nothing is mapped.
        assert type(Allocation(HEAP_BASE, 64, "heap").data) is bytearray

    def test_unmappable_size_is_one_line_vm_error(self):
        # ``malloc(-1)`` asks for 2**64 - 1 bytes, more than any mapping
        # can hold: the same one-line error, not an OverflowError.
        with pytest.raises(VMError, match=r"^cannot map a "
                           r"18446744073709551615-byte allocation: [^\n]*$"):
            Allocation(HEAP_BASE, (1 << 64) - 1, "heap")
