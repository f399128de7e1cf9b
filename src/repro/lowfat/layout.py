"""Low-Fat Pointers address-space layout (paper Figures 3 and 4).

The virtual address space dedicates one region per allocation size
class.  Size classes are the powers of two from 2^4 (16 B) to 2^30
(1 GiB); each region spans ``REGION_SIZE`` (4 GiB) bytes, so region
``r`` covers ``[r * 2^32, (r+1) * 2^32)`` and holds objects of size
``2^(3+r)``.

With this layout, base and size are recoverable from a pointer value
alone:

* ``region_index(p) = p >> 32``;
* ``allocation_size(r) = 1 << (3 + r)`` for valid ``r``;
* ``base(p) = p & ~(size - 1)`` (size classes are powers of two and
  allocations are aligned to their size).

Allocations are padded by one byte beyond the request to keep
one-past-the-end pointers inside the object's class slot (paper
footnote 3), so a request of exactly ``2^30`` bytes does *not* fit the
largest class and falls back to the standard allocator -- the 429mcf
effect of Table 2.
"""

from __future__ import annotations

MIN_LOG = 4            # smallest class: 16 B
MAX_LOG = 30           # largest class: 1 GiB
NUM_REGIONS = MAX_LOG - MIN_LOG + 1   # 27
REGION_SHIFT = 32
REGION_SIZE = 1 << REGION_SHIFT
LOWFAT_BASE = 1 * REGION_SIZE
LOWFAT_END = (NUM_REGIONS + 1) * REGION_SIZE

#: Sentinel meaning "no low-fat base available" (wide bounds).
NO_BASE = 0


def region_index(address: int) -> int:
    """Region index of an address; valid indices are 1..NUM_REGIONS."""
    return address >> REGION_SHIFT


def is_lowfat(address: int) -> bool:
    return 1 <= region_index(address) <= NUM_REGIONS


def allocation_size(region: int) -> int:
    """The (padded) object size of a region, or 0 for non-low-fat."""
    if 1 <= region <= NUM_REGIONS:
        return 1 << (MIN_LOG - 1 + region)
    return 0


def size_class_for(requested: int) -> int:
    """The region index whose class fits ``requested`` bytes plus the
    one-byte one-past-the-end pad, or 0 if no class is large enough."""
    needed = max(requested + 1, 1)
    log = max((needed - 1).bit_length(), MIN_LOG)
    if log > MAX_LOG:
        return 0
    return log - MIN_LOG + 1


def region_base(region: int) -> int:
    return region * REGION_SIZE


#: ``allocation_size`` of every low-fat region, for the recoveries
#: below.
CLASS_SIZES = {r: allocation_size(r) for r in range(1, NUM_REGIONS + 1)}

#: The mask that recovers an allocation base in each region, by region
#: index up to the last low-fat region: region 0 keeps no bit, so its
#: addresses recover ``NO_BASE``, as addresses past the regions do.
BASE_MASKS = [0] + [~(allocation_size(r) - 1)
                    for r in range(1, NUM_REGIONS + 1)]


def base_of(address: int) -> int:
    """Recover the allocation base from a pointer value (Figure 4)."""
    if address >= LOWFAT_END:
        return NO_BASE
    return address & BASE_MASKS[address >> REGION_SHIFT]


def size_of_pointer(address: int) -> int:
    """Recover the (padded) allocation size from a pointer value."""
    return CLASS_SIZES.get(address >> REGION_SHIFT, 0)
