"""SoftBound's disjoint metadata store.

Maps *pointer locations* (the address a pointer value is stored at) to
the (base, bound) metadata of the pointer stored there.  Nagarakatte et
al. organise it as a two-level trie, a primary table indexed by the
high bits of the location and secondary tables by the low bits; here it
is one dict keyed by 8-byte slot (``location >> SLOT_SHIFT``), because
the split is not observable: the cycles a trie access costs come from
the cost model (``vm/costs.py``), not from this structure.  The dict is
``slots``, which the runtime's natives read and write inline in
generated code (``softbound/runtime.py``); it is never rebound.

The key property the paper's usability analysis rests on is that the
trie is updated **only** by instrumented pointer-typed stores and the
wrappers' ``copy_metadata``.  Integer-obfuscated pointer stores
(Figure 7) and byte-wise copies (Section 4.5) bypass it, leaving stale
entries behind -- this module faithfully exhibits that behaviour
because it never observes raw memory traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

SLOT_SHIFT = 3              # metadata per 8-byte-aligned slot


class MetadataTrie:
    def __init__(self) -> None:
        #: (base, bound) by slot, ``location >> SLOT_SHIFT``.
        self.slots: Dict[int, Tuple[int, int]] = {}

    def store(self, location: int, base: int, bound: int) -> None:
        """Record metadata for the pointer stored at ``location``."""
        self.slots[location >> SLOT_SHIFT] = (base, bound)

    def load(self, location: int) -> Optional[Tuple[int, int]]:
        """Metadata for the pointer stored at ``location``, or None if
        no instrumented store ever wrote this slot."""
        return self.slots.get(location >> SLOT_SHIFT)

    def copy_range(self, dest: int, src: int, nbytes: int) -> int:
        """``copy_metadata`` of the memcpy/memmove wrappers (paper
        Figure 6): copy the metadata of every slot in
        [src, src+nbytes) to the corresponding slot of dest.  Returns
        the number of entries copied.

        Two properties must hold for the wrapper to be faithful:

        * **memmove direction** -- when the ranges overlap with
          dest > src, an ascending walk reads slots the copy already
          overwrote, propagating one entry across the whole range;
          the walk must run descending in that case (and ascending
          for dest < src), exactly like ``memmove`` on the bytes.
        * **stale-slot clearing** -- a destination slot whose source
          slot carries no metadata must be *cleared*: the bytes of a
          previously-stored pointer were just overwritten, so leaving
          its old trie entry behind resurrects dangling bounds
          (paper Section 4.5).
        """
        slots = self.slots
        copied = 0
        # Iterate 8-byte slots covered by the range, in memmove order.
        first_slot = src >> SLOT_SHIFT
        last_slot = (src + max(nbytes, 1) - 1) >> SLOT_SHIFT
        walk = range(first_slot, last_slot + 1)
        if dest > src:
            walk = reversed(walk)
        for slot in walk:
            entry = slots.get(slot)
            dest_slot = (dest + (slot << SLOT_SHIFT) - src) >> SLOT_SHIFT
            if entry is not None:
                slots[dest_slot] = entry
                copied += 1
            else:
                slots.pop(dest_slot, None)
        return copied

    @property
    def entry_count(self) -> int:
        return len(self.slots)
