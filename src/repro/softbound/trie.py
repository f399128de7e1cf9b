"""SoftBound's disjoint metadata store: a two-level trie.

Maps *pointer locations* (the address a pointer value is stored at) to
the (base, bound) metadata of the pointer stored there, following
Nagarakatte et al.'s trie organization: the primary table is indexed by
the high bits of the location, secondary tables by the low bits.

The key property the paper's usability analysis rests on is that the
trie is updated **only** by instrumented pointer-typed stores and the
wrappers' ``copy_metadata``.  Integer-obfuscated pointer stores
(Figure 7) and byte-wise copies (Section 4.5) bypass it, leaving stale
entries behind -- this module faithfully exhibits that behaviour
because it never observes raw memory traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

PRIMARY_SHIFT = 22          # bits covered by a secondary table
SECONDARY_MASK = (1 << PRIMARY_SHIFT) - 1
SLOT_SHIFT = 3              # metadata per 8-byte-aligned slot


class MetadataTrie:
    def __init__(self) -> None:
        self._primary: Dict[int, Dict[int, Tuple[int, int]]] = {}

    @staticmethod
    def _split(location: int) -> Tuple[int, int]:
        slot = location >> SLOT_SHIFT
        return slot >> (PRIMARY_SHIFT - SLOT_SHIFT), slot & (
            (1 << (PRIMARY_SHIFT - SLOT_SHIFT)) - 1
        )

    def store(self, location: int, base: int, bound: int) -> None:
        """Record metadata for the pointer stored at ``location``."""
        hi, lo = self._split(location)
        secondary = self._primary.get(hi)
        if secondary is None:
            secondary = {}
            self._primary[hi] = secondary
        secondary[lo] = (base, bound)

    def load(self, location: int) -> Optional[Tuple[int, int]]:
        """Metadata for the pointer stored at ``location``, or None if
        no instrumented store ever wrote this slot."""
        hi, lo = self._split(location)
        secondary = self._primary.get(hi)
        if secondary is None:
            return None
        return secondary.get(lo)

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
        copied = 0
        # Iterate 8-byte slots covered by the range, in memmove order.
        first_slot = src >> SLOT_SHIFT
        last_slot = (src + max(nbytes, 1) - 1) >> SLOT_SHIFT
        slots = range(first_slot, last_slot + 1)
        if dest > src:
            slots = reversed(slots)
        for slot in slots:
            location = slot << SLOT_SHIFT
            entry = self.load(location)
            dest_location = dest + (location - src)
            if entry is not None:
                self.store(dest_location, *entry)
                copied += 1
            else:
                self._clear(dest_location)
        return copied

    def _clear(self, location: int) -> None:
        hi, lo = self._split(location)
        secondary = self._primary.get(hi)
        if secondary is not None:
            secondary.pop(lo, None)

    @property
    def entry_count(self) -> int:
        return sum(len(s) for s in self._primary.values())
