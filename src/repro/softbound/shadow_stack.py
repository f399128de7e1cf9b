"""SoftBound's shadow stack.

Propagates (base, bound) metadata across function calls (Nagarakatte's
dissertation, Section 3.2 of the paper): before a call, the caller
pushes a frame with one slot per pointer argument; the callee reads its
argument bounds from the frame; pointer return values travel through a
dedicated return slot.

The shadow stack is modelled as what it really is -- raw memory that is
never cleared:

* Slots of a fresh frame alias whatever an earlier, deeper frame left
  there, so a callee that reads bounds its caller never pushed (an
  *uninstrumented* caller) gets **stale garbage**, not an error.
* The return slot keeps its previous content when a callee does not
  write it, which is exactly how calls into uninstrumented libraries
  produce outdated bounds (paper Section 4.3).
"""

from __future__ import annotations

from typing import List, Tuple

#: Wide bounds: base 0, bound 2^64-1 -- every access passes the check.
WIDE_BASE = 0
WIDE_BOUND = (1 << 64) - 1


class ShadowStack:
    def __init__(self) -> None:
        # Raw slot memory; grows but is never cleared (stale reads are
        # a feature of the model).
        self._slots: List[Tuple[int, int]] = []
        self._frame_starts: List[int] = []
        self._sp = 0
        self.ret_base = WIDE_BASE
        self.ret_bound = WIDE_BOUND

    @property
    def depth(self) -> int:
        return len(self._frame_starts)

    def enter(self, nslots: int) -> None:
        """Push a frame with ``nslots`` argument slots (not cleared)."""
        self._frame_starts.append(self._sp)
        self._sp += nslots
        while len(self._slots) < self._sp:
            self._slots.append((WIDE_BASE, WIDE_BOUND))

    def exit(self) -> None:
        if self._frame_starts:
            self._sp = self._frame_starts.pop()

    def set_slot(self, index: int, base: int, bound: int) -> None:
        if not self._frame_starts:
            return
        slot = self._frame_starts[-1] + index
        if slot < len(self._slots):
            self._slots[slot] = (base, bound)

    def get_slot(self, index: int) -> Tuple[int, int]:
        """Read an argument slot.  Without a frame (e.g. ``main``), or
        out of range, wide bounds are returned."""
        if not self._frame_starts:
            return (WIDE_BASE, WIDE_BOUND)
        slot = self._frame_starts[-1] + index
        if slot >= len(self._slots):
            return (WIDE_BASE, WIDE_BOUND)
        return self._slots[slot]

    def set_ret(self, base: int, bound: int) -> None:
        self.ret_base = base
        self.ret_bound = bound

    def get_ret(self) -> Tuple[int, int]:
        return (self.ret_base, self.ret_bound)
