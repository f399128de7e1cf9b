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

Its state is three plain lists, which the runtime's natives also index
inline in generated code (``softbound/runtime.py``), so they are only
ever mutated, never rebound:

* ``slots`` -- the raw slot memory, one (base, bound) pair per slot; it
  grows to the deepest frame's end and is never cleared;
* ``marks`` -- frame boundaries: a start past every slot (the "frame"
  of code that no caller pushed one for), then 0, then the end of each
  live frame.  The current frame is ``slots[marks[-2]:marks[-1]]``, so
  a read with no frame, or past the slots, gives wide bounds, and a
  write there is dropped;
* ``ret`` -- the return slot, one (base, bound) pair.
"""

from __future__ import annotations

from typing import List, Tuple

#: Wide bounds: base 0, bound 2^64-1 -- every access passes the check.
WIDE_BASE = 0
WIDE_BOUND = (1 << 64) - 1
WIDE = (WIDE_BASE, WIDE_BOUND)
#: The start of the frame no caller pushed: past any slot a list holds.
NO_FRAME = 1 << 63


class ShadowStack:
    def __init__(self) -> None:
        self.slots: List[Tuple[int, int]] = []
        self.marks: List[int] = [NO_FRAME, 0]
        self.ret: List[Tuple[int, int]] = [WIDE]

    @property
    def depth(self) -> int:
        return len(self.marks) - 2

    def enter(self, nslots: int) -> None:
        """Push a frame with ``nslots`` argument slots (not cleared)."""
        marks = self.marks
        marks.append(marks[-1] + nslots)
        self.slots.extend([WIDE] * (marks[-1] - len(self.slots)))

    def exit(self) -> None:
        if len(self.marks) > 2:
            self.marks.pop()

    def set_slot(self, index: int, base: int, bound: int) -> None:
        slot = self.marks[-2] + index
        if slot < len(self.slots):
            self.slots[slot] = (base, bound)

    def get_slot(self, index: int) -> Tuple[int, int]:
        """Read an argument slot.  Without a frame (e.g. ``main``), or
        out of range, wide bounds are returned."""
        slot = self.marks[-2] + index
        return self.slots[slot] if slot < len(self.slots) else WIDE

    def set_ret(self, base: int, bound: int) -> None:
        self.ret[0] = (base, bound)

    def get_ret(self) -> Tuple[int, int]:
        return self.ret[0]
