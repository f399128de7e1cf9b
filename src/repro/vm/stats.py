"""Execution statistics.

The harness derives every number in the paper's evaluation from these
counters:

* ``cycles`` -- the deterministic runtime measure (Figures 9-13).
* ``checks_executed`` / ``checks_wide`` -- the dynamic dereference-check
  classification behind Table 2 ("number of unsafe dereferences in %").
* ``invariant_checks`` -- Low-Fat escape checks (Figure 11's
  metadata-only configuration).
* ``metadata_ops`` -- trie and shadow-stack traffic (Section 5.4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class RuntimeStats:
    cycles: int = 0
    instructions: int = 0
    opcode_counts: Counter = field(default_factory=Counter)

    loads: int = 0
    stores: int = 0
    calls: int = 0

    # dereference checks (Table 2, Section 4.6)
    checks_executed: int = 0
    checks_wide: int = 0

    # Low-Fat escape-invariant checks
    invariant_checks: int = 0

    # SoftBound metadata traffic
    trie_loads: int = 0
    trie_stores: int = 0
    shadow_stack_ops: int = 0

    # allocator traffic
    heap_allocs: int = 0
    heap_frees: int = 0
    lowfat_allocs: int = 0
    lowfat_fallback_allocs: int = 0

    per_site: Dict[str, Counter] = field(default_factory=dict)

    # Opt-in profiling (``repro profile``).  When ``profile`` is off the
    # extra per-site fields are never touched, so aggregates stay
    # bit-identical to unprofiled runs; when it is on, per-site cycle
    # attribution and dynamic wide-bounds reasons are collected too.
    profile: bool = False
    instrumentation_cycles: int = 0

    def charge(self, opcode: str, cycles: int) -> None:
        self.cycles += cycles
        self.instructions += 1
        self.opcode_counts[opcode] += 1

    def _site(self, site: str) -> Counter:
        counter = self.per_site.get(site)
        if counter is None:
            counter = self.per_site[site] = Counter()
        return counter

    def record_check(
        self,
        site: str,
        wide: bool,
        cost: int = 0,
        reason: str = None,
    ) -> None:
        """One dereference check, as the tree-walker executes it."""
        self.record_checks(site, 1, cost)
        if wide:
            self.record_wide(site, 1)
            if self.profile and reason is not None:
                self.record_reason(site, reason)

    def record_invariant(self, site: str, cost: int = 0) -> None:
        """One escape-invariant check, as the tree-walker executes it."""
        self.record_invariants(site, 1, cost)

    # Counts in bulk: the codegen tier folds its checks' executions from
    # block counts, ``n > 0`` of them at a time, so no per-site counter
    # gains a zero entry.
    def record_checks(self, site: str, n: int, cost: int = 0) -> None:
        self.checks_executed += n
        counter = self._site(site)
        counter["executed"] += n
        if self.profile:
            counter["cycles"] += n * cost

    def record_wide(self, site: str, n: int) -> None:
        self.checks_wide += n
        self._site(site)["wide"] += n

    def record_reason(self, site: str, reason: str) -> None:
        """Why one wide check was wide (profiling only)."""
        self._site(site)["reason:" + reason] += 1

    def record_invariants(self, site: str, n: int, cost: int = 0) -> None:
        self.invariant_checks += n
        if self.profile:
            counter = self._site(site)
            counter["invariant"] += n
            counter["cycles"] += n * cost

    @property
    def unsafe_percent(self) -> float:
        """Percentage of executed dereference checks that used wide
        (unchecked) bounds -- the quantity in the paper's Table 2."""
        if self.checks_executed == 0:
            return 0.0
        return 100.0 * self.checks_wide / self.checks_executed

    def summary(self) -> str:
        lines = [
            f"cycles:            {self.cycles}",
            f"instructions:      {self.instructions}",
            f"loads/stores:      {self.loads}/{self.stores}",
            f"deref checks:      {self.checks_executed} "
            f"({self.checks_wide} wide, {self.unsafe_percent:.2f}%)",
            f"invariant checks:  {self.invariant_checks}",
            f"trie ops:          {self.trie_loads} loads, {self.trie_stores} stores",
            f"shadow stack ops:  {self.shadow_stack_ops}",
            f"heap allocs/frees: {self.heap_allocs}/{self.heap_frees}",
            f"low-fat allocs:    {self.lowfat_allocs} "
            f"({self.lowfat_fallback_allocs} fell back to standard malloc)",
        ]
        if self.profile:
            pct = (100.0 * self.instrumentation_cycles / self.cycles
                   if self.cycles else 0.0)
            lines.append(
                f"instr. cycles:     {self.instrumentation_cycles} "
                f"({pct:.2f}% of total)"
            )
        return "\n".join(lines)
