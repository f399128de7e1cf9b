"""MemInstrument: the instrumentation pass orchestrator.

Runs the framework stages of paper Section 3 over a module:

1. **prepare** -- mechanism-specific rewriting (runtime declarations,
   allocator redirection, Low-Fat alloca replacement);
2. **gather**  -- collect the approach-independent ITargets (Table 1);
3. **filter**  -- approach-independent check optimizations (the
   dominance-based elimination of Section 5.3, when enabled);
4. **lower**   -- the framework propagates witnesses and places the
   checks; the mechanism supplies witness sources and lowers the
   invariant targets (:mod:`.mechanism`).

A pass's ``run`` is the callback that plugs it into any of the
compiler pipeline's extension points (Figure 8); the pass keeps the
static statistics, check sites and verdicts of its module.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.induction import CountedLoops
from ..analysis.ranges import FunctionRangeAnalysis, ReturnSummaries
from ..ir.module import Function, Module
from ..ir.verifier import verify_module
from .config import InstrumentationConfig
from .filters import check_verdicts, dominance_filter, hoist_filter, range_filter
from .gather import gather_function_targets
from .itarget import CheckSiteInfo, TargetKind, TargetStatistics
from .mechanism import InstrumentationMechanism, create_mechanism


class MemInstrumentPass:
    """The instrumentation as a reusable pass object.

    After :meth:`run`, ``statistics`` holds the per-module static
    counts (gathered/filtered/emitted targets per kind)."""

    def __init__(self, config: InstrumentationConfig, verify: bool = False,
                 collect_verdicts: bool = False):
        self.config = config
        self.verify = verify
        #: Force static-verdict computation even when no range-based
        #: filter is enabled (``repro profile`` joins verdicts against
        #: dynamic counts regardless of the profiled configuration).
        self.collect_verdicts = collect_verdicts
        self.statistics = TargetStatistics()
        self.per_function: Dict[str, TargetStatistics] = {}
        #: site id -> static provenance of the emitted check (joined
        #: with the dynamic per-site counters by ``repro profile``).
        self.check_sites: Dict[str, CheckSiteInfo] = {}
        #: site id -> static safety verdict ("proven-safe" /
        #: "proven-violating" / "unknown") over the *gathered* checks,
        #: populated whenever the range analysis runs; ``repro lint``
        #: and ``repro profile`` join against it.
        self.check_verdicts: Dict[str, str] = {}

    def run(self, module: Module) -> None:
        mechanism = create_mechanism(self.config)
        if mechanism is None:
            return
        mechanism.prepare_module(module)
        # One summary table serves the whole module: the range filter's
        # interprocedural component memoizes per-callee return ranges.
        needs_ranges = (self.config.opt_ranges or self.config.opt_hoist
                        or self.collect_verdicts)
        summaries = ReturnSummaries(module) if needs_ranges else None
        for fn in list(module.functions.values()):
            if fn.native or fn.is_declaration:
                continue
            if "mi_ignore" in fn.attributes:
                continue
            self._instrument_function(mechanism, fn, summaries)
        self.check_sites.update(mechanism.site_infos)
        if self.verify:
            verify_module(module)

    def _instrument_function(
        self,
        mechanism: InstrumentationMechanism,
        fn: Function,
        summaries: Optional[ReturnSummaries] = None,
    ) -> None:
        mechanism.prepare_function(fn)
        targets = gather_function_targets(fn)
        stats = TargetStatistics()
        for target in targets:
            stats.count(target)
        # One range analysis and one loop model (with the function's
        # one dominator tree) serve the static verdicts and every
        # filter.  ``summaries`` is set whenever they are asked for;
        # they decide only about dereference checks, so a function
        # without one needs neither.
        loops: Optional[CountedLoops] = None
        if summaries is not None and any(
                t.kind == TargetKind.CHECK_DEREF for t in targets):
            loops = CountedLoops(FunctionRangeAnalysis(fn, summaries))
            verdicts = check_verdicts(targets, loops)
            self.check_verdicts.update(verdicts)
            for verdict in verdicts.values():
                stats.verdicts[verdict] = stats.verdicts.get(verdict, 0) + 1
        if self.config.opt_dominance:
            targets, removed = dominance_filter(fn, targets, loops)
            stats.filtered_checks = removed
        if self.config.opt_ranges and loops is not None:
            targets, removed = range_filter(targets, loops.analysis)
            stats.range_filtered_checks = removed
        if (self.config.opt_hoist and self.config.insert_deref_checks
                and loops is not None):
            targets, hoisted, coalesced, synthesized = hoist_filter(
                fn, targets, loops)
            stats.hoisted_checks = hoisted
            stats.coalesced_checks = coalesced
            stats.synthesized_checks = synthesized
        mechanism.instrument_function(fn, targets)
        self.per_function[fn.name] = stats
        self.statistics.merge(stats)


def instrument_module(
    module: Module, config: InstrumentationConfig, verify: bool = False
) -> MemInstrumentPass:
    """Instrument a module in place; returns the pass (for statistics)."""
    pass_ = MemInstrumentPass(config, verify)
    pass_.run(module)
    return pass_

