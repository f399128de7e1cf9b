"""Section 5.3 statistics: effect of the static check eliminations.

For each benchmark, two layers of static check removal:

* the *dominance* filter (paper Section 5.3: between 8% for 177mesa
  and 50% for 256bzip2 of the statically gathered checks), and
* the *value-range* filter stacked on top of it (``-mi-opt-ranges``):
  checks whose pointer provably stays inside its allocation on every
  execution, discharged by the interprocedural range / provenance
  analysis of :mod:`repro.analysis.ranges`, and
* the *loop hoist / coalesce* transform stacked on both
  (``-mi-opt-hoist``): per-iteration checks of counted loops replaced
  by one widened preheader check, plus block-level coalescing of
  consecutive same-object checks.

Static columns count gathered checks, checks each layer removes /
replaces, and the cumulative reduction percentage; the ``provable``
column reports the share of gathered checks the range analysis proved
safe (static verdicts); the dynamic columns report how many checks
actually execute under each configuration, plus the runtime overhead
of each (paper: minor deltas for the dominance filter, because the
compiler removes dominated duplicate checks on its own).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..workloads import Workload, all_workloads
from .common import JobRequest, Runner, config_for, format_table, geomean

LABELS = ("softbound", "softbound-unopt", "softbound-ranges",
          "softbound-hoist",
          "lowfat", "lowfat-unopt", "lowfat-ranges", "lowfat-hoist")


def requests(workloads: Optional[Sequence[Workload]] = None) -> List[JobRequest]:
    workloads = all_workloads() if workloads is None else list(workloads)
    return [JobRequest(workload, config_for(label))
            for workload in workloads for label in LABELS]


def generate(runner: Runner = None,
             workloads: Optional[Sequence[Workload]] = None) -> str:
    runner = runner or Runner()
    workloads = all_workloads() if workloads is None else list(workloads)
    runner.prefetch(requests(workloads))
    headers = ["benchmark", "checks", "dom", "dom %", "ranges", "hoist",
               "total %", "provable",
               "dyn dom", "dyn ranges", "dyn hoist",
               "SB unopt", "SB opt", "SB rng", "SB hoist",
               "LF opt", "LF rng", "LF hoist"]
    rows: List[List[str]] = []
    dom_fractions = []
    range_extra = 0
    range_workloads = 0
    hoist_extra = 0
    hoist_workloads = 0
    hoist_dyn_wins = 0
    for workload in workloads:
        opt = runner.run(workload, "softbound")
        rng = runner.run(workload, "softbound-ranges")
        hoist = runner.run(workload, "softbound-hoist")
        static = rng.static
        hstatic = hoist.static
        dom_fraction = 100.0 * static.filtered_fraction
        total_fraction = (dom_fraction
                          + 100.0 * hstatic.range_filtered_fraction
                          + 100.0 * hstatic.hoisted_fraction)
        dom_fractions.append(dom_fraction)
        if static.range_filtered_checks:
            range_extra += static.range_filtered_checks
            range_workloads += 1
        replaced = hstatic.hoisted_checks + hstatic.coalesced_checks
        if replaced:
            hoist_extra += replaced
            hoist_workloads += 1
        if hoist.checks_executed < rng.checks_executed:
            hoist_dyn_wins += 1
        rows.append([
            workload.name,
            str(static.gathered_checks),
            str(static.filtered_checks),
            f"{dom_fraction:.1f}%",
            str(static.range_filtered_checks),
            str(replaced),
            f"{total_fraction:.1f}%",
            f"{100.0 * hstatic.proven_safe_fraction:.0f}%",
            str(opt.checks_executed),
            str(rng.checks_executed),
            str(hoist.checks_executed),
            f"{runner.overhead(workload, 'softbound-unopt'):.2f}x",
            f"{runner.overhead(workload, 'softbound'):.2f}x",
            f"{runner.overhead(workload, 'softbound-ranges'):.2f}x",
            f"{runner.overhead(workload, 'softbound-hoist'):.2f}x",
            f"{runner.overhead(workload, 'lowfat'):.2f}x",
            f"{runner.overhead(workload, 'lowfat-ranges'):.2f}x",
            f"{runner.overhead(workload, 'lowfat-hoist'):.2f}x",
        ])
    table = format_table(headers, rows)
    lo, hi = min(dom_fractions), max(dom_fractions)
    return (
        "Section 5.3: static check elimination "
        "(dominance filter + value-range filter + loop hoisting)\n"
        f"(dominance removes {lo:.0f}%..{hi:.0f}% of static checks; "
        f"the range filter removes {range_extra} more "
        f"on {range_workloads}/{len(workloads)} benchmarks; "
        f"hoisting/coalescing replaces {hoist_extra} more "
        f"on {hoist_workloads}/{len(workloads)}, reducing executed "
        f"checks on {hoist_dyn_wins}/{len(workloads)}; "
        "runtime impact is minor)\n\n" + table
    )


def main() -> None:
    print(generate())


if __name__ == "__main__":
    main()
