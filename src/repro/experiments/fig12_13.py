"""Figures 12 and 13: impact of the compiler-pipeline extension point.

Each approach instrumented at the three extension points of the
pipeline (paper Figure 8):

* ``ModuleOptimizerEarly`` -- before the main scalar optimizations;
* ``ScalarOptimizerLate``  -- after them;
* ``VectorizerStart``      -- after all mid-end optimization.

Expected shape (paper Section 5.5): early instrumentation is ~30%
slower -- the may-abort checks block LICM and load CSE on code that the
optimizer has not cleaned up yet, and more memory accesses exist to be
checked; the two late points are comparable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..opt.pipeline import EXTENSION_POINTS
from ..workloads import Workload, all_workloads
from .common import JobRequest, Runner, config_for, format_table, geomean


def requests_for(approach: str,
                 workloads: Optional[Sequence[Workload]] = None
                 ) -> List[JobRequest]:
    workloads = all_workloads() if workloads is None else list(workloads)
    return [JobRequest(workload, config_for(approach), extension_point=ep)
            for workload in workloads for ep in EXTENSION_POINTS]


def requests(workloads: Optional[Sequence[Workload]] = None) -> List[JobRequest]:
    return (requests_for("softbound", workloads)
            + requests_for("lowfat", workloads))


def collect(runner: Runner, approach: str,
            workloads: Optional[Sequence[Workload]] = None
            ) -> Dict[str, Dict[str, float]]:
    workloads = all_workloads() if workloads is None else list(workloads)
    runner.prefetch(requests_for(approach, workloads))
    data: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        data[workload.name] = {
            ep: runner.overhead(workload, approach, extension_point=ep)
            for ep in EXTENSION_POINTS
        }
    return data


def generate_for(approach: str, figure: str, runner: Runner = None,
                 workloads: Optional[Sequence[Workload]] = None) -> str:
    runner = runner or Runner()
    data = collect(runner, approach, workloads)
    headers = ["benchmark"] + list(EXTENSION_POINTS)
    rows: List[List[str]] = []
    for name, d in data.items():
        rows.append([name] + [f"{d[ep]:.2f}x" for ep in EXTENSION_POINTS])
    rows.append(["geomean"] + [
        f"{geomean(d[ep] for d in data.values()):.2f}x"
        for ep in EXTENSION_POINTS
    ])
    title = (
        f"Figure {figure}: {approach} overhead vs -O3 at the three "
        "pipeline extension points"
    )
    return title + "\n\n" + format_table(headers, rows)


def generate_fig12(runner: Runner = None,
                   workloads: Optional[Sequence[Workload]] = None) -> str:
    return generate_for("softbound", "12", runner, workloads)


def generate_fig13(runner: Runner = None,
                   workloads: Optional[Sequence[Workload]] = None) -> str:
    return generate_for("lowfat", "13", runner, workloads)


def main() -> None:
    runner = Runner()
    print(generate_fig12(runner))
    print()
    print(generate_fig13(runner))


if __name__ == "__main__":
    main()
