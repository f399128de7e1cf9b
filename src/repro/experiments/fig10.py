"""Figure 10: SoftBound -- optimized vs unoptimized vs metadata only.

Three configurations per benchmark, normalized to -O3:

* *optimized*   -- full checks + dominance check elimination;
* *unoptimized* -- full checks, no filter;
* *metadata*    -- ``-mi-mode=geninvariants``: only metadata
  propagation (trie + shadow stack), no dereference checks.

Expected shape (paper Section 5.3/5.4): the dominance optimization has
minor runtime impact (the compiler removes dominated duplicates
anyway); metadata-only overhead is low for most benchmarks but
*dominates* for trie-heavy ones (197parser, 464h264ref); 183equake's
metadata-only cost is deceptively low because unused trie loads are
removed by dead-code elimination.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..workloads import Workload, all_workloads
from .common import JobRequest, Runner, config_for, format_table, geomean

APPROACH = "softbound"


def requests_for(approach: str,
                 workloads: Optional[Sequence[Workload]] = None
                 ) -> List[JobRequest]:
    workloads = all_workloads() if workloads is None else list(workloads)
    labels = (approach, f"{approach}-unopt", f"{approach}-meta")
    return [JobRequest(workload, config_for(label))
            for workload in workloads for label in labels]


def requests(workloads: Optional[Sequence[Workload]] = None) -> List[JobRequest]:
    return requests_for(APPROACH, workloads)


def collect(runner: Runner, approach: str,
            workloads: Optional[Sequence[Workload]] = None
            ) -> Dict[str, Dict[str, float]]:
    workloads = all_workloads() if workloads is None else list(workloads)
    runner.prefetch(requests_for(approach, workloads))
    data: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        data[workload.name] = {
            "optimized": runner.overhead(workload, approach),
            "unoptimized": runner.overhead(workload, f"{approach}-unopt"),
            "metadata": runner.overhead(workload, f"{approach}-meta"),
        }
    return data


def generate_for(approach: str, title: str, runner: Runner = None,
                 workloads: Optional[Sequence[Workload]] = None) -> str:
    runner = runner or Runner()
    data = collect(runner, approach, workloads)
    headers = ["benchmark", "optimized", "unoptimized", "metadata only"]
    rows: List[List[str]] = []
    for name, d in data.items():
        rows.append([name, f"{d['optimized']:.2f}x", f"{d['unoptimized']:.2f}x",
                     f"{d['metadata']:.2f}x"])
    rows.append([
        "geomean",
        f"{geomean(d['optimized'] for d in data.values()):.2f}x",
        f"{geomean(d['unoptimized'] for d in data.values()):.2f}x",
        f"{geomean(d['metadata'] for d in data.values()):.2f}x",
    ])
    return title + "\n\n" + format_table(headers, rows)


def generate(runner: Runner = None,
             workloads: Optional[Sequence[Workload]] = None) -> str:
    return generate_for(
        APPROACH,
        "Figure 10: SoftBound optimized / unoptimized / metadata-only "
        "overhead vs -O3",
        runner,
        workloads,
    )


def main() -> None:
    print(generate())


if __name__ == "__main__":
    main()
