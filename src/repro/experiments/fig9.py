"""Figure 9: execution time comparison of SoftBound and Low-Fat.

Runtime overheads normalized to the uninstrumented -O3 build, both
approaches with the dominance check elimination, instrumented at
extension point VectorizerStart (the paper's Figure 9 setting).

Expected shape: comparable means (paper: SB 1.74x, LF 1.77x) with wide
per-benchmark variation; Low-Fat wins on the pointer-loading hot loop
of 183equake, SoftBound wins on check-dense 186crafty.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..workloads import Workload, all_workloads
from .common import JobRequest, Runner, config_for, format_table, geomean


def requests(workloads: Optional[Sequence[Workload]] = None) -> List[JobRequest]:
    workloads = all_workloads() if workloads is None else list(workloads)
    return [JobRequest(workload, config_for(label))
            for workload in workloads for label in ("softbound", "lowfat")]


def collect(runner: Runner = None,
            workloads: Optional[Sequence[Workload]] = None
            ) -> Dict[str, Dict[str, float]]:
    runner = runner or Runner()
    workloads = all_workloads() if workloads is None else list(workloads)
    runner.prefetch(requests(workloads))
    data: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        data[workload.name] = {
            "softbound": runner.overhead(workload, "softbound"),
            "lowfat": runner.overhead(workload, "lowfat"),
        }
    return data


def generate(runner: Runner = None,
             workloads: Optional[Sequence[Workload]] = None) -> str:
    runner = runner or Runner()
    data = collect(runner, workloads)
    headers = ["benchmark", "SoftBound", "Low-Fat"]
    rows: List[List[str]] = []
    for name, overheads in data.items():
        rows.append([name, f"{overheads['softbound']:.2f}x",
                     f"{overheads['lowfat']:.2f}x"])
    rows.append(["geomean",
                 f"{geomean(v['softbound'] for v in data.values()):.2f}x",
                 f"{geomean(v['lowfat'] for v in data.values()):.2f}x"])
    table = format_table(headers, rows)
    return (
        "Figure 9: execution time overhead vs uninstrumented -O3\n"
        "(optimized configs, extension point VectorizerStart)\n\n" + table
    )


def main() -> None:
    print(generate())


if __name__ == "__main__":
    main()
