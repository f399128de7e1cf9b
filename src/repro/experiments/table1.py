"""Table 1 counterpart: instrumentation locations per task.

The paper's Table 1 is qualitative (which IR locations each approach
instruments for which task).  This experiment makes it quantitative
over our workloads: for every benchmark, the number of gathered
instrumentation targets per kind (dereference checks, store/call/
return/cast invariants), which are exactly the rows of Table 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.itarget import TargetKind
from ..workloads import Workload, all_workloads
from .common import JobRequest, Runner, config_for, format_table

KIND_COLUMNS = [
    (TargetKind.CHECK_DEREF, "deref checks"),
    (TargetKind.INVARIANT_STORE, "store inv"),
    (TargetKind.INVARIANT_CALL, "call inv"),
    (TargetKind.INVARIANT_RET, "ret inv"),
    (TargetKind.INVARIANT_CAST, "cast inv"),
]


def requests(workloads: Optional[Sequence[Workload]] = None) -> List[JobRequest]:
    workloads = all_workloads() if workloads is None else list(workloads)
    return [JobRequest(workload, config_for("softbound"))
            for workload in workloads]


def generate(runner: Runner = None,
             workloads: Optional[Sequence[Workload]] = None) -> str:
    runner = runner or Runner()
    workloads = all_workloads() if workloads is None else list(workloads)
    runner.prefetch(requests(workloads))
    headers = ["benchmark"] + [label for _, label in KIND_COLUMNS] + ["total"]
    rows: List[List[str]] = []
    for workload in workloads:
        result = runner.run(workload, "softbound")
        by_kind = result.static.by_kind
        counts = [by_kind.get(kind, 0) for kind, _ in KIND_COLUMNS]
        rows.append([workload.name] + [str(c) for c in counts]
                    + [str(sum(counts))])
    table = format_table(headers, rows)
    return (
        "Table 1 counterpart: static instrumentation targets per task\n"
        "(gathered by the shared framework before filtering)\n\n" + table
    )


def main() -> None:
    print(generate())


if __name__ == "__main__":
    main()
