"""Table 2: number of unsafe (wide-bounds) dereferences in percent.

For each benchmark and approach, the percentage of dynamically executed
dereference checks that had to use *wide* bounds -- i.e. could not
actually be checked (paper Section 4.6).  Benchmarks containing
size-zero (size-less extern) array declarations are marked **bold** in
the paper; an asterisk marks benchmarks with not a single wide check.

Expected shape (paper): almost all benchmarks fully checked; 164gzip
suffers ~62% unchecked under SoftBound (size-less arrays everywhere),
429mcf ~54% unchecked under Low-Fat (one >1 GiB allocation).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..workloads import Workload, all_workloads
from .common import (
    MAX_INSTRUCTIONS,
    JobRequest,
    Runner,
    config_for,
    format_table,
)


def _cell(percent: float, wide_count: int) -> str:
    star = "*" if wide_count == 0 else ""
    return f"{percent:.2f}{star}"


def requests(workloads: Optional[Sequence[Workload]] = None) -> List[JobRequest]:
    workloads = all_workloads() if workloads is None else list(workloads)
    return [JobRequest(workload, config_for(label))
            for workload in workloads for label in ("softbound", "lowfat")]


def generate(runner: Runner = None,
             workloads: Optional[Sequence[Workload]] = None) -> str:
    runner = runner or Runner()
    workloads = all_workloads() if workloads is None else list(workloads)
    runner.prefetch(requests(workloads))
    headers = ["benchmark", "SB %", "LF %", "size-zero decls"]
    rows: List[List[str]] = []
    for workload in workloads:
        sb = runner.run(workload, "softbound")
        lf = runner.run(workload, "lowfat")
        rows.append([
            workload.name,
            _cell(sb.unsafe_percent, sb.checks_wide),
            _cell(lf.unsafe_percent, lf.checks_wide),
            "yes" if workload.has_size_zero_arrays else "",
        ])
    table = format_table(headers, rows)
    return (
        "Table 2: unsafe dereferences in % (dynamic checks with wide "
        "bounds)\n(* = zero wide-bounds checks; 'yes' marks the paper's "
        "bold size-zero-array benchmarks)\n\n" + table
        + "\n\n" + _attribution_section(runner, workloads)
    )


def _attribution_section(runner: Runner, workloads: Sequence[Workload],
                         top_sites: int = 3) -> str:
    """Measured wide-bounds attribution for every starred cell.

    Cells with wide checks are re-run *fresh* with profiling on (the
    cached results must stay bit-identical to unprofiled runs, so
    profiled runs never go through the experiment cache) and the
    per-site reasons are aggregated via :mod:`repro.profiling`.
    """
    from ..driver import CompileOptions, compile_program, run_program
    from ..profiling import build_profile

    rows: List[List[str]] = []
    for workload in workloads:
        for label in ("softbound", "lowfat"):
            cached = runner.run(workload, label)
            if cached.checks_wide == 0:
                continue
            options = CompileOptions(
                obfuscate_pointer_copies=tuple(workload.obfuscated_units),
            )
            program = compile_program(
                workload.sources, config_for(label), options)
            run = run_program(program, max_instructions=MAX_INSTRUCTIONS,
                              profile=True)
            profile = build_profile(program, run)
            total_wide = profile["totals"]["checks_wide"]
            for site in profile["wide_sites"][:top_sites]:
                for reason, count in sorted(site["reasons"].items(),
                                            key=lambda kv: -kv[1]):
                    share = (100.0 * count / total_wide
                             if total_wide else 0.0)
                    rows.append([
                        workload.name,
                        label,
                        site["site"],
                        "-" if site["line"] is None else str(site["line"]),
                        reason,
                        str(count),
                        f"{share:.1f}%",
                    ])
    if not rows:
        return ("Wide-bounds attribution: no benchmark executed a "
                "wide-bounds check.")
    table = format_table(
        ["benchmark", "approach", "site", "line", "reason", "wide",
         "% of wide"],
        rows,
    )
    return (
        "Wide-bounds attribution (measured, per static check site; "
        f"top {top_sites} sites per cell with wide checks):\n\n" + table
    )


def main() -> None:
    print(generate())


if __name__ == "__main__":
    main()
