"""Ablation studies for the design choices the paper discusses.

Not a table in the paper, but each knob is a decision Sections 4.3-4.6
and 5.1.2 analyse in prose; this experiment makes the trade-offs
measurable:

* **SoftBound: size-less extern arrays** -- wide upper bound
  (``-mi-sb-size-zero-wide-upper``, unchecked but usable) vs. NULL
  bounds (safe but spuriously rejects 164gzip).
* **SoftBound: integer-to-pointer casts** -- wide bounds vs. NULL
  bounds on the benchmarks with cold inttoptr round trips.
* **SoftBound: libc wrapper checks** -- disabled (the paper's
  comparability setting) vs. enabled (extra safety, extra cost).
* **Low-Fat: region capacity** -- shrinking per-class regions forces
  standard-allocator fallbacks, trading protection for memory
  (the configuration lever of Section 4.6).
* **Value-range check elimination** -- the interprocedural range /
  provenance filter (``-mi-opt-ranges``) stacked on the dominance
  filter: extra statically removed checks and the dynamic check-count
  delta, with the guarantee that program output is unchanged.

The ablation cells go through the same execution engine as the main
experiments (each request carries its exact configuration), so they
parallelize and cache like everything else, and a cell whose
configuration a figure also measures shares that figure's run.  Output
validation is off: several cells *expect* spurious violations.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.config import InstrumentationConfig
from ..workloads import get
from .common import BenchResult, JobRequest, Runner, config_for, format_table

#: The SoftBound basis every SoftBound ablation varies.  The cache key
#: hashes only a configuration's contents, so an ablation cell equal to
#: a figure's cell (the wide defaults are ``softbound-unopt``) shares
#: its run.
_SB_WIDE = InstrumentationConfig.softbound
_SIZE_ZERO_BENCHMARKS = ("164gzip", "445gobmk", "433milc")
_INTTOPTR_BENCHMARKS = ("456hmmer", "458sjeng")
_WRAPPER_BENCHMARKS = ("464h264ref", "300twolf")
_CAPACITIES = (None, 1 << 16, 1 << 12, 1 << 10)
_RANGE_BENCHMARKS = ("164gzip", "177mesa", "300twolf", "186crafty")


def _request(workload_name: str,
             config: Optional[InstrumentationConfig],
             lf_region_capacity: Optional[int] = None) -> JobRequest:
    return JobRequest(
        get(workload_name), config,
        lf_region_capacity=lf_region_capacity,
        validate_output=False,
    )


def requests(workloads=None) -> List[JobRequest]:
    """The full ablation matrix.  The benchmark set is fixed by the
    study design, so the ``workloads`` subset argument is ignored."""
    reqs: List[JobRequest] = []
    for benchmark in _SIZE_ZERO_BENCHMARKS:
        reqs.append(_request(benchmark, _SB_WIDE()))
        reqs.append(_request(benchmark,
                             _SB_WIDE(sb_size_zero_wide_upper=False)))
    for benchmark in _INTTOPTR_BENCHMARKS:
        reqs.append(_request(benchmark, _SB_WIDE()))
        reqs.append(_request(benchmark,
                             _SB_WIDE(sb_inttoptr_wide_bounds=False)))
    for benchmark in _WRAPPER_BENCHMARKS:
        reqs.append(_request(benchmark, None))
        reqs.append(_request(benchmark, _SB_WIDE(opt_dominance=True)))
        reqs.append(_request(benchmark,
                             _SB_WIDE(opt_dominance=True,
                                      sb_wrapper_checks=True)))
    for capacity in _CAPACITIES:
        reqs.append(_request("197parser", InstrumentationConfig.lowfat(),
                             lf_region_capacity=capacity))
    for benchmark in _RANGE_BENCHMARKS:
        reqs.append(JobRequest(get(benchmark), config_for("softbound")))
        reqs.append(JobRequest(get(benchmark),
                               config_for("softbound-ranges")))
    return reqs


def _verdict(result: BenchResult) -> str:
    if result.status == "violation":
        return f"spurious {result.violation_kind} report"
    if result.status == "fault":
        return "fault"
    return "runs"


def ablate_sb_size_zero(runner: Runner) -> str:
    rows: List[List[str]] = []
    for benchmark in _SIZE_ZERO_BENCHMARKS:
        wide = runner.run_request(_request(benchmark, _SB_WIDE()))
        null = runner.run_request(
            _request(benchmark, _SB_WIDE(sb_size_zero_wide_upper=False)))
        rows.append([
            benchmark,
            f"{_verdict(wide)} ({wide.unsafe_percent:.1f}% wide)",
            _verdict(null),
        ])
    return (
        "SoftBound size-less extern arrays: wide upper bound vs NULL bounds\n"
        "(wide = applicable but unchecked; NULL = safe but spurious reports)\n\n"
        + format_table(["benchmark", "wide upper (default)", "NULL bounds"], rows)
    )


def ablate_sb_inttoptr(runner: Runner) -> str:
    rows: List[List[str]] = []
    for benchmark in _INTTOPTR_BENCHMARKS:
        wide = runner.run_request(_request(benchmark, _SB_WIDE()))
        null = runner.run_request(
            _request(benchmark, _SB_WIDE(sb_inttoptr_wide_bounds=False)))
        rows.append([benchmark, _verdict(wide), _verdict(null)])
    return (
        "SoftBound integer-to-pointer casts: wide bounds vs NULL bounds\n"
        "(C allows ptr->int->ptr round trips; NULL bounds reject them)\n\n"
        + format_table(["benchmark", "wide (default)", "NULL bounds"], rows)
    )


def ablate_sb_wrapper_checks(runner: Runner) -> str:
    rows: List[List[str]] = []
    for benchmark in _WRAPPER_BENCHMARKS:
        base = runner.run_request(_request(benchmark, None))
        off = runner.run_request(
            _request(benchmark, _SB_WIDE(opt_dominance=True)))
        on = runner.run_request(
            _request(benchmark,
                     _SB_WIDE(opt_dominance=True, sb_wrapper_checks=True)))
        rows.append([
            benchmark,
            f"{off.cycles / base.cycles:.2f}x",
            f"{on.cycles / base.cycles:.2f}x",
        ])
    return (
        "SoftBound libc wrapper checks (Section 5.1.2 disables them for "
        "comparability)\n\n"
        + format_table(["benchmark", "checks off (paper)", "checks on"], rows)
    )


def ablate_lf_region_capacity(runner: Runner) -> str:
    rows: List[List[str]] = []
    for capacity in _CAPACITIES:
        result = runner.run_request(
            _request("197parser", InstrumentationConfig.lowfat(),
                     lf_region_capacity=capacity))
        label = "full (4 GiB)" if capacity is None else f"{capacity} B"
        rows.append([
            label,
            str(result.lowfat_allocs),
            str(result.lowfat_fallbacks),
            f"{result.unsafe_percent:.2f}%",
        ])
    return (
        "Low-Fat region capacity sweep on 197parser: exhausted regions "
        "fall back\nto the standard allocator, weakening the guarantees "
        "(Section 4.6)\n\n"
        + format_table(
            ["region capacity", "low-fat allocs", "fallbacks", "unsafe %"],
            rows,
        )
    )


def ablate_range_filter(runner: Runner) -> str:
    rows: List[List[str]] = []
    for benchmark in _RANGE_BENCHMARKS:
        dom = runner.run(get(benchmark), "softbound")
        rng = runner.run(get(benchmark), "softbound-ranges")
        same = (rng.output == dom.output and rng.status == dom.status)
        rows.append([
            benchmark,
            str(rng.static.filtered_checks),
            str(rng.static.range_filtered_checks),
            str(dom.checks_executed),
            str(rng.checks_executed),
            "identical" if same else "DIVERGED",
        ])
    return (
        "Value-range check elimination (-mi-opt-ranges) on top of the\n"
        "dominance filter: statically discharged in-bounds proofs must "
        "not change behaviour\n\n"
        + format_table(
            ["benchmark", "dom removed", "ranges removed",
             "dyn checks (dom)", "dyn checks (ranges)", "output"],
            rows,
        )
    )


def generate(runner: Runner = None, workloads=None) -> str:
    runner = runner or Runner()
    runner.prefetch(requests())
    sections = [
        ablate_sb_size_zero(runner),
        ablate_sb_inttoptr(runner),
        ablate_sb_wrapper_checks(runner),
        ablate_lf_region_capacity(runner),
        ablate_range_filter(runner),
    ]
    return "Ablations: configuration trade-offs (paper Sections 4.3-4.6, "\
           "5.1.2)\n\n" + "\n\n".join(sections)


def main() -> None:
    print(generate())


if __name__ == "__main__":
    main()
