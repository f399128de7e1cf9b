"""Section 5.4 counterpart: where the instrumentation cycles go.

The paper attributes execution-time overhead to instrumentation parts
(dereference checks vs. metadata propagation, with the trie dominating
SoftBound's invariant cost).  The deterministic cost model makes this
attribution *exact*: every runtime operation is charged under its own
opcode, so the harness can split each benchmark's added cycles into

* SoftBound: dereference checks / trie / shadow stack / wrappers;
* Low-Fat: dereference checks / escape-invariant checks / base
  recomputation / allocator.

Residual cycles ("other") are second-order compilation differences
(blocked optimizations, changed inlining) -- the part of the overhead
that is *not* runtime library work, which Section 5.5 shows can
dominate at early extension points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..vm import costs
from ..workloads import Workload, all_workloads
from .common import JobRequest, Runner, config_for, format_table

SB_CATEGORIES: List[Tuple[str, Tuple[str, ...]]] = [
    ("checks", ("__sb_check",)),
    ("trie", ("__sb_trie_load_base", "__sb_trie_load_bound",
              "__sb_trie_store")),
    ("shadow stack", ("__sb_ss_enter", "__sb_ss_exit", "__sb_ss_set",
                      "__sb_ss_get_base", "__sb_ss_get_bound",
                      "__sb_ss_set_ret", "__sb_ss_get_ret_base",
                      "__sb_ss_get_ret_bound")),
]

LF_CATEGORIES: List[Tuple[str, Tuple[str, ...]]] = [
    ("checks", ("__lf_check",)),
    ("invariants", ("__lf_invariant_check",)),
    ("base recompute", ("__lf_compute_base",)),
    ("allocator", ("__lf_malloc", "__lf_calloc", "__lf_realloc",
                   "__lf_free", "__lf_alloca")),
]


def _runtime_cycles(opcode_counts, names: Tuple[str, ...]) -> int:
    total = 0
    for name in names:
        total += opcode_counts.get(f"native:{name}", 0) * costs.call_cost(name)
    return total


def _wrapper_cycles(opcode_counts) -> int:
    total = 0
    for opcode, count in opcode_counts.items():
        if opcode.startswith("native:__sb_wrap_"):
            name = opcode[len("native:"):]
            wrapped = name[len("__sb_wrap_"):]
            per_call = costs.call_cost(name) - costs.call_cost(wrapped)
            total += count * max(per_call, 0)
    return total


def requests(workloads: Optional[Sequence[Workload]] = None) -> List[JobRequest]:
    workloads = all_workloads() if workloads is None else list(workloads)
    return [JobRequest(workload, config_for(label))
            for workload in workloads
            for label in ("baseline", "softbound", "lowfat")]


def generate(runner: Runner = None,
             workloads: Optional[Sequence[Workload]] = None) -> str:
    # BenchResult carries the raw per-opcode counts, so the attribution
    # runs off the same engine (and cache) as every other experiment.
    runner = runner or Runner()
    workloads = all_workloads() if workloads is None else list(workloads)
    runner.prefetch(requests(workloads))

    rows_sb: List[List[str]] = []
    rows_lf: List[List[str]] = []
    for workload in workloads:
        base_cycles = runner.baseline(workload).cycles

        for label, categories, rows in (
            ("softbound", SB_CATEGORIES, rows_sb),
            ("lowfat", LF_CATEGORIES, rows_lf),
        ):
            result = runner.run(workload, label)
            counts = result.opcode_counts
            overhead = result.cycles - base_cycles
            parts = {
                name: _runtime_cycles(counts, natives)
                for name, natives in categories
            }
            if label == "softbound":
                parts["wrappers"] = _wrapper_cycles(counts)
            other = overhead - sum(parts.values())
            row = [workload.name, f"{overhead}"]
            for name, _ in categories:
                share = 100.0 * parts[name] / overhead if overhead else 0.0
                row.append(f"{share:.0f}%")
            if label == "softbound":
                share = 100.0 * parts["wrappers"] / overhead if overhead else 0.0
                row.append(f"{share:.0f}%")
            row.append(f"{100.0 * other / overhead if overhead else 0.0:.0f}%")
            rows.append(row)

    sb_headers = ["benchmark", "added cycles", "checks", "trie",
                  "shadow stack", "wrappers", "other"]
    lf_headers = ["benchmark", "added cycles", "checks", "invariants",
                  "base recompute", "allocator", "other"]
    return (
        "Section 5.4 counterpart: overhead attribution (optimized "
        "configs, EP=VectorizerStart)\n"
        "('other' = second-order compilation effects: blocked "
        "optimizations, changed inlining)\n\n"
        "SoftBound\n\n" + format_table(sb_headers, rows_sb)
        + "\n\nLow-Fat Pointers\n\n" + format_table(lf_headers, rows_lf)
    )


def main() -> None:
    print(generate())


if __name__ == "__main__":
    main()
