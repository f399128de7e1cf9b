"""Shared infrastructure for the experiment harness.

Each experiment module (table1, table2, fig9, ...) regenerates one
table or figure of the paper from the same primitives: compile a
workload under a configuration, run it on the VM, and collect the
statistics.  Results are requested through the execution engine in
:mod:`.runner`, which memoizes them in-process, can fan independent
jobs out over worker processes, and can persist them in the
content-addressed on-disk cache of :mod:`.cache` so that a second full
report regeneration is near-instant.

``Runner`` remains the name of the engine (it is an alias of
:class:`.runner.ExperimentEngine`) so existing call sites keep working;
the default construction ``Runner()`` is serial and memory-only, just
like the historical per-process runner.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional

from ..core.config import InstrumentationConfig
from ..core.itarget import TargetStatistics
from ..driver import CompiledProgram, RunResult
from ..errors import ConfigError

MAX_INSTRUCTIONS = 50_000_000

#: Named configurations used across the evaluation (paper Section 5).
#: "optimized" = dominance check elimination on (the Figure 9 setting),
#: "unoptimized" = all gathered checks emitted,
#: "metadata" = -mi-mode=geninvariants (no dereference checks),
#: "ranges" = dominance elimination plus the interprocedural
#: value-range / pointer-provenance filter (-mi-opt-ranges),
#: "hoist" = ranges plus the loop-aware check hoisting / block
#: coalescing transform (-mi-opt-hoist).
CONFIG_LABELS = (
    "baseline",
    "softbound", "softbound-unopt", "softbound-meta", "softbound-ranges",
    "softbound-hoist",
    "lowfat", "lowfat-unopt", "lowfat-meta", "lowfat-ranges",
    "lowfat-hoist",
)

#: The variant word of a label -> the mode and filter flags it sets.
_VARIANTS = {
    "": dict(opt_dominance=True),
    "unopt": {},
    "meta": dict(mode="geninvariants"),
    "ranges": dict(opt_dominance=True, opt_ranges=True),
    "hoist": dict(opt_dominance=True, opt_ranges=True, opt_hoist=True),
}
_VARIANT_FIELDS = ("mode", "opt_dominance", "opt_ranges", "opt_hoist")


def config_for(label: str) -> Optional[InstrumentationConfig]:
    """The configuration a label names (None for ``baseline``).

    A label is ``<approach>[-<variant>]`` (see ``_VARIANTS``; no
    variant means dominance elimination), then one ``-<field>=True``
    or ``-<field>=False`` for each boolean field that differs from the
    variant's configuration.  :func:`label_for` is the inverse; these
    two functions are the only code that reads or writes a label."""
    if label == "baseline":
        return None
    approach, *words = label.split("-")
    variant = words.pop(0) if words and "=" not in words[0] else ""
    if variant not in _VARIANTS:
        raise ConfigError(f"unknown configuration label {label!r}")
    config = InstrumentationConfig(approach=approach, **_VARIANTS[variant])
    overrides = {}
    for word in words:
        name, _, value = word.partition("=")
        if (not isinstance(getattr(config, name, None), bool)
                or value not in ("True", "False")):
            raise ConfigError(
                f"unknown configuration label {label!r}: {word!r} is "
                "not <boolean field>=True or =False")
        overrides[name] = value == "True"
    return replace(config, **overrides)


def label_for(config: Optional[InstrumentationConfig]) -> str:
    """The display name of ``config``, which :func:`config_for` reads
    back.  A ``CONFIG_LABELS`` configuration gets its name there; a
    filter set without a variant word is spelled as ``unopt`` (or
    ``meta``) plus its filter flags, so no two configurations share a
    label."""
    if config is None:
        return "baseline"
    bases = {word: InstrumentationConfig(approach=config.approach, **flags)
             for word, flags in _VARIANTS.items()}
    variant = next(
        (word for word, base in bases.items()
         if all(getattr(base, name) == getattr(config, name)
                for name in _VARIANT_FIELDS)),
        "meta" if config.mode == "geninvariants" else "unopt")
    overrides = [f"{name}={getattr(config, name)}"
                 for name in sorted(f.name for f in fields(config))
                 if getattr(config, name) != getattr(bases[variant], name)]
    return "-".join([config.approach] + ([variant] if variant else [])
                    + overrides)


@dataclass
class BenchResult:
    """One (workload, configuration, extension point) measurement.

    JSON-serializable: ``to_json``/``from_json`` round-trip exactly,
    which is what makes results survive both worker-process transport
    and the on-disk cache (and what makes benchmark trajectories
    machine-readable).

    The engine stores a *record* of each run: every field but
    ``workload``, ``label`` and ``ok``, which name the request and
    judge the run against its baseline.  :meth:`answer` adds them, so
    one stored run answers every request that measures the same thing.

    ``status`` distinguishes how the run ended: ``"exit"`` (normal
    termination), ``"violation"`` (an instrumentation check fired,
    ``violation_kind`` says which), ``"fault"`` (simulated hardware
    trap), ``"abort"``, or ``"failed"`` (the job itself crashed or
    timed out; ``failure`` carries the reason and every counter is 0).
    """

    workload: str
    label: str
    extension_point: str
    cycles: int
    instructions: int
    output: List[str]
    ok: bool
    describe: str
    checks_executed: int
    checks_wide: int
    unsafe_percent: float
    invariant_checks: int
    trie_loads: int
    trie_stores: int
    shadow_stack_ops: int
    lowfat_fallbacks: int
    static: TargetStatistics
    status: str = "exit"
    violation_kind: str = ""
    failure: str = ""
    lowfat_allocs: int = 0
    opcode_counts: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def record(program: CompiledProgram, run: RunResult) -> dict:
        """The stored form of one run: plain data, no request fields."""
        stats = run.stats
        if run.violation is not None:
            status, violation_kind = "violation", run.violation.kind
        elif run.fault is not None:
            status, violation_kind = "fault", ""
        elif run.abort is not None:
            status, violation_kind = "abort", ""
        else:
            status, violation_kind = "exit", ""
        return dict(
            cycles=stats.cycles, instructions=stats.instructions,
            output=list(run.output), describe=run.describe(),
            checks_executed=stats.checks_executed,
            checks_wide=stats.checks_wide,
            unsafe_percent=stats.unsafe_percent,
            invariant_checks=stats.invariant_checks,
            trie_loads=stats.trie_loads, trie_stores=stats.trie_stores,
            shadow_stack_ops=stats.shadow_stack_ops,
            lowfat_fallbacks=stats.lowfat_fallback_allocs,
            static=asdict(program.instrumentation),
            status=status, violation_kind=violation_kind, failure="",
            lowfat_allocs=stats.lowfat_allocs,
            opcode_counts=dict(stats.opcode_counts),
        )

    @staticmethod
    def failed_record(failure: str) -> dict:
        """The record of a job that crashed or exceeded its time limit:
        every counter is 0 and ``failure`` says why the cell is
        missing.  The run as a whole survives it."""
        return dict(
            cycles=0, instructions=0, output=[],
            describe=f"failed: {failure}", checks_executed=0,
            checks_wide=0, unsafe_percent=0.0, invariant_checks=0,
            trie_loads=0, trie_stores=0, shadow_stack_ops=0,
            lowfat_fallbacks=0, static=asdict(TargetStatistics()),
            status="failed", violation_kind="", failure=failure,
            lowfat_allocs=0, opcode_counts={},
        )

    @staticmethod
    def answer(record: dict, workload, label: str, ep: str,
               ok: bool) -> "BenchResult":
        """The result of one request for the run ``record`` holds: the
        request's workload, label and extension point, which the
        record does not store (runs of one build share a record)."""
        return BenchResult.from_json(dict(
            record, workload=getattr(workload, "name", workload),
            label=label, extension_point=ep, ok=ok))

    @staticmethod
    def failed(workload, label: str, ep: str, failure: str) -> "BenchResult":
        return BenchResult.answer(BenchResult.failed_record(failure),
                                  workload, label, ep, ok=False)

    def to_json(self) -> dict:
        """Plain-data representation; ``from_json`` inverts it exactly."""
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "BenchResult":
        data = dict(data)
        static = dict(data["static"])
        static["verdicts"] = dict(static["verdicts"])
        static["by_kind"] = dict(static["by_kind"])
        data["static"] = TargetStatistics(**static)
        data["output"] = list(data["output"])
        data["opcode_counts"] = dict(data["opcode_counts"])
        return BenchResult(**data)


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: List[str]) -> str:
        return "  ".join(c.rjust(w) if i else c.ljust(w)
                         for i, (c, w) in enumerate(zip(cells, widths)))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


# The engine lives in .runner (which itself imports BenchResult and
# config_for from this module); re-export it lazily under its
# historical name so the import works regardless of which module is
# loaded first.
def __getattr__(name):
    if name in ("Runner", "ExperimentEngine", "JobRequest"):
        from .runner import ExperimentEngine, JobRequest

        globals()["ExperimentEngine"] = ExperimentEngine
        globals()["Runner"] = ExperimentEngine
        globals()["JobRequest"] = JobRequest
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BenchResult", "CONFIG_LABELS", "ExperimentEngine", "JobRequest",
    "MAX_INSTRUCTIONS", "Runner", "config_for", "format_table", "geomean",
    "label_for",
]
