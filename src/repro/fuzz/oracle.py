"""Differential oracle over the {engine x mechanism x filter} matrix.

Each generated program is one :class:`~repro.workloads.Workload`; the
oracle schedules every matrix cell for it through a single
:class:`~repro.experiments.runner.ExperimentEngine` batch (mixed-engine
jobs use the per-request ``engine`` override) and then cross-checks the
results five ways:

``harness-failure``
    a worker crashed or timed out (``status == "failed"``);
``baseline-fault``
    the uninstrumented run of a defined-behaviour program did not exit
    cleanly -- a frontend or VM bug, not an instrumentation bug;
``output-divergence``
    an instrumented cell changed the program's observable behaviour
    (output lines, exit status, or a spurious violation/fault) -- the
    transparency property the paper's evaluation rests on;
``engine-divergence``
    any registered execution tier (source-codegen, reference
    tree-walker) disagrees with the first engine on any observable
    *or any counter* for the same cell (all tiers are bit-identical by
    contract);
``filter-invariant``
    check-elimination filters broke a counting invariant: dynamic
    checks must satisfy ranges <= dominance <= unfiltered for each
    mechanism, the baseline must execute zero checks, and statically
    filtered checks can never exceed statically gathered checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..campaign.model import Instance, Target, standard_instances
from ..errors import ConfigError
from ..experiments.cache import ResultCache
from ..experiments.common import BenchResult
from ..experiments.runner import ExperimentEngine, JobRequest
from ..vm.engines import DEFAULT_ENGINE, ENGINES
from .generator import CoverageReport, GeneratedProgram


@dataclass(frozen=True)
class Matrix:
    """A named slice of the full configuration space.

    A matrix is a complete labels x engines product -- the oracle's
    grid comparisons (engine-divergence, filter chains) index cells by
    ``(label, engine)`` and need every cell present.  :meth:`instances`
    turns it into the campaign :class:`~repro.campaign.model.Instance`
    list the oracle actually schedules."""

    name: str
    labels: Tuple[str, ...]
    engines: Tuple[str, ...]

    def instances(self) -> List[Instance]:
        """The campaign instances of this matrix, in cell order."""
        return standard_instances(self.labels, self.engines)

    @property
    def cells(self) -> List[Tuple[str, str]]:
        return [(label, engine)
                for engine in self.engines for label in self.labels]

    def __len__(self) -> int:
        return len(self.labels) * len(self.engines)


FULL_MATRIX = Matrix(
    "full",
    labels=("baseline",
            "softbound-unopt", "softbound", "softbound-ranges",
            "softbound-hoist",
            "lowfat-unopt", "lowfat", "lowfat-ranges", "lowfat-hoist"),
    engines=ENGINES,
)

QUICK_MATRIX = Matrix("quick", labels=("baseline", "softbound", "lowfat"),
                      engines=(DEFAULT_ENGINE,))

MATRICES: Dict[str, Matrix] = {m.name: m for m in (FULL_MATRIX, QUICK_MATRIX)}


@dataclass
class Mismatch:
    """One disagreement between matrix cells on one program."""

    program: str
    kind: str
    label: str
    engine: str
    detail: str
    seed: int = -1
    index: int = -1
    sources: Dict[str, str] = field(default_factory=dict)

    def to_json(self, include_sources: bool = True) -> dict:
        doc = {
            "program": self.program,
            "kind": self.kind,
            "label": self.label,
            "engine": self.engine,
            "detail": self.detail,
            "seed": self.seed,
            "index": self.index,
        }
        if include_sources:
            doc["sources"] = dict(self.sources)
        return doc

    def headline(self) -> str:
        return (f"{self.program} [{self.kind}] "
                f"{self.label}/{self.engine}: {self.detail}")


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing campaign."""

    matrix: str
    seed: int
    programs: int
    cells_per_program: int
    mismatches: List[Mismatch] = field(default_factory=list)
    executed_jobs: int = 0
    coverage: Optional[CoverageReport] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self, include_sources: bool = True) -> dict:
        doc = {
            "matrix": self.matrix,
            "seed": self.seed,
            "programs": self.programs,
            "cells_per_program": self.cells_per_program,
            "executed_jobs": self.executed_jobs,
            "ok": self.ok,
            "mismatches": [m.to_json(include_sources)
                           for m in self.mismatches],
        }
        if self.coverage is not None:
            doc["coverage"] = {
                "complete": self.coverage.complete,
                "missing_node_kinds":
                    sorted(self.coverage.missing_node_kinds),
                "missing_opcodes": sorted(self.coverage.missing_opcodes),
                "features": dict(sorted(self.coverage.features.items())),
            }
        return doc

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.programs} programs x {self.cells_per_program} "
            f"cells ({self.matrix} matrix, seed {self.seed}), "
            f"{self.executed_jobs} jobs executed",
        ]
        if self.ok:
            lines.append("no mismatches: every cell agreed on every "
                         "observable and counter invariant")
        else:
            lines.append(f"{len(self.mismatches)} MISMATCH(ES):")
            lines.extend(f"  {m.headline()}" for m in self.mismatches)
        if self.coverage is not None:
            lines.append(self.coverage.summary())
        return "\n".join(lines)


#: Fields that must agree bit-for-bit across VM engines for the same
#: (program, label) cell.  This is the engines' "bit-identical
#: statistics" contract, enforced at fuzzing scale.
#: ``static`` covers the whole compile-side TargetStatistics -- in
#: particular, the hoist transform's hoisted/coalesced/synthesized
#: counts must be deterministic across independent compilations.
ENGINE_INVARIANT_FIELDS = (
    "output", "status", "violation_kind", "ok",
    "cycles", "instructions", "checks_executed", "checks_wide",
    "invariant_checks", "trie_loads", "trie_stores", "shadow_stack_ops",
    "lowfat_fallbacks", "lowfat_allocs", "opcode_counts", "static",
)

#: ``(unfiltered, dominance, ranges, hoist)`` label chains; dynamic
#: check counts must be monotonically non-increasing along each chain
#: when every member ran cleanly.  Hoisting preserves this: a widened
#: preheader check executes once where the replaced per-iteration
#: checks executed (trip count) x (group size) >= 1 times, and a
#: coalesced run check executes once where its >= 2 members each
#: executed.
_FILTER_CHAINS = (
    ("softbound-unopt", "softbound", "softbound-ranges", "softbound-hoist"),
    ("lowfat-unopt", "lowfat", "lowfat-ranges", "lowfat-hoist"),
)


class DifferentialOracle:
    """Runs programs through a matrix and cross-checks every cell.

    ``jobs`` fans the matrix out over worker processes (the underlying
    :class:`ExperimentEngine` runs a batch's cells in one wave).  A
    disk ``cache`` keys every cell by its engine, so
    each engine's cells are cached and served apart and the engine
    comparison stays meaningful over a warm cache.
    """

    def __init__(
        self,
        matrix: Union[Matrix, str] = FULL_MATRIX,
        jobs: int = 1,
        max_instructions: int = 5_000_000,
        job_timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        verify_cache: bool = False,
    ):
        if isinstance(matrix, str):
            try:
                matrix = MATRICES[matrix]
            except KeyError:
                raise ConfigError(
                    f"unknown fuzz matrix {matrix!r}; "
                    f"choose from {', '.join(sorted(MATRICES))}")
        self.matrix = matrix
        self._instances = matrix.instances()
        self.engine = ExperimentEngine(
            jobs=jobs,
            cache=cache,
            max_instructions=max_instructions,
            job_timeout=job_timeout,
            verify_cache=verify_cache,
        )

    # ------------------------------------------------------------------
    @property
    def executed_jobs(self) -> int:
        return self.engine.executed_jobs

    def _requests(self, name: str,
                  sources: Dict[str, str]) -> List[JobRequest]:
        # One request per campaign instance, in the grid's cell order.
        target = Target(name, sources=sources)
        return [instance.request(target) for instance in self._instances]

    def check_sources(self, sources: Dict[str, str],
                      name: str = "fuzz-candidate") -> List[Mismatch]:
        """Run one program (as raw sources) through the whole matrix."""
        results = self.engine.run_many(self._requests(name, sources))
        grid = {cell: result
                for cell, result in zip(self.matrix.cells, results)}
        mismatches = self._compare(name, grid)
        for m in mismatches:
            m.sources = dict(sources)
        return mismatches

    def check_program(self, program: GeneratedProgram) -> List[Mismatch]:
        mismatches = self.check_sources(program.sources, program.name)
        for m in mismatches:
            m.seed = program.seed
            m.index = program.index
        return mismatches

    def run(
        self,
        programs: Sequence[GeneratedProgram],
        seed: int = -1,
        progress: Optional[Callable[[int, int, int], None]] = None,
        batch: int = 8,
    ) -> FuzzReport:
        """Check a whole corpus; ``batch`` programs share one scheduler
        wave so worker processes stay busy across program boundaries."""
        report = FuzzReport(
            matrix=self.matrix.name,
            seed=seed,
            programs=len(programs),
            cells_per_program=len(self.matrix),
        )
        batch = max(1, batch)
        done = 0
        for start in range(0, len(programs), batch):
            group = programs[start:start + batch]
            requests: List[JobRequest] = []
            for program in group:
                requests.extend(self._requests(program.name,
                                               program.sources))
            results = self.engine.run_many(requests)
            cells = self.matrix.cells
            for offset, program in enumerate(group):
                chunk = results[offset * len(cells):(offset + 1) * len(cells)]
                grid = dict(zip(cells, chunk))
                found = self._compare(program.name, grid)
                for m in found:
                    m.seed = program.seed
                    m.index = program.index
                    m.sources = dict(program.sources)
                report.mismatches.extend(found)
            done += len(group)
            if progress is not None:
                progress(done, len(programs), len(report.mismatches))
        report.executed_jobs = self.engine.executed_jobs
        return report

    # ------------------------------------------------------------------
    # comparisons

    def _compare(self, name: str,
                 grid: Dict[Tuple[str, str], BenchResult]) -> List[Mismatch]:
        mismatches: List[Mismatch] = []

        def add(kind: str, label: str, engine: str, detail: str) -> None:
            mismatches.append(Mismatch(program=name, kind=kind, label=label,
                                       engine=engine, detail=detail))

        # 1. harness failures poison every other comparison; report
        #    them alone.
        failed = [(cell, r) for cell, r in grid.items()
                  if r.status == "failed"]
        if failed:
            for (label, engine), r in failed:
                add("harness-failure", label, engine, r.failure)
            return mismatches

        # 2. the uninstrumented baseline of a defined-behaviour program
        #    must exit cleanly, per engine.
        for engine in self.matrix.engines:
            base = grid.get(("baseline", engine))
            if base is not None and base.status != "exit":
                add("baseline-fault", "baseline", engine, base.describe)
        if any(m.kind == "baseline-fault" for m in mismatches):
            return mismatches

        # 3. transparency: every instrumented cell must exit cleanly
        #    with the baseline's exact output.
        for engine in self.matrix.engines:
            base = grid.get(("baseline", engine))
            for label in self.matrix.labels:
                if label == "baseline":
                    continue
                r = grid[(label, engine)]
                if r.status != "exit":
                    add("output-divergence", label, engine,
                        f"defined program ended with: {r.describe}")
                elif base is not None and r.output != base.output:
                    add("output-divergence", label, engine,
                        _output_diff(base.output, r.output))

        # 4. the two VM tiers must agree bit-for-bit per cell.
        if len(self.matrix.engines) > 1:
            ref_engine = self.matrix.engines[0]
            for other in self.matrix.engines[1:]:
                for label in self.matrix.labels:
                    a = grid[(label, ref_engine)]
                    b = grid[(label, other)]
                    diffs = [
                        f"{f}: {ref_engine}={getattr(a, f)!r} "
                        f"{other}={getattr(b, f)!r}"
                        for f in ENGINE_INVARIANT_FIELDS
                        if getattr(a, f) != getattr(b, f)
                    ]
                    if diffs:
                        add("engine-divergence", label, other,
                            "; ".join(diffs[:4]))

        # 5. check-count invariants.
        for engine in self.matrix.engines:
            base = grid.get(("baseline", engine))
            if base is not None and base.checks_executed != 0:
                add("filter-invariant", "baseline", engine,
                    f"baseline executed {base.checks_executed} checks")
            for chain in _FILTER_CHAINS:
                counts: List[Tuple[str, int]] = []
                for label in chain:
                    if label not in self.matrix.labels:
                        continue
                    r = grid[(label, engine)]
                    if r.status != "exit":
                        counts = []
                        break
                    counts.append((label, r.checks_executed))
                for (l_weak, c_weak), (l_strong, c_strong) in zip(
                        counts[:-1], counts[1:]):
                    if c_strong > c_weak:
                        add("filter-invariant", l_strong, engine,
                            f"{l_strong} executed {c_strong} checks > "
                            f"{l_weak}'s {c_weak} (filters may only "
                            f"remove checks)")
            for label in self.matrix.labels:
                r = grid[(label, engine)]
                filtered = (r.static.filtered_checks
                            + r.static.range_filtered_checks
                            + r.static.hoisted_checks
                            + r.static.coalesced_checks)
                if filtered > r.static.gathered_checks:
                    add("filter-invariant", label, engine,
                        f"static filtered {filtered} > gathered "
                        f"{r.static.gathered_checks}")
                if (r.static.synthesized_checks
                        > r.static.hoisted_checks
                        + r.static.coalesced_checks):
                    add("filter-invariant", label, engine,
                        f"synthesized {r.static.synthesized_checks} "
                        f"checks exceed the "
                        f"{r.static.hoisted_checks + r.static.coalesced_checks}"
                        f" they replace")
        return mismatches


def _output_diff(expected: List[str], got: List[str]) -> str:
    if len(expected) != len(got):
        return (f"output length {len(got)} != baseline {len(expected)}; "
                f"got tail {got[-3:]!r}")
    for i, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            return f"output line {i}: baseline {a!r} != {b!r}"
    return "outputs differ"
