"""Sharded campaign execution over the experiment engine.

A campaign expands to an N x M cell list (deterministic, order-
independent); execution then:

* **shards** the cells by content hash -- each cell's shard is decided
  by the engine's :meth:`~repro.experiments.runner.ExperimentEngine.
  fingerprint` (workload sources + config + engine), so any number of
  worker machines running ``--shard-index i --shard-count n`` partition
  the campaign exactly, with no coordination and no double work;
* **batches** the shard through :meth:`ExperimentEngine.run_many`, so
  worker processes stay busy across cell boundaries: each batch runs
  its missing cells, and the baselines they validate against, in one
  wave;
* **resumes** from the content-addressed disk cache: cache keys carry
  the VM engine, so every cell (of any engine) persists under its own
  key, and a re-run of an interrupted campaign recomputes only the
  missing cells, bit-identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import ConfigError
from ..experiments.common import BenchResult, geomean
from ..experiments.runner import ExperimentEngine
from .model import CampaignCell, CampaignSpec


def shard_of(fingerprint: str, shard_count: int) -> int:
    """Stable shard assignment: cells follow their content, not their
    position, so adding or reordering cells never reshuffles the rest."""
    digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
    return int(digest[:16], 16) % shard_count


@dataclass
class CellResult:
    """One executed campaign cell."""

    instance: str
    target: str
    label: str
    engine: str
    result: BenchResult

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "target": self.target,
            "label": self.label,
            "engine": self.engine,
            "result": self.result.to_json(),
        }


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign shard."""

    spec_name: str
    shard_index: int
    shard_count: int
    cells: List[CellResult] = field(default_factory=list)
    executed_jobs: int = 0
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        return all(c.result.ok for c in self.cells)

    def failures(self) -> List[CellResult]:
        return [c for c in self.cells if not c.result.ok]

    def overheads(self) -> Dict[str, float]:
        """Geomean cycle overhead per instance, against the same-engine
        baseline instance (only targets present under both)."""
        baselines: Dict[tuple, int] = {}
        for cell in self.cells:
            if cell.label == "baseline" and cell.result.ok:
                baselines[(cell.engine, cell.target)] = cell.result.cycles
        per_instance: Dict[str, List[float]] = {}
        for cell in self.cells:
            if cell.label == "baseline" or not cell.result.ok:
                continue
            base = baselines.get((cell.engine, cell.target))
            if base:
                per_instance.setdefault(cell.instance, []).append(
                    cell.result.cycles / base)
        return {instance: geomean(ratios)
                for instance, ratios in sorted(per_instance.items())}

    def summary_cells(self) -> Dict[str, dict]:
        """The compact per-cell record the regression history stores."""
        return {
            f"{c.instance}|{c.target}": {
                "cycles": c.result.cycles,
                "checks": c.result.checks_executed,
                "status": c.result.status,
            }
            for c in self.cells
        }

    def to_json(self) -> dict:
        return {
            "campaign": self.spec_name,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "ok": self.ok,
            "executed_jobs": self.executed_jobs,
            "cache_hits": self.cache_hits,
            "overheads": self.overheads(),
            "cells": [c.to_json() for c in self.cells],
        }

    def summary(self) -> str:
        lines = [
            f"campaign {self.spec_name}: {len(self.cells)} cells "
            f"(shard {self.shard_index + 1}/{self.shard_count}), "
            f"{self.executed_jobs} executed, "
            f"{self.cache_hits} served from cache",
        ]
        overheads = self.overheads()
        if overheads:
            lines.append("geomean overhead vs baseline:")
            lines.extend(f"  {instance:32} {ratio:6.2f}x"
                         for instance, ratio in overheads.items())
        failures = self.failures()
        if failures:
            lines.append(f"{len(failures)} cell(s) NOT ok:")
            lines.extend(f"  {c.instance}|{c.target}: {c.result.describe}"
                         for c in failures)
        else:
            lines.append("all cells ok")
        return "\n".join(lines)


class CampaignRunner:
    """Expands a spec, selects this shard, and runs it in batches."""

    def __init__(
        self,
        spec: CampaignSpec,
        engine: ExperimentEngine,
        shard_index: int = 0,
        shard_count: int = 1,
    ):
        if shard_count < 1:
            raise ConfigError("--shard-count must be >= 1")
        if not 0 <= shard_index < shard_count:
            raise ConfigError(
                f"--shard-index must be in [0, {shard_count})")
        self.spec = spec
        self.engine = engine
        self.shard_index = shard_index
        self.shard_count = shard_count

    # ------------------------------------------------------------------
    def cells(self) -> List[CampaignCell]:
        return self.spec.expand()

    def shard_cells(self) -> List[CampaignCell]:
        """This shard's slice of the expanded campaign."""
        if self.shard_count == 1:
            return self.cells()
        selected = []
        for cell in self.cells():
            request = cell.instance.request(
                cell.target, max_instructions=self.spec.max_instructions,
                validate_output=self.spec.validate_output)
            fingerprint = self.engine.fingerprint(request)
            if shard_of(fingerprint, self.shard_count) == self.shard_index:
                selected.append(cell)
        return selected

    def run(
        self,
        progress: Optional[Callable[[int, int], None]] = None,
        batch: int = 32,
    ) -> CampaignResult:
        """Execute this shard; ``batch`` cells share one scheduler wave."""
        cells = self.shard_cells()
        result = CampaignResult(
            spec_name=self.spec.name,
            shard_index=self.shard_index,
            shard_count=self.shard_count,
        )
        batch = max(1, batch)
        for start in range(0, len(cells), batch):
            group = cells[start:start + batch]
            requests = [
                cell.instance.request(
                    cell.target,
                    max_instructions=self.spec.max_instructions,
                    validate_output=self.spec.validate_output)
                for cell in group
            ]
            outcomes = self.engine.run_many(requests)
            for cell, outcome in zip(group, outcomes):
                result.cells.append(CellResult(
                    instance=cell.instance.name,
                    target=cell.target.name,
                    label=cell.instance.label,
                    engine=cell.instance.engine,
                    result=outcome,
                ))
            if progress is not None:
                progress(min(start + batch, len(cells)), len(cells))
        result.executed_jobs = self.engine.executed_jobs
        result.cache_hits = self.engine.cache_hits
        return result


def run_campaign(
    spec: CampaignSpec,
    engine: ExperimentEngine,
    shard_index: int = 0,
    shard_count: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CampaignResult:
    """Convenience one-shot: expand, shard, and run."""
    return CampaignRunner(spec, engine, shard_index, shard_count).run(
        progress=progress)
