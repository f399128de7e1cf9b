"""Sharded execution, cache resumability, and overhead accounting."""

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    Target,
    axes_instances,
    run_campaign,
    shard_of,
    standard_instances,
)
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentEngine

MAX_INSTRUCTIONS = 3_000_000

SMALL_SOURCE = """
int main() {
  int a[8];
  long sum = 0;
  for (int i = 0; i < 8; i++) { a[i] = i * 2; }
  for (int i = 0; i < 8; i++) { sum = sum + a[i]; }
  print_i64(sum);
  return 0;
}
"""


def _spec(engines=("codegen",), labels=("baseline", "softbound"),
          targets=None):
    if targets is None:
        targets = [Target("small", sources={"main.c": SMALL_SOURCE})]
    return CampaignSpec("test", standard_instances(labels, engines),
                        targets, max_instructions=MAX_INSTRUCTIONS)


def _engine(tmp_path=None):
    cache = (ResultCache(tmp_path / "cache")
             if tmp_path is not None else None)
    return ExperimentEngine(cache=cache)


class TestRun:
    def test_basic_campaign(self):
        result = run_campaign(_spec(), _engine())
        assert result.ok
        assert len(result.cells) == 2
        assert {c.label for c in result.cells} == {"baseline", "softbound"}

    @pytest.mark.usefixtures("tiering")
    def test_mixed_engines_bit_identical(self):
        result = run_campaign(_spec(engines=("codegen", "interp")),
                              _engine())
        assert result.ok
        by_engine = {}
        for cell in result.cells:
            by_engine.setdefault(cell.engine, {})[cell.label] = cell.result
        for label in ("baseline", "softbound"):
            a = by_engine["codegen"][label]
            b = by_engine["interp"][label]
            assert a.cycles == b.cycles
            assert a.output == b.output
            assert a.checks_executed == b.checks_executed

    def test_overheads_per_instance(self):
        result = run_campaign(_spec(labels=("baseline", "softbound",
                                            "softbound-unopt")), _engine())
        overheads = result.overheads()
        assert set(overheads) == {"softbound@codegen",
                                  "softbound-unopt@codegen"}
        assert all(ratio >= 1.0 for ratio in overheads.values())

    def test_baseline_shared_across_extension_points(self):
        points = ("VectorizerStart", "ModuleOptimizerEarly")
        spec = CampaignSpec(
            "test", axes_instances(("baseline",), engines=("codegen",),
                                   extension_points=points),
            [Target("small", sources={"main.c": SMALL_SOURCE})],
            max_instructions=MAX_INSTRUCTIONS)
        result = run_campaign(spec, _engine())
        assert result.executed_jobs == 1
        assert sorted(c.result.extension_point
                      for c in result.cells) == sorted(points)

    def test_progress_callback(self):
        calls = []
        CampaignRunner(_spec(), _engine()).run(
            progress=lambda done, total: calls.append((done, total)))
        assert calls and calls[-1] == (2, 2)


class TestResume:
    def test_warm_rerun_is_all_cache_hits_and_bit_identical(self, tmp_path):
        spec = _spec(engines=("codegen", "interp"))
        cold = run_campaign(spec, _engine(tmp_path))
        assert cold.ok and cold.cache_hits == 0

        warm = run_campaign(spec, _engine(tmp_path))
        assert warm.executed_jobs == 0
        assert warm.cache_hits == len(warm.cells)
        assert ([c.to_json() for c in cold.cells]
                == [c.to_json() for c in warm.cells])

    def test_interp_cells_cached_under_their_own_engine(self, tmp_path):
        # the cache must never serve an interp cell a codegen
        # result: prime with codegen only, then ask for interp
        run_campaign(_spec(engines=("codegen",)), _engine(tmp_path))
        interp = run_campaign(_spec(engines=("interp",)),
                              _engine(tmp_path))
        assert interp.cache_hits == 0
        assert interp.executed_jobs > 0


class TestSharding:
    def test_shards_partition_exactly(self):
        spec = _spec(engines=("codegen", "interp"),
                     labels=("baseline", "softbound", "lowfat"),
                     targets=[Target("small",
                                     sources={"main.c": SMALL_SOURCE}),
                              Target("164gzip"), Target("181mcf")])
        engine = _engine()
        everything = {c.id for c in CampaignRunner(spec, engine).cells()}
        seen = []
        for index in range(3):
            runner = CampaignRunner(spec, engine, shard_index=index,
                                    shard_count=3)
            seen.extend(c.id for c in runner.shard_cells())
        assert sorted(seen) == sorted(everything)

    def test_shard_assignment_is_stable(self):
        assert shard_of("abc", 4) == shard_of("abc", 4)
        assert 0 <= shard_of("abc", 4) < 4

    def test_single_shard_is_everything(self):
        runner = CampaignRunner(_spec(), _engine())
        assert runner.shard_cells() == runner.cells()

    def test_bad_shard_arguments_rejected(self):
        with pytest.raises(ConfigError, match="--shard-count"):
            CampaignRunner(_spec(), _engine(), shard_count=0)
        with pytest.raises(ConfigError, match="--shard-index"):
            CampaignRunner(_spec(), _engine(), shard_index=2,
                           shard_count=2)
