"""Cross-run regression tracking over BENCH_*.json time series."""

import copy
import json

import pytest

from repro.campaign import (
    append_entry,
    compare_entries,
    find_regressions,
    load_history,
)
from repro.campaign.run import CampaignResult, CellResult
from repro.errors import ConfigError
from repro.experiments.common import BenchResult


def _bench(label, cycles, status="exit"):
    result = BenchResult.failed("w", label, "VectorizerStart", "x")
    result.cycles = cycles
    result.status = status
    result.ok = status == "exit"
    return result


def _result(cycles_by_label, spec_name="camp", shard_index=0,
            shard_count=1):
    cells = [
        CellResult(instance=f"{label}@codegen", target="w", label=label,
                   engine="codegen", result=_bench(label, cycles))
        for label, cycles in cycles_by_label.items()
    ]
    return CampaignResult(spec_name=spec_name, shard_index=shard_index,
                          shard_count=shard_count, cells=cells,
                          executed_jobs=len(cells), cache_hits=0)


class TestSeries:
    def test_append_creates_and_extends(self, tmp_path):
        path = tmp_path / "BENCH_camp.json"
        append_entry(path, _result({"baseline": 100, "softbound": 200}))
        append_entry(path, _result({"baseline": 100, "softbound": 200}))
        doc = load_history(path)
        assert doc["campaign"] == "camp"
        assert [e["sequence"] for e in doc["entries"]] == [0, 1]

    def test_malformed_history_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match="malformed"):
            load_history(path)

    def test_entry_records_overheads(self, tmp_path):
        path = tmp_path / "BENCH_camp.json"
        entry = append_entry(path,
                             _result({"baseline": 100, "softbound": 250}))
        assert entry["overheads"]["softbound@codegen"] == pytest.approx(2.5)


class TestRegressions:
    def test_identical_runs_are_clean(self, tmp_path):
        path = tmp_path / "BENCH_camp.json"
        for _ in range(2):
            append_entry(path, _result({"baseline": 100,
                                        "softbound": 200}))
        assert find_regressions(path) == []

    def test_cycle_increase_flagged(self, tmp_path):
        path = tmp_path / "BENCH_camp.json"
        append_entry(path, _result({"baseline": 100, "softbound": 200}))
        append_entry(path, _result({"baseline": 100, "softbound": 201}))
        regressions = find_regressions(path)
        assert any(r.kind == "cycles"
                   and r.subject == "softbound@codegen|w"
                   for r in regressions)

    def test_cycle_decrease_is_fine(self, tmp_path):
        path = tmp_path / "BENCH_camp.json"
        append_entry(path, _result({"baseline": 100, "softbound": 200}))
        append_entry(path, _result({"baseline": 100, "softbound": 150}))
        assert find_regressions(path) == []

    def test_overhead_regression_flagged(self, tmp_path):
        path = tmp_path / "BENCH_camp.json"
        append_entry(path, _result({"baseline": 100, "softbound": 200}))
        # faster baseline, same instrumented run -> overhead ratio up
        append_entry(path, _result({"baseline": 80, "softbound": 200}))
        kinds = {r.kind for r in find_regressions(path)}
        assert "overhead" in kinds
        assert "cycles" not in kinds

    def test_status_regression_flagged(self):
        good = {"cells": {"a|w": {"cycles": 10, "checks": 0,
                                  "status": "exit"}},
                "overheads": {}}
        bad = copy.deepcopy(good)
        bad["cells"]["a|w"]["status"] = "violation"
        regressions = compare_entries(good, bad)
        assert [r.kind for r in regressions] == ["status"]

    def test_new_cells_do_not_flag(self):
        previous = {"cells": {}, "overheads": {}}
        latest = {"cells": {"a|w": {"cycles": 10, "checks": 0,
                                    "status": "exit"}},
                  "overheads": {"a": 2.0}}
        assert compare_entries(previous, latest) == []

    def test_shards_compared_against_same_shard(self, tmp_path):
        path = tmp_path / "BENCH_camp.json"
        append_entry(path, _result({"softbound": 100}, shard_index=0,
                                   shard_count=2))
        append_entry(path, _result({"softbound": 999}, shard_index=1,
                                   shard_count=2))
        # shard 1's latest entry has no same-shard predecessor with
        # those cells; shard 0's 100 cycles must not be compared
        # against shard 1's 999
        append_entry(path, _result({"softbound": 999}, shard_index=1,
                                   shard_count=2))
        assert find_regressions(path) == []

    def test_single_entry_has_no_regressions(self, tmp_path):
        path = tmp_path / "BENCH_camp.json"
        append_entry(path, _result({"softbound": 100}))
        assert find_regressions(path) == []

    def test_live_series_round_trip(self, tmp_path):
        # history written by one process is comparable after reload
        path = tmp_path / "BENCH_camp.json"
        append_entry(path, _result({"baseline": 100, "softbound": 200}))
        document = json.loads(path.read_text())
        append_entry(path, _result({"baseline": 100, "softbound": 300}))
        kinds = sorted(r.kind for r in find_regressions(path))
        assert kinds == ["cycles", "overhead"]
        assert document["entries"][0]["cells"]
