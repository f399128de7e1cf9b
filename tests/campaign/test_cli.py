"""The ``repro campaign`` subcommand end to end."""

import json

import pytest

from repro.cli import main

SPEC = {
    "name": "cli-test",
    "max_instructions": 3000000,
    "axes": {
        "mechanisms": ["baseline", "softbound"],
        "filters": ["ranges"],
        "engines": ["codegen", "interp"],
    },
    "target": [
        {
            "name": "tiny",
            "source": ("int main() { int a[4]; long s = 0; "
                       "for (int i = 0; i < 4; i++) { a[i] = i; } "
                       "for (int i = 0; i < 4; i++) { s = s + a[i]; } "
                       "print_i64(s); return 0; }"),
        }
    ],
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


class TestCampaignCommand:
    def test_cold_then_warm_run(self, spec_path, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["campaign", spec_path, "--jobs", "1",
                     "--cache-dir", cache]) == 0
        cold = capsys.readouterr()
        assert "4 cells" in cold.out
        assert "all cells ok" in cold.out
        assert "4 jobs executed" in cold.err

        assert main(["campaign", spec_path, "--jobs", "1",
                     "--cache-dir", cache]) == 0
        warm = capsys.readouterr()
        assert "0 jobs executed, 4 served from cache" in warm.err

    def test_dry_run_lists_cells(self, spec_path, capsys):
        assert main(["campaign", spec_path, "--dry-run",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "baseline@codegen|tiny" in out
        assert "softbound-ranges@interp|tiny" in out
        assert len(out.strip().splitlines()) == 4

    def test_json_output(self, spec_path, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        assert main(["campaign", spec_path, "--jobs", "1", "--no-cache",
                     "--format", "json", "--output", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["ok"] is True
        assert doc["campaign"] == "cli-test"
        assert len(doc["cells"]) == 4

    def test_history_appended(self, spec_path, tmp_path, capsys):
        history = tmp_path / "BENCH_cli.json"
        for _ in range(2):
            assert main(["campaign", spec_path, "--jobs", "1",
                         "--no-cache", "--history", str(history),
                         "--fail-on-regression"]) == 0
        doc = json.loads(history.read_text())
        assert len(doc["entries"]) == 2

    def test_sharded_dry_runs_partition(self, spec_path, capsys):
        lines = []
        for index in range(2):
            assert main(["campaign", spec_path, "--dry-run", "--no-cache",
                         "--shard-index", str(index),
                         "--shard-count", "2"]) == 0
            lines.extend(capsys.readouterr().out.strip().splitlines())
        assert len(lines) == 4
        assert len(set(lines)) == 4

    def test_missing_spec_is_exit_2(self, tmp_path, capsys):
        assert main(["campaign", str(tmp_path / "none.toml")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides, key", [
        ({"bogus_field": True}, "bogus_field"),
        ({"opt_dominance": "yes please"}, "opt_dominance"),
    ])
    def test_bad_config_override_is_exit_2(self, tmp_path, capsys,
                                           overrides, key):
        # rejected when the spec is read, so --dry-run fails too
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "instance": [{"mechanism": "softbound", "config": overrides}],
            "targets": {"workloads": ["164gzip"]},
        }))
        assert main(["campaign", str(path), "--dry-run",
                     "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"{key!r}" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_bad_shard_is_exit_2(self, spec_path, capsys):
        assert main(["campaign", spec_path, "--shard-index", "9",
                     "--shard-count", "2", "--no-cache"]) == 2
