"""TOML/JSON campaign spec parsing and validation."""

import json

import pytest

from repro.campaign import load_spec, parse_spec
from repro.campaign import spec as spec_mod
from repro.errors import ConfigError

needs_tomllib = pytest.mark.skipif(
    spec_mod.tomllib is None,
    reason="TOML specs need Python 3.11+ (tomllib)")

TOML_SPEC = """
name = "nightly"
max_instructions = 1000000

[axes]
mechanisms = ["baseline", "softbound", "lowfat"]
filters    = ["unopt", "dominance", "ranges"]
engines    = ["codegen", "interp"]

[[instance]]
label = "softbound-meta"

[targets]
workloads = ["164gzip", "181mcf"]

[[target]]
name = "inline"
source = "int main() { print_i64(1); return 0; }"
"""


@needs_tomllib
class TestToml:
    def test_full_spec(self, tmp_path):
        path = tmp_path / "nightly.toml"
        path.write_text(TOML_SPEC)
        spec = load_spec(path)
        assert spec.name == "nightly"
        assert spec.max_instructions == 1_000_000
        # 7 axis instances x 2 engines + 1 explicit = 15
        assert len(spec.instances) == 15
        assert len(spec.targets) == 3
        assert len(spec.expand()) == 15 * 3

    def test_invalid_toml_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("name = [unclosed")
        with pytest.raises(ConfigError, match="invalid TOML"):
            load_spec(path)


class TestJson:
    def _load(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return load_spec(path)

    def test_json_spec(self, tmp_path):
        spec = self._load(tmp_path, {
            "axes": {"mechanisms": ["baseline", "softbound"]},
            "targets": {"workloads": ["164gzip"]},
        })
        assert spec.name == "spec"
        assert len(spec.expand()) == 2

    def test_workloads_all(self, tmp_path):
        from repro.workloads import all_names

        spec = self._load(tmp_path, {
            "axes": {"mechanisms": ["baseline"]},
            "targets": {"workloads": "all"},
        })
        assert len(spec.targets) == len(all_names())

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("{}")
        with pytest.raises(ConfigError, match=r"\.toml or \.json"):
            load_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec(tmp_path / "absent.json")


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown campaign spec key"):
            parse_spec({"axes": {"mechanisms": ["baseline"]},
                        "targets": {"workloads": ["164gzip"]},
                        "turbo": True})

    def test_unknown_axes_key(self):
        with pytest.raises(ConfigError, match="unknown \\[axes\\] key"):
            parse_spec({"axes": {"mechanisms": ["baseline"],
                                 "speed": ["fast"]},
                        "targets": {"workloads": ["164gzip"]}})

    def test_axes_need_mechanisms(self):
        with pytest.raises(ConfigError, match="needs at least"):
            parse_spec({"axes": {"engines": ["codegen"]},
                        "targets": {"workloads": ["164gzip"]}})

    def test_no_instances_rejected(self):
        with pytest.raises(ConfigError, match="no instances"):
            parse_spec({"targets": {"workloads": ["164gzip"]}})

    def test_no_targets_rejected(self):
        with pytest.raises(ConfigError, match="no targets"):
            parse_spec({"axes": {"mechanisms": ["baseline"]}})

    def test_target_needs_exactly_one_source_form(self):
        base = {"axes": {"mechanisms": ["baseline"]}}
        with pytest.raises(ConfigError, match="exactly one of"):
            parse_spec({**base, "target": [{"name": "x"}]})
        with pytest.raises(ConfigError, match="exactly one of"):
            parse_spec({**base, "target": [{"name": "x", "source": "s",
                                            "sources": {"a": "s"}}]})

    def test_unknown_mechanism_in_axes(self):
        with pytest.raises(ConfigError, match="unknown approach"):
            parse_spec({"axes": {"mechanisms": ["boundsguard"]},
                        "targets": {"workloads": ["164gzip"]}})

    @pytest.mark.parametrize("budget", ["abc", [1], True, 0, -5, 1e6])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ConfigError,
                           match="max_instructions must be a positive "
                                 "integer"):
            parse_spec({"axes": {"mechanisms": ["baseline"]},
                        "targets": {"workloads": ["164gzip"]},
                        "max_instructions": budget})

    def test_duplicate_instances_deduped(self):
        spec = parse_spec({
            "axes": {"mechanisms": ["baseline", "softbound"]},
            "instance": [{"label": "softbound"}],
            "targets": {"workloads": ["164gzip"]},
        })
        assert len(spec.instances) == 2
