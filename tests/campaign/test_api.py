"""The redesigned public API: instances, targets, expansion, and the
mechanism registry it rests on."""

from itertools import combinations

import pytest

from repro.campaign import (
    FILTER_SETS,
    KNOWN_FILTERS,
    CampaignSpec,
    Instance,
    Target,
    axes_instances,
    parse_spec,
    standard_instances,
)
from repro.core.config import APPROACHES, MODES, InstrumentationConfig
from repro.core.mechanism import (
    MechanismRegistration,
    create_mechanism,
    get_mechanism,
    handle_mechanism_flag,
    mechanism_names,
    register_mechanism,
)
from repro.errors import ConfigError
from repro.experiments.common import CONFIG_LABELS, config_for, label_for


class TestInstance:
    def test_canonical_labels_match_experiment_harness(self):
        # every canonical CONFIG_LABELS label round-trips: label ->
        # Instance -> same label AND bit-identical configuration
        for label in CONFIG_LABELS:
            instance = Instance.from_label(label)
            assert instance.label == label
            assert instance.config() == config_for(label)

    def test_baseline_has_no_config(self):
        assert Instance("baseline").config() is None
        assert Instance("noop").is_baseline

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigError, match="unknown approach"):
            Instance("boundsguard")

    def test_unknown_filter_rejected(self):
        with pytest.raises(ConfigError, match="unknown check filter"):
            Instance("softbound", filters=("alias",))

    def test_unknown_engine_rejected(self):
        # "compiled" names the retired closure tier: no alias remains.
        for engine in ("jit", "compiled"):
            with pytest.raises(ConfigError,
                               match="unknown VM engine") as info:
                Instance("softbound", engine=engine)
            assert "codegen, interp" in str(info.value)
            assert "\n" not in str(info.value)

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration"):
            Instance.from_label("softbound-turbo")

    def test_name_includes_engine(self):
        assert Instance("softbound", filters=("dominance",),
                        engine="interp").name == "softbound@interp"

    def test_parse_label_form(self):
        instance = Instance.parse({"label": "lowfat-ranges",
                                   "engine": "interp"})
        assert instance.mechanism == "lowfat"
        assert instance.filters == ("dominance", "ranges")
        assert instance.engine == "interp"

    def test_parse_explicit_form(self):
        instance = Instance.parse({"mechanism": "softbound",
                                   "filters": "ranges",
                                   "mode": "full"})
        assert instance.label == "softbound-ranges"

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown instance key"):
            Instance.parse({"mechanism": "softbound", "turbo": True})
        with pytest.raises(ConfigError, match="cannot also set"):
            Instance.parse({"label": "softbound", "mode": "full"})

    def test_config_overrides_applied(self):
        instance = Instance("softbound", filters=("dominance",),
                            config_overrides={
                                "sb_missing_metadata_wide": True})
        config = instance.config()
        assert config.sb_missing_metadata_wide is True
        assert "sb_missing_metadata_wide=True" in instance.label

    @pytest.mark.parametrize("overrides, key", [
        ({"bogus_field": True}, "bogus_field"),
        ({"sb_wrapper_checks": "yes please"}, "sb_wrapper_checks"),
        ({"sb_wrapper_checks": 1}, "sb_wrapper_checks"),
        ({"opt_dominance": "yes please"}, "opt_dominance"),
        ({"opt_ranges": True}, "opt_ranges"),
        ({"mode": "full"}, "mode"),
        ({"approach": "lowfat"}, "approach"),
    ])
    def test_bad_override_rejected_when_built(self, overrides, key):
        # unknown fields, non-bool values and fields the instance's own
        # axes set are one-line errors naming the key
        with pytest.raises(ConfigError, match=repr(key)) as info:
            Instance.parse({"mechanism": "softbound",
                            "config": overrides})
        assert "\n" not in str(info.value)


class TestLabels:
    """One grammar: ``config_for`` and ``label_for`` are inverses."""

    def test_config_labels_round_trip(self):
        for label in CONFIG_LABELS:
            assert label_for(config_for(label)) == label

    def test_every_filter_set_and_mode_is_distinct(self):
        instances = [Instance(mechanism, filters=filters, mode=mode)
                     for mechanism in ("softbound", "lowfat")
                     for mode in MODES
                     for n in range(len(KNOWN_FILTERS) + 1)
                     for filters in combinations(KNOWN_FILTERS, n)]
        assert len(instances) == 32
        assert len({i.label for i in instances}) == 32
        assert len({i.name for i in instances}) == 32
        for instance in instances:
            assert config_for(instance.label) == instance.config()
            assert Instance.from_label(instance.label).config() == \
                instance.config()

    def test_non_canonical_filter_set_has_its_own_label(self):
        alone = Instance("softbound", filters=("ranges",))
        assert alone.label == "softbound-unopt-opt_ranges=True"
        assert alone.label != Instance.from_label("softbound-ranges").label

    def test_overrides_round_trip(self):
        config = InstrumentationConfig.softbound(
            opt_dominance=True, sb_wrapper_checks=True,
            sb_size_zero_wide_upper=False)
        label = label_for(config)
        assert label == ("softbound-sb_size_zero_wide_upper=False"
                         "-sb_wrapper_checks=True")
        assert config_for(label) == config

    @pytest.mark.parametrize("label", [
        "softbound-turbo", "softbound-sb_wrapper_checks=yes",
        "softbound-mode=full", "softbound-bogus=True",
    ])
    def test_bad_labels_rejected(self, label):
        with pytest.raises(ConfigError, match="unknown configuration"):
            config_for(label)

    def test_spec_keeps_both_ranges_instances(self):
        # ranges alone and dominance+ranges are two configurations,
        # so two cells
        spec = parse_spec({
            "instance": [{"mechanism": "softbound",
                          "filters": ["ranges"]},
                         {"label": "softbound-ranges"}],
            "targets": {"workloads": ["164gzip"]},
        })
        cells = spec.expand()
        assert len(cells) == 2
        assert {c.instance.config() for c in cells} == {
            config_for("softbound-ranges"),
            InstrumentationConfig(approach="softbound", opt_ranges=True)}


class TestExpansion:
    def test_expansion_is_deterministic_and_order_independent(self):
        instances = standard_instances(
            ("baseline", "softbound", "lowfat-ranges"),
            engines=("codegen", "interp"))
        targets = [Target("164gzip"), Target("181mcf")]
        forward = CampaignSpec("s", instances, targets).expand()
        backward = CampaignSpec("s", list(reversed(instances)),
                                list(reversed(targets))).expand()
        assert [c.id for c in forward] == [c.id for c in backward]
        assert len(forward) == 6 * 2

    def test_duplicate_cells_collapse(self):
        instances = standard_instances(("baseline", "baseline"))
        spec = CampaignSpec("s", instances, [Target("164gzip")])
        assert len(spec.expand()) == 1

    def test_axes_product_collapses_baseline(self):
        instances = axes_instances(
            mechanisms=("baseline", "softbound", "lowfat"),
            filters=("unopt", "dominance", "ranges"),
            engines=("codegen", "interp"))
        # 1 baseline + 3 softbound + 3 lowfat per engine
        assert len(instances) == 14
        names = [i.name for i in instances]
        assert names.count("baseline@codegen") == 1
        assert names.count("baseline@interp") == 1

    def test_axes_unknown_filter_rejected(self):
        with pytest.raises(ConfigError, match="unknown filter-axis"):
            axes_instances(mechanisms=("softbound",), filters=("turbo",))

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError, match="no instances"):
            CampaignSpec("s", [], [Target("164gzip")])
        with pytest.raises(ConfigError, match="no targets"):
            CampaignSpec("s", standard_instances(("baseline",)), [])

    def test_unknown_workload_fails_at_request_time(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            Target("999nope").workload()


class TestRegistry:
    def test_every_builtin_round_trips(self):
        # the registry replaces the old APPROACHES tuple: every
        # registered name builds a working config and mechanism
        assert set(mechanism_names()) == {"noop", "softbound", "lowfat"}
        for name in mechanism_names():
            registration = get_mechanism(name)
            assert isinstance(registration, MechanismRegistration)
            config = InstrumentationConfig(approach=name)
            mechanism = create_mechanism(config)
            if name == "noop":
                assert mechanism is None
            else:
                assert mechanism is not None

    def test_approaches_attribute_still_works(self):
        # legacy import surface: config.APPROACHES is now a registry view
        assert set(APPROACHES) == set(mechanism_names())

    def test_unknown_name_is_config_error(self):
        with pytest.raises(ConfigError, match="registered mechanisms"):
            get_mechanism("boundsguard")
        with pytest.raises(ConfigError):
            InstrumentationConfig(approach="boundsguard")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mechanism("softbound", factory=lambda config: None)

    def test_flag_handlers_consulted(self):
        kwargs = {}
        assert handle_mechanism_flag("-mi-sb-size-zero-wide-upper", kwargs)
        assert kwargs["sb_size_zero_wide_upper"] is True
        assert not handle_mechanism_flag("-mi-unknown-flag", {})


class TestLegacyFlagParsing:
    """Golden test: the artifact's -mi-* flag surface parses through
    the registry exactly as the pre-registry parser did."""

    GOLDEN = {
        ("-mi-config=softbound",):
            InstrumentationConfig(approach="softbound"),
        ("-mi-config=lowfat", "-mi-opt-dominance"):
            InstrumentationConfig(approach="lowfat", opt_dominance=True),
        ("-mi-config=softbound", "-mi-opt-dominance", "-mi-opt-ranges"):
            InstrumentationConfig(approach="softbound", opt_dominance=True,
                                  opt_ranges=True),
        ("-mi-config=softbound", "-mi-mode=geninvariants"):
            InstrumentationConfig(approach="softbound",
                                  mode="geninvariants"),
        ("-mi-config=softbound", "-mi-sb-size-zero-wide-upper"):
            InstrumentationConfig(approach="softbound",
                                  sb_size_zero_wide_upper=True),
        ("-mi-config=softbound", "-mi-sb-inttoptr-wide-bounds"):
            InstrumentationConfig(approach="softbound",
                                  sb_inttoptr_wide_bounds=True),
        ("-mi-config=lowfat",
         "-mi-lf-transform-common-to-weak-linkage"):
            InstrumentationConfig(
                approach="lowfat",
                lf_transform_common_to_weak_linkage=True),
        ("-mi-config=softbound", "-mi-policy-ignore-inline-asm"):
            InstrumentationConfig(approach="softbound",
                                  policy_ignore_inline_asm=True),
        ("-mi-config=softbound", "-mi-sb-missing-metadata-wide"):
            InstrumentationConfig(approach="softbound",
                                  sb_missing_metadata_wide=True),
        ("-mi-config=softbound", "-mi-sb-wrapper-checks"):
            InstrumentationConfig(approach="softbound",
                                  sb_wrapper_checks=True),
    }

    def test_golden_flag_combinations(self):
        for flags, expected in self.GOLDEN.items():
            assert InstrumentationConfig.from_flags(list(flags)) == expected

    def test_unknown_flag_still_rejected(self):
        with pytest.raises(ConfigError, match="unknown MemInstrument"):
            InstrumentationConfig.from_flags(
                ["-mi-config=softbound", "-mi-sb-enable-turbo"])

    def test_unknown_flag_exits_2_without_traceback(self, capsys):
        from repro.cli import main

        code = main(["run", "/dev/null", "-mi-config=softbound",
                     "-mi-sb-enable-turbo"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "unknown MemInstrument" in err

    def test_unknown_mechanism_name_exits_2(self, capsys):
        from repro.cli import main

        code = main(["run", "/dev/null", "-mi-config=boundsguard"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "registered mechanisms" in err
