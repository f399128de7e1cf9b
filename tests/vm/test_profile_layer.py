"""Tests for the per-check-site profiling layer.

The layer's contract has three legs:

* **conservation** -- per-site executed/wide counts sum exactly to the
  aggregate ``checks_executed``/``checks_wide`` under both engines;
* **observer neutrality** -- running with ``profile=True`` changes no
  pre-existing stats field: cycles, instructions, opcode counts and
  check counters are bit-identical to an unprofiled run;
* **engine identity** -- the codegen tier's batched block charging
  (plus mi-native delta attribution and rollback) produces the same
  ``instrumentation_cycles`` and per-site counters as the
  tree-walker's per-instruction attribution, on every workload.
"""

import dataclasses

import pytest

from repro import CompileOptions, compile_program, run_program
from repro.core import InstrumentationConfig
from repro.experiments.common import config_for
from repro.vm.engines import ENGINES
from repro.workloads import all_names, get

SB = InstrumentationConfig.softbound()
LF = InstrumentationConfig.lowfat()
OPTS = CompileOptions(verify=True)

SRC = r"""
int g[0];
int main() {
    int *a = (int *) malloc(sizeof(int) * 8);
    int i;
    int acc = 0;
    for (i = 0; i < 8; i = i + 1) a[i] = i;
    for (i = 0; i < 8; i = i + 1) acc = acc + a[i];
    print_i64(acc);
    free((void*)a);
    return 0;
}"""

WORKLOADS = ("164gzip", "429mcf")
LABELS = ("softbound", "lowfat")


def _run(program, engine, profile):
    return run_program(program, max_instructions=50_000_000,
                       engine=engine, profile=profile)


def _workload_program(name, label):
    workload = get(name)
    return compile_program(
        workload.sources, config_for(label),
        CompileOptions(
            obfuscate_pointer_copies=tuple(workload.obfuscated_units)),
    )


def _core_fields(stats):
    d = dataclasses.asdict(stats)
    d.pop("profile")
    d.pop("instrumentation_cycles")
    d.pop("per_site")
    return d


class TestConservation:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("label", LABELS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_per_site_sums_match_aggregates(self, name, label, engine):
        program = _workload_program(name, label)
        stats = _run(program, engine, profile=True).stats
        assert sum(c.get("executed", 0) for c in stats.per_site.values()) \
            == stats.checks_executed
        assert sum(c.get("wide", 0) for c in stats.per_site.values()) \
            == stats.checks_wide
        assert sum(c.get("invariant", 0) for c in stats.per_site.values()) \
            == stats.invariant_checks

    def test_every_dynamic_site_has_static_info(self):
        program = compile_program(SRC, SB, OPTS)
        stats = _run(program, "interp", profile=True).stats
        assert stats.per_site       # the loops execute checks
        for site in stats.per_site:
            assert site in program.check_sites
            info = program.check_sites[site]
            assert info.mechanism == "softbound"
            assert info.kind in ("deref", "invariant")


class TestObserverNeutrality:
    @pytest.mark.usefixtures("tiering")
    @pytest.mark.parametrize("config", [SB, LF], ids=["sb", "lf"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_profile_changes_no_preexisting_stat(self, config, engine):
        program = compile_program(SRC, config, OPTS)
        plain = _run(program, engine, profile=False)
        profiled = _run(program, engine, profile=True)
        assert plain.output == profiled.output
        assert _core_fields(plain.stats) == _core_fields(profiled.stats)
        # per_site executed/wide are recorded either way; profiling only
        # adds cycles/reason keys on top
        for site, counter in plain.stats.per_site.items():
            prof = profiled.stats.per_site[site]
            assert counter["executed"] == prof["executed"]
            assert counter.get("wide", 0) == prof.get("wide", 0)

    def test_profile_flag_off_means_no_attribution(self):
        program = compile_program(SRC, SB, OPTS)
        stats = _run(program, "interp", profile=False).stats
        assert stats.profile is False
        assert stats.instrumentation_cycles == 0
        assert all("cycles" not in c for c in stats.per_site.values())


class TestEngineIdentity:
    @pytest.mark.usefixtures("tiering")
    @pytest.mark.parametrize("config", [SB, LF], ids=["sb", "lf"])
    def test_attribution_identical_across_engines(self, config):
        program = compile_program(SRC, config, OPTS)
        interp = _run(program, "interp", profile=True)
        codegen = _run(program, "codegen", profile=True)
        assert dataclasses.asdict(interp.stats) == \
            dataclasses.asdict(codegen.stats)
        assert interp.stats.instrumentation_cycles > 0

    @pytest.mark.parametrize("name", all_names())
    @pytest.mark.parametrize("label", LABELS)
    def test_workload_attribution_identical(self, name, label):
        program = _workload_program(name, label)
        interp = _run(program, "interp", profile=True).stats
        codegen = _run(program, "codegen", profile=True).stats
        assert interp.instrumentation_cycles \
            == codegen.instrumentation_cycles
        assert {k: dict(v) for k, v in interp.per_site.items()} \
            == {k: dict(v) for k, v in codegen.per_site.items()}

    @pytest.mark.usefixtures("tiering")
    def test_attribution_bounded_by_cycles(self):
        program = compile_program(SRC, LF, OPTS)
        stats = _run(program, "codegen", profile=True).stats
        assert 0 < stats.instrumentation_cycles < stats.cycles
