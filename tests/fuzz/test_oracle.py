"""Oracle: matrix definitions, comparison logic, and real runs."""

import pytest

from repro.core.itarget import TargetStatistics
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.common import BenchResult
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import (
    FULL_MATRIX,
    MATRICES,
    QUICK_MATRIX,
    DifferentialOracle,
    Matrix,
    Mismatch,
)
from repro.vm.engines import ENGINES


def _result(label, *, output=("1", "done"), status="exit",
            checks_executed=0, cycles=100, static=None, **overrides):
    kwargs = dict(
        workload="w", label=label, extension_point="VectorizerStart",
        cycles=cycles, instructions=cycles, output=list(output),
        ok=status == "exit", describe=status,
        checks_executed=checks_executed, checks_wide=0,
        unsafe_percent=0.0, invariant_checks=0, trie_loads=0,
        trie_stores=0, shadow_stack_ops=0, lowfat_fallbacks=0,
        static=static or TargetStatistics(), status=status,
    )
    kwargs.update(overrides)
    return BenchResult(**kwargs)


class TestMatrices:
    def test_full_matrix_shape(self):
        assert len(FULL_MATRIX.labels) == 9
        # the full matrix always covers every registered VM engine, so
        # a new tier widens the fuzz surface without an edit here
        assert FULL_MATRIX.engines == ENGINES
        assert "codegen" in FULL_MATRIX.engines
        assert len(FULL_MATRIX) == 9 * len(ENGINES) == 18
        assert len(FULL_MATRIX.cells) == 18
        assert "softbound-hoist" in FULL_MATRIX.labels
        assert "lowfat-hoist" in FULL_MATRIX.labels

    def test_quick_matrix_shape(self):
        assert len(QUICK_MATRIX) == 3
        assert QUICK_MATRIX.engines == ("codegen",)

    def test_registry(self):
        assert MATRICES["full"] is FULL_MATRIX
        assert MATRICES["quick"] is QUICK_MATRIX

    def test_oracle_accepts_matrix_name(self):
        oracle = DifferentialOracle(matrix="quick")
        assert oracle.matrix is QUICK_MATRIX

    def test_unknown_matrix_rejected(self):
        with pytest.raises(ConfigError, match="unknown fuzz matrix"):
            DifferentialOracle(matrix="bogus")

    @pytest.mark.usefixtures("tiering")
    def test_multi_engine_matrix_caches_each_engine(self, tmp_path):
        """Cache keys carry the engine, so a multi-engine matrix caches
        every cell under its own engine and a warm rerun serves each
        engine only its own results."""
        program = generate_program(11, 0)
        cold = DifferentialOracle(matrix=_M2,
                                  cache=ResultCache(str(tmp_path)))
        assert cold.check_program(program) == []
        assert cold.executed_jobs == len(_M2) == 4
        assert len(list(ResultCache(str(tmp_path)).paths())) == 4
        warm = DifferentialOracle(matrix=_M2,
                                  cache=ResultCache(str(tmp_path)))
        assert warm.check_program(program) == []
        assert warm.executed_jobs == 0
        assert warm.engine.cache_hits == 4


#: tiny matrix for synthetic-grid tests
_M2 = Matrix("m2", labels=("baseline", "softbound"),
             engines=("codegen", "interp"))


def _grid(**cells):
    """cells keyed like baseline_codegen=..., softbound_interp=..."""
    out = {}
    for key, value in cells.items():
        label, engine = key.rsplit("_", 1)
        out[(label.replace("_", "-"), engine)] = value
    return out


class TestCompare:
    def _oracle(self, matrix=_M2):
        return DifferentialOracle(matrix=matrix)

    def _clean_grid(self):
        return _grid(
            baseline_codegen=_result("baseline"),
            baseline_interp=_result("baseline"),
            softbound_codegen=_result("softbound", checks_executed=5),
            softbound_interp=_result("softbound", checks_executed=5),
        )

    def test_clean_grid_no_mismatches(self):
        assert self._oracle()._compare("p", self._clean_grid()) == []

    def test_harness_failure_reported_alone(self):
        grid = self._clean_grid()
        grid[("softbound", "interp")] = BenchResult.failed(
            "w", "softbound", "VectorizerStart", "timed out after 5s")
        found = self._oracle()._compare("p", grid)
        assert [m.kind for m in found] == ["harness-failure"]
        assert "timed out" in found[0].detail

    def test_baseline_fault_short_circuits(self):
        grid = self._clean_grid()
        grid[("baseline", "codegen")] = _result(
            "baseline", status="fault", output=())
        found = self._oracle()._compare("p", grid)
        assert [m.kind for m in found] == ["baseline-fault"]

    def test_spurious_violation_is_output_divergence(self):
        grid = self._clean_grid()
        grid[("softbound", "codegen")] = _result(
            "softbound", status="violation", output=())
        kinds = {m.kind for m in self._oracle()._compare("p", grid)}
        assert "output-divergence" in kinds

    def test_changed_output_is_output_divergence(self):
        grid = self._clean_grid()
        grid[("softbound", "interp")] = _result(
            "softbound", output=("2", "done"), checks_executed=5)
        found = self._oracle()._compare("p", grid)
        assert any(m.kind == "output-divergence"
                   and m.engine == "interp" for m in found)

    def test_counter_drift_is_engine_divergence(self):
        grid = self._clean_grid()
        grid[("softbound", "interp")] = _result(
            "softbound", checks_executed=5, cycles=101)
        found = self._oracle()._compare("p", grid)
        assert [m.kind for m in found] == ["engine-divergence"]
        assert "cycles" in found[0].detail

    def test_baseline_with_checks_is_filter_invariant(self):
        grid = self._clean_grid()
        grid[("baseline", "interp")] = _result(
            "baseline", checks_executed=3)
        kinds = [m.kind for m in self._oracle()._compare("p", grid)]
        # the engines also disagree on the counter, so both fire
        assert "filter-invariant" in kinds

    def test_filter_chain_monotonicity(self):
        matrix = Matrix("chain",
                        labels=("baseline", "softbound-unopt", "softbound"),
                        engines=("codegen",))
        grid = _grid(
            baseline_codegen=_result("baseline"),
            softbound_unopt_codegen=_result("softbound-unopt",
                                            checks_executed=10),
            softbound_codegen=_result("softbound", checks_executed=12),
        )
        found = self._oracle(matrix)._compare("p", grid)
        assert [m.kind for m in found] == ["filter-invariant"]
        assert "filters may only remove checks" in found[0].detail

    def test_static_overfiltering_flagged(self):
        grid = self._clean_grid()
        bad = TargetStatistics(gathered_checks=4, filtered_checks=3,
                               range_filtered_checks=2)
        grid[("softbound", "codegen")] = _result(
            "softbound", checks_executed=5, static=bad)
        found = self._oracle()._compare("p", grid)
        assert any(m.kind == "filter-invariant"
                   and "static filtered" in m.detail for m in found)


@pytest.mark.usefixtures("tiering")
class TestRealRuns:
    def test_quick_matrix_clean_program(self):
        oracle = DifferentialOracle(matrix=QUICK_MATRIX)
        program = generate_program(11, 0)
        assert oracle.check_program(program) == []

    def test_undefined_program_reports_divergence(self):
        """A program with real UB is exactly what the oracle must
        flag: out-of-bounds pointer *arithmetic* runs to completion
        uninstrumented (and under SoftBound, which only checks
        dereferences) but trips Low-Fat's escaping-pointer invariant."""
        oracle = DifferentialOracle(matrix=QUICK_MATRIX)
        source = """
int main() {
    int *a = (int *) malloc(sizeof(int) * 4);
    a[0] = 7;
    int *p2 = a + 100;
    print_i64((long)(p2 - a));
    print_i64(a[0]);
    free((void*)a);
    return 0;
}
"""
        mismatches = oracle.check_sources({"main.c": source}, "oob-arith")
        assert [m.kind for m in mismatches] == ["output-divergence"]
        assert mismatches[0].label == "lowfat"
        assert all(m.sources for m in mismatches)

    def test_baseline_fault_reported_for_oob_read(self):
        """OOB dereference faults in the *uninstrumented* VM too: the
        oracle classifies that as a frontend/VM problem, not an
        instrumentation divergence."""
        oracle = DifferentialOracle(matrix=QUICK_MATRIX)
        source = """
int main() {
    int *a = (int *) malloc(sizeof(int) * 4);
    print_i64(a[7]);
    free((void*)a);
    return 0;
}
"""
        mismatches = oracle.check_sources({"main.c": source}, "oob-read")
        assert [m.kind for m in mismatches] == ["baseline-fault"]

    def test_report_shape(self):
        oracle = DifferentialOracle(matrix=QUICK_MATRIX)
        programs = [generate_program(11, 0)]
        report = oracle.run(programs, seed=11)
        assert report.ok
        assert report.programs == 1
        assert report.cells_per_program == 3
        assert report.executed_jobs == 3
        doc = report.to_json()
        assert doc["ok"] is True
        assert doc["matrix"] == "quick"
        assert "no mismatches" in report.summary()

    def test_mismatch_json_roundtrip_fields(self):
        m = Mismatch(program="p", kind="output-divergence",
                     label="softbound", engine="codegen", detail="d",
                     seed=1, index=2, sources={"main.c": "x"})
        doc = m.to_json()
        assert doc["sources"] == {"main.c": "x"}
        assert "sources" not in m.to_json(include_sources=False)
        assert "output-divergence" in m.headline()
