"""Reducer: ddmin correctness and mismatch minimization."""

import pytest

from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import Mismatch
from repro.fuzz.reduce import (
    _balanced,
    ddmin,
    minimize_mismatch,
    mismatch_signature,
    reduce_source,
)


class TestBalanced:
    def test_balanced(self):
        assert _balanced("int main() { if (x) { y(); } }")

    def test_unbalanced_open(self):
        assert not _balanced("int main() {")

    def test_close_before_open(self):
        assert not _balanced("} {")

    def test_bracket_kinds_tracked_separately(self):
        assert not _balanced("a[0)")


class TestDdmin:
    def test_converges_to_needles(self):
        lines = [f"l{i}" for i in range(50)]
        lines[13] = "KEEP-A"
        lines[37] = "KEEP-B"
        out = ddmin(lines,
                    lambda ls: "KEEP-A" in ls and "KEEP-B" in ls)
        assert out == ["KEEP-A", "KEEP-B"]

    def test_single_needle(self):
        lines = [f"l{i}" for i in range(33)] + ["BUG"]
        assert ddmin(lines, lambda ls: "BUG" in ls) == ["BUG"]

    def test_rejects_non_reproducing_input(self):
        with pytest.raises(ValueError, match="predicate does not hold"):
            ddmin(["a", "b"], lambda ls: False)

    def test_predicate_never_lost(self):
        """Every intermediate acceptance (and the result) satisfies
        the predicate -- the reducer can shrink but never trade away
        the failure."""
        accepted = []

        def predicate(ls):
            ok = "BUG" in ls
            if ok:
                accepted.append(list(ls))
            return ok

        out = ddmin([f"l{i}" for i in range(20)] + ["BUG"] +
                    [f"r{i}" for i in range(20)], predicate)
        assert out == ["BUG"]
        assert all("BUG" in ls for ls in accepted)

    def test_budget_respected(self):
        calls = []

        def predicate(ls):
            calls.append(1)
            return "BUG" in ls

        ddmin([f"l{i}" for i in range(64)] + ["BUG"], predicate,
              max_checks=10)
        # one free call to validate the input, then at most the budget
        assert len(calls) <= 11


class TestReduceSource:
    def test_removes_brace_pairs(self):
        source = "\n".join([
            "int main() {",
            "    if (x) {",
            "        keep();",
            "    }",
            "    drop();",
            "}",
        ])
        out = reduce_source(source, lambda text: "keep()" in text)
        assert "keep()" in out
        assert "drop()" not in out
        assert _balanced(out)

    def test_unbalanced_candidates_cost_nothing(self):
        evaluated = []

        def predicate(text):
            evaluated.append(text)
            return "keep" in text

        reduce_source("{\nkeep\n}", predicate)
        for text in evaluated:
            assert _balanced(text)


class _StubOracle:
    """Artificial miscompare: 'fires' while the program still contains
    both marker constructs."""

    def __init__(self):
        self.calls = 0

    def check_sources(self, sources, name="x"):
        self.calls += 1
        text = sources.get("main.c", "")
        if "realloc" in text and "rec0(" in text:
            return [Mismatch(program=name, kind="output-divergence",
                             label="softbound", engine="codegen",
                             detail="stub miscompare")]
        if "unrelated-breakage" in text:
            return [Mismatch(program=name, kind="harness-failure",
                             label="baseline", engine="codegen",
                             detail="CompileError: nope")]
        return []


class TestMinimizeMismatch:
    def _seeded_mismatch(self):
        # seed 3 / index 2 generates a two-unit program (main.c + lib.c)
        program = generate_program(3, 2)
        oracle = _StubOracle()
        mismatch = oracle.check_sources(program.sources)[0]
        mismatch.sources = dict(program.sources)
        return program, mismatch

    def test_converges_to_small_reproducer(self):
        program, mismatch = self._seeded_mismatch()
        oracle = _StubOracle()
        reduced = minimize_mismatch(mismatch, oracle, max_checks=2000)
        original_lines = len(program.sources["main.c"].splitlines())
        reduced_lines = len(reduced["main.c"].splitlines())
        assert original_lines > 100
        assert reduced_lines <= 15, reduced["main.c"]
        # the failure predicate survived minimization
        found = _StubOracle().check_sources(reduced)
        assert mismatch_signature(found[0]) == mismatch_signature(mismatch)

    def test_second_unit_dropped_when_irrelevant(self):
        _, mismatch = self._seeded_mismatch()
        assert "lib.c" in mismatch.sources
        reduced = minimize_mismatch(mismatch, _StubOracle(),
                                    max_checks=2000)
        assert "lib.c" not in reduced

    def test_non_reproducing_mismatch_rejected(self):
        mismatch = Mismatch(program="p", kind="output-divergence",
                            label="softbound", engine="codegen",
                            detail="d",
                            sources={"main.c": "int main() { return 0; }"})
        with pytest.raises(ValueError, match="does not reproduce"):
            minimize_mismatch(mismatch, _StubOracle())

    def test_missing_sources_rejected(self):
        mismatch = Mismatch(program="p", kind="output-divergence",
                            label="softbound", engine="codegen",
                            detail="d")
        with pytest.raises(ValueError, match="no sources"):
            minimize_mismatch(mismatch, _StubOracle())

    def test_signature_mismatch_not_accepted(self):
        """A candidate that fails differently (e.g. stops compiling)
        must not satisfy the reducer's predicate."""
        _, mismatch = self._seeded_mismatch()
        oracle = _StubOracle()
        reduced = minimize_mismatch(mismatch, oracle, max_checks=2000)
        assert "unrelated-breakage" not in reduced["main.c"]
        found = _StubOracle().check_sources(reduced)
        assert all(m.kind == "output-divergence" for m in found)
