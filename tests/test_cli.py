"""Tests for the command-line driver."""

import argparse
import mmap
import re

import pytest

from repro.cli import _build_parser, main
from repro.frontend.parser import MAX_NESTING
from repro.vm.engines import ENGINES

from .frontend.test_parser import (flat_sum, nested_ifs, nested_parens,
                                   nested_sums)


@pytest.fixture
def demo_c(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(r"""
int main() {
    int *a = (int *) malloc(sizeof(int) * 4);
    a[1] = 41;
    print_i64(a[1] + 1);
    free((void*)a);
    return 0;
}
""")
    return str(path)


@pytest.fixture
def buggy_c(tmp_path):
    path = tmp_path / "buggy.c"
    path.write_text(r"""
int main() {
    int *a = (int *) malloc(sizeof(int) * 4);
    a[999] = 1;
    free((void*)a);
    return 0;
}
""")
    return str(path)


SUBCOMMANDS = sorted(next(
    action for action in _build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)).choices)


class TestHelp:
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help_names_every_subcommand(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([flag])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert "table2" in SUBCOMMANDS and "run" in SUBCOMMANDS
        for command in SUBCOMMANDS:
            assert command in out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        assert command in capsys.readouterr().out


class TestRun:
    def test_plain_run(self, demo_c, capsys):
        assert main(["run", demo_c]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_softbound_clean(self, demo_c, capsys):
        assert main(["run", demo_c, "-mi-config=softbound"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_violation_exit_code(self, buggy_c, capsys):
        assert main(["run", buggy_c, "-mi-config=lowfat"]) == 134
        assert "violation" in capsys.readouterr().err

    def test_stats_flag(self, demo_c, capsys):
        assert main(["run", demo_c, "-mi-config=softbound", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "deref checks" in err

    def test_artifact_flag_set(self, demo_c, capsys):
        args = ["run", demo_c,
                "-mi-config=softbound",
                "-mi-sb-size-zero-wide-upper",
                "-mi-sb-inttoptr-wide-bounds",
                "-mi-policy-ignore-inline-asm",
                "-mi-opt-dominance"]
        assert main(args) == 0

    def test_extension_point_option(self, demo_c, capsys):
        args = ["run", demo_c, "-mi-config=lowfat",
                "--extension-point", "ModuleOptimizerEarly"]
        assert main(args) == 0

    def test_geninvariants_mode(self, buggy_c, capsys):
        # metadata-only: the far OOB store is not *reported* (it traps)
        code = main(["run", buggy_c, "-mi-config=softbound",
                     "-mi-mode=geninvariants"])
        assert code == 139
        assert "fault" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.c"]) == 1
        assert "error" in capsys.readouterr().err

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main() { return }")
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("source, message", [
        ("int main() {\n  double d = 1.5e;\n  return 0;\n}\n",
         "error: line 2: malformed number '1.5e'"),
        ("int main() {\n  char c = '\\", "error: line 2: unterminated char literal"),
    ])
    def test_malformed_literal_is_one_line(self, tmp_path, capsys, source,
                                           message):
        bad = tmp_path / "bad.c"
        bad.write_text(source)
        assert main(["run", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("source", [
        nested_parens(140), nested_ifs(245), flat_sum(491),
    ], ids=["parens", "ifs", "flat-sum"])
    def test_deep_nesting_is_one_line(self, tmp_path, capsys, source):
        deep = tmp_path / "deep.c"
        deep.write_text(source)
        assert main(["run", str(deep)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(
            rf"error: line \d+: nested deeper than {MAX_NESTING} levels",
            err[0])

    @pytest.mark.usefixtures("tiering")
    @pytest.mark.parametrize("engine", ENGINES)
    def test_refused_mapping_is_one_line(self, tmp_path, capsys, monkeypatch,
                                         engine):
        # A 4 MiB allocation is an mmap; when the host refuses it,
        # both engines report the same one-line error.
        def refuse(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", refuse)
        program = tmp_path / "big.c"
        program.write_text("int main() {\n"
                           "  char *p = (char *) malloc(4194304);\n"
                           "  p[0] = 1;\n  return p[0];\n}\n")
        assert main(["run", str(program), "--engine", engine]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot map a 4194304-byte allocation: "
            "[Errno 12] Cannot allocate memory"]

    @pytest.mark.usefixtures("tiering")
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("source, expected", [
        (nested_parens(63), 1), (nested_sums(63), 64), (nested_ifs(127), 2),
    ], ids=["63-parens", "63-parenthesised-sums", "127-blocks"])
    def test_c11_nesting_minimums_run(self, tmp_path, source, expected,
                                      engine):
        program = tmp_path / "nested.c"
        program.write_text(source)
        assert main(["run", str(program), "--engine", engine]) == expected

    def test_unknown_mi_flag_rejected(self, demo_c, capsys):
        # a clean one-line diagnostic and exit code 2 -- no traceback,
        # no argparse usage dump
        assert main(["run", demo_c, "-mi-frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "-mi-frobnicate" in err
        assert "Traceback" not in err

    def test_unknown_engine_rejected(self, demo_c, capsys):
        # "compiled" names the retired closure tier: no alias remains.
        for engine in ("jit", "compiled"):
            with pytest.raises(SystemExit) as info:
                main(["run", demo_c, "--engine", engine])
            assert info.value.code == 2
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if "error:" in line]
            assert errors == [
                f"repro run: error: argument --engine: invalid choice: "
                f"'{engine}' (choose from 'codegen', 'interp')"]

    @pytest.mark.parametrize("budget", ["0", "-5", "abc", "1.5"])
    @pytest.mark.parametrize("command", ["run", "profile", "fuzz", "serve"])
    def test_bad_budget_rejected(self, demo_c, capsys, command, budget):
        args = {"run": [demo_c], "profile": [demo_c, "-mi-config=lowfat"],
                "fuzz": [], "serve": []}[command]
        with pytest.raises(SystemExit) as info:
            main([command, *args, "--max-instructions", budget])
        assert info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == [
            f"repro {command}: error: argument --max-instructions: "
            f"must be a positive integer, got {budget!r}"]

    def test_dump_codegen_needs_codegen_engine(self, demo_c, tmp_path,
                                               capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", demo_c, "--engine", "interp",
                  "--dump-codegen", str(tmp_path / "dump")])
        assert info.value.code == 2
        assert "--dump-codegen needs --engine codegen" in \
            capsys.readouterr().err
        assert not (tmp_path / "dump").exists()

    def test_bad_mi_config_value_rejected(self, demo_c, capsys):
        assert main(["run", demo_c, "-mi-config=magic"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_opt_ranges_flag(self, demo_c, capsys):
        assert main(["run", demo_c, "-mi-config=softbound",
                     "-mi-opt-dominance", "-mi-opt-ranges"]) == 0
        assert capsys.readouterr().out.strip() == "42"


class TestEmit:
    def test_emit_prints_ir(self, demo_c, capsys):
        assert main(["emit", demo_c, "-mi-config=softbound"]) == 0
        out = capsys.readouterr().out
        assert "define i32 @main()" in out
        assert "__sb_check" in out
        assert "__sb_wrap_malloc" in out

    def test_emitted_ir_reparses(self, demo_c, capsys):
        from repro.ir import parse_module, verify_module

        main(["emit", demo_c, "-mi-config=lowfat"])
        text = capsys.readouterr().out
        mod = parse_module(text)
        verify_module(mod)


class TestLint:
    @pytest.fixture
    def huge_c(self, tmp_path):
        path = tmp_path / "huge.c"
        path.write_text(r"""
int main() {
    char *big = (char *) malloc(1073741824);
    big[0] = 1;
    free((void*)big);
    return 0;
}
""")
        return str(path)

    def test_lint_source_file(self, huge_c, capsys):
        assert main(["lint", huge_c]) == 0
        out = capsys.readouterr().out
        assert "huge-allocation" in out
        assert "paper section 4.6" in out

    def test_lint_clean_file(self, demo_c, capsys):
        assert main(["lint", demo_c]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out
        assert "0 finding(s)" in out

    def test_lint_workload_by_name(self, capsys):
        assert main(["lint", "456hmmer"]) == 0
        out = capsys.readouterr().out
        assert "inttoptr-roundtrip" in out

    def test_lint_json_format(self, huge_c, capsys):
        import json

        assert main(["lint", huge_c, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in payload[huge_c]] == ["huge-allocation"]

    def test_lint_without_targets_errors(self, capsys):
        assert main(["lint"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_lint_missing_file(self, capsys):
        assert main(["lint", "/nonexistent.c"]) == 1
        assert "error" in capsys.readouterr().err

    def test_lint_compile_error_exits_like_run(self, tmp_path, capsys):
        # A program MiniC rejects is an error of the input, not of the
        # command line: lint exits 1 with run's one-line message.
        bad = tmp_path / "bad.c"
        bad.write_text("int main() { return }")
        assert main(["run", str(bad)]) == 1
        run_err = capsys.readouterr().err.splitlines()
        assert main(["lint", str(bad)]) == 1
        lint_err = capsys.readouterr().err.splitlines()
        assert len(lint_err) == 1 and lint_err[0].startswith("error: line 1: ")
        assert lint_err == run_err


class TestProfile:
    def test_profile_source_file(self, demo_c, capsys):
        assert main(["profile", demo_c, "-mi-config=softbound"]) == 0
        out = capsys.readouterr().out
        assert "approach: softbound" in out
        assert "Hottest check sites" in out
        assert "Wide-bounds attribution" in out

    def test_profile_workload_by_name(self, capsys):
        assert main(["profile", "164gzip", "-mi-config=softbound"]) == 0
        out = capsys.readouterr().out
        # the paper's Table 2 attribution, measured
        assert "sizeless-extern-array" in out

    def test_profile_json_schema_and_sums(self, capsys):
        import json

        assert main(["profile", "429mcf", "-mi-config=lowfat",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["approach"] == "lowfat"
        assert {"totals", "site_count", "sums", "sites",
                "wide_sites"} <= set(payload)
        assert payload["sums"]["executed"] \
            == payload["totals"]["checks_executed"]
        assert payload["sums"]["wide"] == payload["totals"]["checks_wide"]
        assert payload["totals"]["checks_wide"] > 0      # the >1GiB alloc
        wide_total = sum(
            sum(s["reasons"].values()) for s in payload["wide_sites"])
        assert wide_total == payload["totals"]["checks_wide"]

    def test_profile_top_limits_sites(self, capsys):
        import json

        assert main(["profile", "164gzip", "-mi-config=softbound",
                     "--format", "json", "--top", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["sites"]) == 3
        assert payload["site_count"] > 3

    def test_profile_requires_instrumented_config(self, demo_c, capsys):
        assert main(["profile", demo_c]) == 2
        err = capsys.readouterr().err
        assert "instrumented configuration" in err

    def test_profile_engines_agree(self, capsys):
        import json

        payloads = []
        for engine in ("interp", "codegen"):
            assert main(["profile", "181mcf", "-mi-config=lowfat",
                         "--engine", engine, "--format", "json"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1]


class TestBench:
    def test_bench_runs(self, capsys):
        assert main(["bench", "197parser", "-mi-config=softbound"]) == 0
        out = capsys.readouterr().out
        assert "197parser" in out and "cycles=" in out

    def test_bench_with_baseline(self, capsys):
        assert main(["bench", "197parser", "-mi-config=lowfat",
                     "--compare-baseline"]) == 0
        assert "overhead=" in capsys.readouterr().out

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["bench", "999nope"])


class TestFuzz:
    def test_quick_matrix_clean(self, capsys):
        assert main(["fuzz", "--seed", "5", "--count", "2",
                     "--matrix", "quick", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 programs x 3 cells" in out
        assert "no mismatches" in out

    def test_json_report(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "report.json"
        assert main(["fuzz", "--seed", "5", "--count", "1",
                     "--matrix", "quick", "--jobs", "1",
                     "--format", "json", "--output", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["ok"] is True
        assert doc["programs"] == 1
        assert doc["matrix"] == "quick"
        assert doc["seed"] == 5

    def test_coverage_flag(self, capsys):
        assert main(["fuzz", "--seed", "5", "--count", "1",
                     "--matrix", "quick", "--jobs", "1",
                     "--coverage"]) == 0
        out = capsys.readouterr().out
        assert "AST node kinds" in out
        assert "0 missing" in out

    def test_bad_count_rejected(self, capsys):
        assert main(["fuzz", "--count", "0"]) == 2
        assert "--count" in capsys.readouterr().err

    def test_progress_goes_to_stderr(self, capsys):
        assert main(["fuzz", "--seed", "5", "--count", "1",
                     "--matrix", "quick", "--jobs", "1"]) == 0
        assert "[fuzz]" in capsys.readouterr().err
