"""Detection matrix: which violations does each approach report?

Mirrors the artifact's functional test suite (paper Appendix A.5):
programs with heap/stack/global out-of-bounds reads and writes must be
rejected, programs without violations must run unmodified.
"""

import dataclasses

import pytest

from repro import NOOP, CompileOptions, compile_and_run, compile_program
from repro.core import InstrumentationConfig
from repro.driver import make_vm
from repro.errors import MemoryFault, MemSafetyViolation, ReproError
from repro.vm.engines import ENGINES

SB = InstrumentationConfig.softbound()
LF = InstrumentationConfig.lowfat()
OPTS = CompileOptions(verify=True)
O0 = CompileOptions(opt_level=0, link_time_optimization=False, verify=True)


def classify(result):
    if result.violation is not None:
        return f"violation:{result.violation.kind}"
    if result.fault is not None:
        return "fault"
    return "ok"


def outcome(src, config, **kw):
    return classify(compile_and_run(src, config, OPTS,
                                    max_instructions=2_000_000, **kw))


CLEAN_PROGRAMS = {
    "heap": r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            for (int i = 0; i < 8; i++) a[i] = i;
            long s = 0;
            for (int i = 0; i < 8; i++) s += a[i];
            print_i64(s);
            free((void*)a);
            return 0;
        }""",
    "stack": r"""
        int main() {
            int a[8];
            for (int i = 0; i < 8; i++) a[i] = i * 2;
            print_i64(a[7]);
            return 0;
        }""",
    "global": r"""
        int g[8];
        int main() {
            for (int i = 0; i < 8; i++) g[i] = i;
            print_i64(g[0] + g[7]);
            return 0;
        }""",
    "one-past-end-pointer": r"""
        int main() {
            int a[4];
            int *end = &a[4];       // one past the end: legal to form
            int *p = a;
            int n = 0;
            while (p != end) { *p = n; p++; n++; }
            print_i64(a[3]);
            return 0;
        }""",
    "interior-pointers": r"""
        struct item { int key; int value; };
        int main() {
            struct item *items =
                (struct item *) malloc(sizeof(struct item) * 4);
            for (int i = 0; i < 4; i++) {
                items[i].key = i; items[i].value = i * i;
            }
            int *vp = &items[2].value;
            print_i64(*vp);
            free((void*)items);
            return 0;
        }""",
}

VIOLATING_PROGRAMS = {
    # (source, SB outcome, LF outcome)
    "heap-overflow-write": (r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            a[100] = 1;             // far out of bounds
            return (int)a[100];
        }""", "violation:deref", "violation:deref"),
    "heap-overflow-read": (r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            int x = a[100];
            free((void*)a);
            return x;
        }""", "violation:deref", "violation:deref"),
    "heap-underflow": (r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            int *p = a - 2;
            *p = 5;                 // below the allocation
            return *p;
        }""", "violation:deref", "violation:deref"),
    "global-overflow": (r"""
        int g[4];
        int pad[4096];
        int main() {
            int *p = g;
            p[2000] = 9;            // way past g
            return p[2000];
        }""", "violation:deref", "violation:deref"),
    "stack-overflow": (r"""
        int main() {
            int a[4];
            int *p = &a[0];
            p[500] = 1;
            return p[500];
        }""", "violation:deref", "violation:deref"),
    # Classic off-by-one: 64*4 = 256 B requests a 512 B low-fat class
    # (the +1 pad), so the overflow lands in padding -- SoftBound
    # reports it, Low-Fat does NOT (the paper's padding blind spot).
    "off-by-one-write": (r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 64);
            for (int i = 0; i <= 64; i++) a[i] = i;   // classic <=
            return a[0];
        }""", "violation:deref", "ok"),
}


WIDTH_PROGRAMS = {
    # (source, SB outcome, LF outcome)
    "wide-access-at-boundary": (r"""
        int main() {
            char *a = (char *) malloc(12);
            long *p = (long *) (a + 8);
            *p = 1;                 // bytes 8..15, but only 12 exist
            return 0;
        }""", "violation:deref", "ok"),
    "wide-access-past-padding": (r"""
        int main() {
            char *a = (char *) malloc(12);
            long *p = (long *) (a + 12);
            *p = 1;                 // bytes 12..19: crosses the 16B slot
            return 0;
        }""", "violation:deref", "violation:deref"),
}

#: Every program a check fires on, for the engine raise-point
#: comparison.  The fuzz corpus is defined-behaviour only, so these are
#: what makes a batched or fused check fire at all.
RAISE_PROGRAMS = dict(VIOLATING_PROGRAMS, **WIDTH_PROGRAMS)
RAISE_PROGRAMS.update({
    # Low-Fat's escape check: an out-of-bounds pointer is stored.
    "escape-out-of-bounds": (r"""
        int *g;
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            g = a + 100;
            return 0;
        }""", "ok", "violation:invariant"),
    # The failing check is followed, in its block, by charged and
    # instrumentation instructions that must not count.
    "mid-block-check": (r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            long x = 3;
            a[1] = a[100] * 7 + x;
            print_i64(a[1]);
            return 0;
        }""", "violation:deref", "violation:deref"),
    # The violation fires three program frames deep, and each caller's
    # block still has charged work after its call.
    "nested-call-violation": (r"""
        long walk(long *a, long i, long n) { if (n == 0) return a[i]; return walk(a, i + 1, n - 1) * 3 + i; }
        int main() {
            long *a = (long *) malloc(sizeof(long) * 8);
            print_i64(walk(a, 0, 4));
            print_i64(walk(a, 20, 3));
            return 0;
        }""", "violation:deref", "violation:deref"),
    # A conversion of an infinity to an integer stops the run with one
    # VMError in the middle of a checked block.
    "non-finite-fptosi": (r"""
        double zero() { double c[1]; c[0] = 0.0; return c[0]; }
        int main() {
            long *a = (long *) malloc(sizeof(long) * 4);
            a[1] = 3;
            double big = 1e308 + zero();
            a[2] = (long)(big * 10.0) + a[1];
            print_i64(a[2]);
            return 0;
        }""", "error:VMError", "error:VMError"),
})


#: Programs whose run stops in a callee on the other tier from its
#: caller, in both directions: (source, instruction budget, outcome
#: under baseline, SoftBound, Low-Fat).  Compiled at -O0 without LTO,
#: nothing is inlined and every loop counts in memory, so a function
#: with a loop has no trip bound and is emitted at its first call,
#: while a loop-free one runs on the tree-walker for its first calls.
CROSS_TIER_PROGRAMS = {
    "oob-in-emitted-callee": (r"""
        long fill(long *a, long n) { long s = 0; for (long i = 0; i < n; i += 700) { a[i] = i; s += a[i] * 2; } return s; }
        int main() {
            long *a = (long *) malloc(sizeof(long) * 8);
            print_i64(fill(a, 4));
            print_i64(fill(a, 5000) + 1);
            return 0;
        }""", 2_000_000, ("fault", "violation:deref", "violation:deref")),
    "oob-in-interpreted-callee": (r"""
        long get(long *a, long i) { long x = a[i]; return x * 2 + i; }
        int main() {
            long *a = (long *) malloc(sizeof(long) * 8);
            long s = 0;
            for (long i = 0; i < 12; i++) { s += get(a, i * 700) + 1; print_i64(s); }
            return 0;
        }""", 2_000_000, ("fault", "violation:deref", "violation:deref")),
    "budget-in-emitted-callee": (r"""
        long spin(long n) { long s = 0; for (long i = 0; i < n; i++) s += i; return s; }
        int main() { long x = spin(3); print_i64(x); x = spin(100000) * 3 + x; print_i64(x); return 0; }
        """, 1_500, ("error:VMError",) * 3),
    "budget-in-interpreted-callee": (r"""
        long step(long x) { if (x > 5) x = x - 5; else x = x + 7; if (x % 2) x = x * 3; return x + 1; }
        int main() { long s = 0; for (long i = 0; i < 100000; i++) s += step(i) * 2; print_i64(s); return 0; }
        """, 347, ("error:VMError",) * 3),
    "exit-in-emitted-callee": (r"""
        long finish(long *a, long n) { for (long i = 0; i < n; i++) { a[i] = i; if (i == 5) exit(3); } return 0; }
        int main() {
            long *a = (long *) malloc(sizeof(long) * 8);
            print_i64(finish(a, 2));
            print_i64(finish(a, 8) + 1);
            return 0;
        }""", 2_000_000, ("ok",) * 3),
    "exit-in-interpreted-callee": (r"""
        long stop(long *a, long i) { a[i] = i; if (i == 4) exit(5); return a[i] + 1; }
        int main() {
            long *a = (long *) malloc(sizeof(long) * 8);
            long s = 0;
            for (long i = 0; i < 8; i++) { s += stop(a, i) * 3; print_i64(s); }
            return 0;
        }""", 2_000_000, ("ok",) * 3),
}


def raise_point(program, engine, profile, max_instructions=2_000_000):
    """Everything observable when a run stops: the exit code, or the
    error that stopped it (a violation's fields included), the output
    and the full RuntimeStats."""
    vm = make_vm(program, max_instructions=max_instructions, engine=engine,
                 profile=profile)
    exit_code = stop = None
    try:
        exit_code = vm.run()
    except ReproError as exc:
        stop = exc
    if isinstance(stop, MemSafetyViolation):
        kind = f"violation:{stop.kind}"
    elif isinstance(stop, MemoryFault):
        kind = "fault"
    else:
        kind = "ok" if stop is None else f"error:{type(stop).__name__}"
    return {
        "class": kind,
        "violation": (stop.kind, stop.pointer, stop.base, stop.bound,
                      stop.site) if isinstance(stop, MemSafetyViolation)
        else None,
        "outcome": (exit_code, None if stop is None else str(stop)),
        "output": list(vm.output),
        "stats": dataclasses.asdict(vm.stats),
    }


class TestCleanPrograms:
    @pytest.mark.parametrize("name", sorted(CLEAN_PROGRAMS))
    @pytest.mark.parametrize("config", [SB, LF], ids=["softbound", "lowfat"])
    def test_no_false_positive(self, name, config):
        assert outcome(CLEAN_PROGRAMS[name], config) == "ok"

    @pytest.mark.parametrize("name", sorted(CLEAN_PROGRAMS))
    @pytest.mark.parametrize("config", [SB, LF], ids=["softbound", "lowfat"])
    def test_output_matches_baseline(self, name, config):
        baseline = compile_and_run(CLEAN_PROGRAMS[name], options=OPTS,
                                   max_instructions=2_000_000)
        sanitized = compile_and_run(CLEAN_PROGRAMS[name], config, OPTS,
                                    max_instructions=2_000_000)
        assert sanitized.output == baseline.output


class TestViolatingPrograms:
    @pytest.mark.parametrize("name", sorted(VIOLATING_PROGRAMS))
    def test_softbound_detects(self, name):
        src, sb_expected, _ = VIOLATING_PROGRAMS[name]
        assert outcome(src, SB) == sb_expected

    @pytest.mark.parametrize("name", sorted(VIOLATING_PROGRAMS))
    def test_lowfat_detects(self, name):
        src, _, lf_expected = VIOLATING_PROGRAMS[name]
        assert outcome(src, LF) == lf_expected


class TestWidthAwareChecks:
    def test_wide_access_at_boundary(self):
        """An 8-byte access whose first byte is in bounds but whose
        last byte is not must be rejected (checks are width-aware)."""
        src = WIDTH_PROGRAMS["wide-access-at-boundary"][0]
        assert outcome(src, SB) == "violation:deref"
        # Low-Fat: 12+1 -> 16-byte class; bytes 8..15 are inside the
        # padded slot, so this is exactly the padding blind spot.
        assert outcome(src, LF) == "ok"

    def test_wide_access_past_padding_rejected_by_lowfat(self):
        src = WIDTH_PROGRAMS["wide-access-past-padding"][0]
        assert outcome(src, LF) == "violation:deref"


@pytest.mark.usefixtures("tiering")
class TestRaisePointsOnEveryEngine:
    """Codegen charges checks in the block batch and rolls the batch
    back when one fires; every engine must stop at the tree-walker's
    violation (kind, pointer, base, bound, site) with field-for-field
    identical RuntimeStats, plain and profiled -- tiered, and with
    every function emitted at its first call."""

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["plain", "profile"])
    @pytest.mark.parametrize("config", [SB, LF], ids=["softbound", "lowfat"])
    @pytest.mark.parametrize("name", sorted(RAISE_PROGRAMS))
    def test_same_violation_and_stats(self, name, config, profile):
        src, sb_expected, lf_expected = RAISE_PROGRAMS[name]
        program = compile_program(src, config, OPTS)
        runs = {engine: raise_point(program, engine, profile)
                for engine in ENGINES}
        reference = runs["interp"]
        assert reference["class"] == (sb_expected if config is SB
                                      else lf_expected)
        for engine, run in runs.items():
            assert run == reference, engine

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["plain", "profile"])
    @pytest.mark.parametrize("config", [NOOP, SB, LF],
                             ids=["baseline", "softbound", "lowfat"])
    @pytest.mark.parametrize("name", sorted(CROSS_TIER_PROGRAMS))
    def test_raise_crossing_tiers(self, name, config, profile, tiering):
        src, budget, expected = CROSS_TIER_PROGRAMS[name]
        program = compile_program(src, config, O0)
        runs = {engine: raise_point(program, engine, profile, budget)
                for engine in ENGINES}
        reference = runs["interp"]
        assert reference["class"] == expected[[NOOP, SB, LF].index(config)]
        for engine, run in runs.items():
            assert run == reference, engine
        if tiering == "tiered":
            vm = make_vm(program, max_instructions=budget)
            try:
                vm.run()
            except ReproError:
                pass
            assert {tier for tier, _ in vm.tiers.values()} == {
                "codegen", "interp"}


class TestModes:
    def test_geninvariants_mode_does_not_check_derefs(self):
        src = r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            a[9] = 1;               // OOB into padding/neighbour gap
            return 0;
        }"""
        meta = InstrumentationConfig.softbound(mode="geninvariants")
        # no deref checks: the access hits the heap guard gap -> fault,
        # not a reported violation
        assert outcome(src, meta) in ("fault", "ok")

    def test_noop_config_runs_unchecked(self):
        from repro import NOOP

        src = "int main() { print_i64(1); return 0; }"
        result = compile_and_run(src, NOOP, OPTS, max_instructions=100_000)
        assert result.ok and result.output == ["1"]
        assert result.stats.checks_executed == 0
