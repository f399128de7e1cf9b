"""Differential tests for the full pipeline: -O3 must preserve program
behaviour, at every extension-point configuration, on a battery of
MiniC programs."""

import sys

import pytest

from repro.frontend import compile_source
from repro.ir import verify_module
from repro.opt import EXTENSION_POINTS, build_pipeline, optimize
from repro.vm import VirtualMachine

PROGRAMS = {
    "arith": r"""
        int main() {
            long acc = 0;
            for (int i = 1; i <= 20; i++) acc = acc * 3 % 1000003 + i;
            print_i64(acc);
            return 0;
        }""",
    "nested-loops": r"""
        int main() {
            long s = 0;
            for (int i = 0; i < 10; i++)
                for (int j = 0; j < 10; j++)
                    if ((i + j) % 3 == 0) s += i * j;
            print_i64(s);
            return 0;
        }""",
    "heap-sort": r"""
        int main() {
            int n = 30;
            int *a = (int *) malloc(sizeof(int) * n);
            int seed = 5;
            for (int i = 0; i < n; i++) {
                seed = (seed * 1103515245 + 12345) & 2147483647;
                a[i] = seed % 100;
            }
            for (int i = 0; i < n; i++)
                for (int j = i + 1; j < n; j++)
                    if (a[j] < a[i]) { int t = a[i]; a[i] = a[j]; a[j] = t; }
            long check = 0;
            for (int i = 0; i < n; i++) check = check * 7 + a[i];
            print_i64(check);
            free((void*)a);
            return 0;
        }""",
    "structs-and-helpers": r"""
        struct vec { double x; double y; };
        double dot(struct vec *a, struct vec *b) {
            return a->x * b->x + a->y * b->y;
        }
        int main() {
            struct vec u; struct vec v;
            u.x = 1.5; u.y = 2.0; v.x = -0.5; v.y = 4.0;
            double total = 0.0;
            for (int i = 0; i < 8; i++) {
                total += dot(&u, &v);
                u.x += 0.25;
            }
            print_f64(total);
            return 0;
        }""",
    "recursion": r"""
        int ack(int m, int n) {
            if (m == 0) return n + 1;
            if (n == 0) return ack(m - 1, 1);
            return ack(m - 1, ack(m, n - 1));
        }
        int main() { print_i64(ack(2, 3)); return 0; }""",
    "strings": r"""
        int main() {
            char *buf = (char *) malloc(32);
            strcpy(buf, "mini");
            buf[4] = 'c'; buf[5] = 0;
            print_str(buf);
            print_i64(strlen(buf));
            free((void*)buf);
            return 0;
        }""",
    "globals-and-statics": r"""
        int counter = 3;
        int table[5];
        int bump() { counter++; return counter; }
        int main() {
            for (int i = 0; i < 5; i++) table[i] = bump();
            long s = 0;
            for (int i = 0; i < 5; i++) s = s * 10 + table[i];
            print_i64(s);
            return 0;
        }""",
    "mixed-float": r"""
        int main() {
            double acc = 1.0;
            for (int i = 1; i < 12; i++) {
                acc = acc + 1.0 / (double)i;
                if (acc > 3.0) acc = acc - 0.5;
            }
            print_f64(acc);
            print_f64(sqrt(acc));
            return 0;
        }""",
}


def execute(mod):
    vm = VirtualMachine(mod, max_instructions=5_000_000)
    return vm.run(), list(vm.output)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_o3_preserves_behaviour(name):
    src = PROGRAMS[name]
    reference = execute(compile_source(src))
    mod = compile_source(src)
    build_pipeline(3, verify_each=True).run(mod)
    verify_module(mod)
    assert execute(mod) == reference


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("level", [0, 1, 2])
def test_lower_levels_preserve_behaviour(name, level):
    src = PROGRAMS[name]
    reference = execute(compile_source(src))
    mod = compile_source(src)
    build_pipeline(level, verify_each=True).run(mod)
    assert execute(mod) == reference


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_o3_not_slower(name):
    src = PROGRAMS[name]
    mod0 = compile_source(src)
    code0, out0 = execute(mod0)
    vm0 = VirtualMachine(compile_source(src), max_instructions=5_000_000)
    vm0.run()
    mod3 = compile_source(src)
    optimize(mod3, 3)
    vm3 = VirtualMachine(mod3, max_instructions=5_000_000)
    vm3.run()
    assert vm3.stats.cycles <= vm0.stats.cycles


def test_extension_points_all_valid():
    with pytest.raises(ValueError):
        build_pipeline(3, instrument=lambda m: None, extension_point="Nope")
    for ep in EXTENSION_POINTS:
        seen = []
        pm = build_pipeline(3, instrument=seen.append, extension_point=ep)
        mod = compile_source("int main() { return 0; }")
        pm.run(mod)
        assert len(seen) == 1


def test_instrument_hook_position_matters():
    """The hook at ModuleOptimizerEarly runs before the inliner; at
    VectorizerStart it runs after (calls already inlined)."""
    from repro.ir import Call

    src = r"""
    int tiny(int x) { return x + 1; }
    int main() { return tiny(41); }"""
    observed = {}

    def snoop_calls(tag):
        def hook(mod):
            main = mod.get_function("main")
            observed[tag] = sum(
                1 for i in main.instructions()
                if isinstance(i, Call) and i.callee_function is not None
                and not i.callee_function.native
            )
        return hook

    for ep, tag in [("ModuleOptimizerEarly", "early"), ("VectorizerStart", "late")]:
        mod = compile_source(src)
        build_pipeline(3, instrument=snoop_calls(tag), extension_point=ep).run(mod)
    assert observed["early"] == 1
    assert observed["late"] == 0


def test_pipeline_is_deterministic():
    """Repeated compiles of the same unit must print identically.

    Regressions here came from Python set iteration leaking into the
    IR: mem2reg's phi placement order (names) and LICM's hoist order
    (preheader instruction order).  Check-site statistics are compared
    across independent compiles by the fuzz oracle, so the whole
    pipeline must be a pure function of the source.
    """
    src = PROGRAMS["heap-sort"]
    outputs = set()
    for _ in range(3):
        mod = compile_source(src)
        build_pipeline(3).run(mod)
        outputs.add(str(mod))
    assert len(outputs) == 1


def test_dominator_walks_keep_the_recursion_limit(monkeypatch):
    """GVN and mem2reg walk the dominator tree with an explicit stack,
    so a tree deeper than Python's default recursion limit (1,200
    sequential ifs nest 1,200 deep) compiles without either pass
    touching the process-wide limit."""
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    body = "".join(f"    if (i > {k % 7}) x = x + {k};\n" for k in range(1200))
    src = (f"long f(long i) {{\n    long x = 0;\n{body}    return x;\n}}\n"
           "int main() { print_i64(f(3)); return 0; }")
    mod = compile_source(src)
    build_pipeline(3).run(mod)
    verify_module(mod)
    assert calls == []
    expected = sum(k for k in range(1200) if 3 > k % 7)
    assert execute(mod) == (0, [str(expected)])
