"""Tests for mi-lint: the Section 4 pitfall detectors.

The five case studies mirror ``examples/usability_case_studies.py``:
each program that misbehaves under an instrumentation at runtime must
be flagged statically, with the matching paper-section tag -- and the
repaired variants must stay clean.
"""

import json

import pytest

from repro.analysis import lint
from repro.workloads import all_workloads, get

# ---------------------------------------------------------------------
# the Section 4 case studies
# ---------------------------------------------------------------------

CASE_42_OOB_ARITHMETIC = {
    "lib.c": "long use(int *p) { return p[1]; }",
    "main.c": r"""
        long use(int *p);
        int main() {
            int *a = (int *) malloc(sizeof(int) * 8);
            a[0] = 5;
            print_i64(use(a - 1));
            free((void*)a);
            return 0;
        }""",
}

SWAP_SOURCES = {
    "swap.c": r"""
        void swap(double **one, double **two) {
            double *tmp = *one;
            *one = *two;
            *two = tmp;
        }""",
    "main.c": r"""
        void swap(double **one, double **two);
        double ga; double gb;
        int main() {
            double *pa = &ga; double *pb = &gb;
            ga = 1.5; gb = 2.5;
            swap(&pa, &pb);
            print_f64(*pa + *pb);
            return 0;
        }""",
}

BYTEWISE_COPY = r"""
    int main() {
        long x = 77;
        long *src = &x;
        long *dst;
        char *from = (char *) &src;
        char *to = (char *) &dst;
        for (int i = 0; i < 8; i++) to[i] = from[i];
        print_i64(*dst);
        return 0;
    }"""

MEMCPY_FIXED = BYTEWISE_COPY.replace(
    "for (int i = 0; i < 8; i++) to[i] = from[i];",
    "memcpy((void*)to, (void*)from, 8);")

SIZELESS_EXTERN = {
    "data.c": "int window[256];",
    "main.c": r"""
        extern int window[];
        int main() { return window[0]; }""",
}

HUGE_ALLOCATION = r"""
    int main() {
        char *big = (char *) malloc(1073741824);
        big[0] = 1;
        free((void*)big);
        return 0;
    }"""


def codes(diagnostics):
    return sorted(d.code for d in diagnostics)


class TestCaseStudies:
    def test_42_oob_pointer_arithmetic(self):
        diags = lint.lint_sources(CASE_42_OOB_ARITHMETIC)
        assert codes(diags) == ["oob-pointer-arithmetic"]
        (d,) = diags
        assert d.section == "4.2"
        assert d.severity == "warning"  # legal-by-expectation C
        assert "main.c" in d.location

    def test_44_obfuscated_swap(self):
        diags = lint.lint_sources(SWAP_SOURCES, obfuscated_units=("swap.c",))
        assert codes(diags) == ["inttoptr-roundtrip"]
        (d,) = diags
        assert d.section == "4.4"
        assert d.location.startswith("swap.c")

    def test_44_control_clean_swap(self):
        assert lint.lint_sources(SWAP_SOURCES) == []

    def test_45_bytewise_pointer_copy(self):
        diags = lint.lint_sources({"main.c": BYTEWISE_COPY})
        assert codes(diags) == ["bytewise-pointer-copy"]
        (d,) = diags
        assert d.section == "4.5"

    def test_45_memcpy_fix_is_clean(self):
        assert lint.lint_sources({"main.c": MEMCPY_FIXED}) == []

    def test_43_sizeless_extern_array(self):
        diags = lint.lint_sources(SIZELESS_EXTERN)
        assert codes(diags) == ["sizeless-extern-array"]
        (d,) = diags
        assert d.section == "4.3"
        assert d.location.startswith("main.c")  # the declaring unit

    def test_46_huge_allocation(self):
        diags = lint.lint_sources({"main.c": HUGE_ALLOCATION})
        assert codes(diags) == ["huge-allocation"]
        (d,) = diags
        assert d.section == "4.6"
        assert str(lint.LOWFAT_MAX_PROTECTED) in d.message

    def test_46_protectable_allocation_is_clean(self):
        small = HUGE_ALLOCATION.replace("1073741824", "1048576")
        assert lint.lint_sources({"main.c": small}) == []


class TestDetectorPrecision:
    def test_one_past_the_end_not_flagged(self):
        # forming (not dereferencing) a one-past-the-end pointer is
        # legal C and accepted by both instrumentations
        src = r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 4);
            int *end = a + 4;
            for (int *p = a; p != end; p++) *p = 0;
            free((void*)a);
            return 0;
        }"""
        assert lint.lint_sources({"main.c": src}) == []

    def test_provable_oob_access_is_an_error(self):
        src = r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 4);
            a[-1] = 1;
            return 0;
        }"""
        diags = lint.lint_sources({"main.c": src})
        assert any(d.code == "oob-access" and d.severity == "error"
                   for d in diags)

    def test_diagnostics_have_source_lines(self):
        diags = lint.lint_sources({"main.c": HUGE_ALLOCATION})
        assert "line" in diags[0].location


class TestRendering:
    def test_format_contains_code_and_section(self):
        (d,) = lint.lint_sources({"main.c": HUGE_ALLOCATION})
        text = d.format()
        assert "huge-allocation" in text
        assert "paper section 4.6" in text

    def test_render_text_empty(self):
        assert "no findings" in lint.render_text([])

    def test_render_json_round_trips(self):
        diags = lint.lint_sources(SIZELESS_EXTERN)
        payload = json.loads(lint.render_json(diags))
        assert payload[0]["code"] == "sizeless-extern-array"
        assert payload[0]["section"] == "4.3"

    def test_sorted_by_unit_then_line(self):
        src = r"""
        extern int window[];
        int main() {
            int *a = (int *) malloc(sizeof(int) * 4);
            a[-1] = 1;
            return window[0];
        }"""
        diags = lint.lint_sources({"b.c": src, "a.c": src})
        keys = [(d.unit, d.line if d.line is not None else -1)
                for d in diags]
        assert keys == sorted(keys)
        assert len({d.unit for d in diags}) == 2

    def test_json_has_function_line_and_loop_depth(self):
        src = r"""
        int main() {
            int *a = (int *) malloc(sizeof(int) * 4);
            for (int i = 0; i < 4; i++) {
                a[-1] = i;
            }
            return 0;
        }"""
        diags = lint.lint_sources({"main.c": src})
        payload = json.loads(lint.render_json(diags))
        oob = [d for d in payload if d["code"] == "oob-access"]
        assert oob and oob[0]["function"] == "main"
        assert oob[0]["line"] is not None
        assert oob[0]["loop_depth"] >= 1


# ---------------------------------------------------------------------
# proven-oob: a loop's static extent leaves the allocation
# ---------------------------------------------------------------------


def _proven_oob_message(lo, hi, size, trips, width):
    return (f"loop provably accesses bytes {lo}..{hi} of a {size}-byte "
            f"allocation over {trips} iterations; some iteration's "
            f"{width}-byte access is out of bounds and every "
            "instrumentation aborts here")


def _loop_program(loop):
    return ("int main() {\n"
            "    int a[8];\n"
            f"    {loop}\n"
            "    return 0;\n"
            "}\n")


class TestProvenOobLoops:
    """Per-point facts cannot see an off-by-one that only the last
    iteration commits; the loop's static hull can."""

    def test_inclusive_bound_off_by_one(self):
        diags = lint.lint_sources(
            _loop_program("for (int i = 0; i <= 8; i++) a[i] = i;"))
        assert [(d.code, d.severity, d.line, d.loop_depth, d.message)
                for d in diags] == [
            ("proven-oob", "error", 3, 1,
             _proven_oob_message(0, 36, 32, 9, 4))]

    def test_heap_read_one_past_the_end(self):
        diags = lint.lint_sources(r"""
        int main() {
            long *a = (long *) malloc(sizeof(long) * 10);
            long s = 0;
            for (int i = 0; i < 11; i++) s = s + a[i];
            print_i64(s);
            return 0;
        }""")
        assert [(d.code, d.message) for d in diags] == [
            ("proven-oob", _proven_oob_message(0, 88, 80, 11, 8))]

    def test_negative_offset_below_the_start(self):
        diags = lint.lint_sources(
            _loop_program("for (int i = 0; i < 8; i++) a[i - 1] = i;"))
        assert [(d.code, d.message) for d in diags] == [
            ("proven-oob", _proven_oob_message(-4, 28, 32, 8, 4))]

    def test_in_bounds_loop_is_clean(self):
        assert lint.lint_sources(
            _loop_program("for (int i = 0; i < 8; i++) a[i] = i;")) == []

    def test_header_resident_access_spans_one_more_step(self):
        # The compare-on-phi loop stores in its header, which also runs
        # on the final exit test with i == bound: bound 8 over 8 slots
        # writes a[8] although the loop iterates 8 times.
        from tests.core.test_hoist_filter import TestRotatedLoopHoist

        diags = lint.lint_module(TestRotatedLoopHoist._rotated_main(8, 8))
        assert [(d.code, d.message) for d in diags] == [
            ("proven-oob", _proven_oob_message(0, 36, 32, 8, 4))]
        assert lint.lint_module(TestRotatedLoopHoist._rotated_main(9, 8)) == []


# ---------------------------------------------------------------------
# the bundled workloads: known pitfalls, and only those
# ---------------------------------------------------------------------

#: Expected lint findings per workload.  These mirror the paper's
#: Table 2 story: 164gzip's size-less ``window``, 429mcf's huge arena,
#: the inttoptr round trips in 456hmmer/458sjeng, and clean elsewhere.
EXPECTED_WORKLOAD_FINDINGS = {
    "164gzip": {"sizeless-extern-array"},
    "197parser": {"sizeless-extern-array"},
    "300twolf": {"sizeless-extern-array"},
    "433milc": {"sizeless-extern-array"},
    "445gobmk": {"sizeless-extern-array"},
    "429mcf": {"huge-allocation"},
    "456hmmer": {"inttoptr-roundtrip"},
    "458sjeng": {"inttoptr-roundtrip"},
}


@pytest.mark.parametrize("name", sorted(w.name for w in all_workloads()))
def test_workload_known_pitfalls(name):
    expected = EXPECTED_WORKLOAD_FINDINGS.get(name, set())
    diags = lint.lint_workload(get(name))
    assert {d.code for d in diags} == expected
