"""Regression tests for the SoftBound libc-wrapper fixes.

Three historical wrapper bugs, each with a test that fails on the
pre-fix code:

* ``strcpy`` performed no ``check_abort`` even with wrapper checks
  enabled (paper Figure 6 checks *both* arguments against strlen+1);
* ``realloc`` never migrated trie entries when the allocation moved,
  so pointers stored in a reallocated buffer lost their metadata;
* ``copy_range`` direction/staleness (covered in
  test_trie_shadow_stack.py).

The engine-differential cases pin the contract that the fixes keep
codegen-tier stats bit-identical to the tree-walker.
"""

import dataclasses

import pytest

from repro import CompileOptions, compile_program, run_program
from repro.core import InstrumentationConfig

SB = InstrumentationConfig.softbound()
SB_WRAP = SB.with_(sb_wrapper_checks=True)
OPTS = CompileOptions(verify=True)


def run_sb(src, config=SB, **kw):
    return run_program(compile_program(src, config, OPTS),
                       max_instructions=2_000_000, **kw)


STRCPY_OVERFLOW = r"""
int main() {
    char *dst = (char *) malloc(4);
    char *src = (char *) malloc(16);
    src[0] = 'a'; src[1] = 'b'; src[2] = 'c'; src[3] = 'd';
    src[4] = 'e'; src[5] = 'f'; src[6] = 'g'; src[7] = 0;
    strcpy(dst, src);           // 8 bytes into a 4-byte buffer
    return 0;
}"""


class TestStrcpyWrapperCheck:
    def test_overflow_reported_with_wrapper_checks(self):
        """Pre-fix, strcpy had no _wrapper_check call at all: the
        overflow either faulted in the guard gap or went unreported.
        With the fix it is a 'wrapper' violation naming strcpy."""
        result = run_sb(STRCPY_OVERFLOW, config=SB_WRAP)
        assert result.violation is not None
        assert result.violation.kind == "wrapper"
        assert "strcpy" in str(result.violation)

    def test_source_over_read_reported(self):
        # src's NUL lies beyond its allocation's bound: reading
        # strlen+1 bytes over-reads the *source* argument.
        result = run_sb(r"""
        int main() {
            char *big = (char *) malloc(16);
            char *src = big;            // pretend-short buffer below
            int i;
            for (i = 0; i < 15; i = i + 1) src[i] = 'x';
            src[15] = 0;
            char *dst = (char *) malloc(32);
            char *tail = (char *) malloc(4);
            tail[0] = 'y'; tail[1] = 0;
            strcpy(dst, src);           // fits: no report
            strcpy(dst, tail);          // fits: no report
            print_i64(dst[0]);
            return 0;
        }""", config=SB_WRAP)
        assert result.ok

    def test_in_bounds_strcpy_clean(self):
        result = run_sb(r"""
        int main() {
            char *dst = (char *) malloc(8);
            char *src = (char *) malloc(8);
            src[0] = 'h'; src[1] = 'i'; src[2] = 0;
            strcpy(dst, src);
            print_i64(dst[1]);
            return 0;
        }""", config=SB_WRAP)
        assert result.ok and result.output == [str(ord("i"))]

    def test_disabled_by_default_no_report(self):
        """Paper Section 5.1.2: wrapper checks default off; the strcpy
        overflow is not *reported* (the guard gap may still fault)."""
        result = run_sb(STRCPY_OVERFLOW)
        assert result.violation is None

    def test_default_config_stats_unaffected(self):
        """The fix must not perturb default-config stats: strlen of the
        source is only computed when wrapper checks are on."""
        src = r"""
        int main() {
            char *dst = (char *) malloc(8);
            char *s = (char *) malloc(8);
            s[0] = 'a'; s[1] = 0;
            strcpy(dst, s);
            print_i64(dst[0]);
            return 0;
        }"""
        plain = run_sb(src)
        checked = run_sb(src, config=SB_WRAP)
        assert plain.ok and checked.ok
        assert plain.stats.checks_executed == checked.stats.checks_executed
        # wrapper checks charge cycles; the default config must not
        assert checked.stats.cycles > plain.stats.cycles


REALLOC_MOVE = r"""
int main() {
    int x = 7;
    int **arr = (int **) malloc(sizeof(int*) * 2);
    arr[0] = &x;
    /* Grow enough that the allocator must move the block; the
       wrapper has to migrate arr[0]'s trie entry to the new home. */
    arr = (int **) realloc((void*)arr, sizeof(int*) * 64);
    print_i64(*arr[0]);
    return 0;
}"""


class TestReallocMetadataMigration:
    def test_pointer_metadata_survives_move(self):
        """Pre-fix, realloc published bounds for the new block but left
        the trie entries at the old addresses: dereferencing a pointer
        loaded from the moved buffer saw NULL bounds and violated."""
        result = run_sb(REALLOC_MOVE)
        assert result.ok, result.describe()
        assert result.output == ["7"]

    def test_migration_bounded_by_old_size(self):
        # Only min(old, new) bytes of metadata move; slots beyond the
        # old size keep whatever the destination had (nothing).
        result = run_sb(r"""
        int main() {
            int x = 1;
            int **arr = (int **) malloc(sizeof(int*) * 2);
            arr[0] = &x;
            arr[1] = &x;
            arr = (int **) realloc((void*)arr, sizeof(int*) * 64);
            print_i64(*arr[0] + *arr[1]);
            return 0;
        }""")
        assert result.ok and result.output == ["2"]

    def test_shrinking_realloc_migrates_prefix(self):
        result = run_sb(r"""
        int main() {
            int x = 3;
            int **arr = (int **) malloc(sizeof(int*) * 8);
            arr[0] = &x;
            arr = (int **) realloc((void*)arr, sizeof(int*) * 1);
            print_i64(*arr[0]);
            return 0;
        }""")
        assert result.ok and result.output == ["3"]

    def test_migration_charges_trie_stores(self):
        grown = run_sb(REALLOC_MOVE)
        assert grown.ok
        # at least the migrated slot shows up as a trie store
        assert grown.stats.trie_stores > 0


@pytest.mark.usefixtures("tiering")
class TestFixesKeepEnginesIdentical:
    """The wrapper fixes ride inside native wrappers, whose charging
    differs between the tree-walker and the codegen tier; the stats
    must still agree field for field -- tiered, and with every
    function emitted at its first call."""

    @pytest.mark.parametrize("src,config", [
        (STRCPY_OVERFLOW, SB_WRAP),
        (REALLOC_MOVE, SB),
        (r"""
        int main() {
            int x = 9;
            int *src[4];
            int *dst[4];
            src[0] = &x; src[1] = &x; src[2] = &x; src[3] = &x;
            memcpy((void*)dst, (void*)src, sizeof(int*) * 4);
            memmove((void*)(src + 1), (void*)src, sizeof(int*) * 3);
            print_i64(*dst[3] + *src[3]);
            return 0;
        }""", SB),
    ], ids=["strcpy-overflow", "realloc-move", "memcpy-memmove"])
    def test_stats_bit_identical(self, src, config):
        program = compile_program(src, config, OPTS)
        interp = run_program(program, max_instructions=2_000_000,
                             engine="interp")
        codegen = run_program(program, max_instructions=2_000_000,
                              engine="codegen")
        assert interp.output == codegen.output
        assert dataclasses.asdict(interp.stats) == \
            dataclasses.asdict(codegen.stats)
