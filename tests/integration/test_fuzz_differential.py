"""Differential fuzzing: the standing correctness gate.

A bounded, *seeded* corpus of generated MiniC programs (see
:mod:`repro.fuzz.generator`; every program has fully defined
behaviour) runs through the complete
{VM engine} x {mechanism} x {check filter} matrix and must agree on
every observable and counter invariant:

* instrumentation transparency: SoftBound / Low-Fat, with and without
  the dominance and value-range check-elimination filters, must
  reproduce the baseline's output exactly;
* engine equivalence: the codegen tier and the reference
  tree-walker must agree bit-for-bit on outputs *and* statistics,
  with the codegen engine tiered and with every function emitted at
  its first call (a fuzz program's ``main`` runs interpreted when
  tiered);
* filter soundness: dynamic check counts obey
  ranges <= dominance <= unfiltered, and the baseline executes zero
  checks.

Unlike its hypothesis-based predecessor this corpus is deterministic:
a failure here names a ``(seed, index)`` pair anyone can replay with
``python -m repro fuzz`` and shrink with ``repro.fuzz.reduce``.
"""

import os

import pytest

from repro.fuzz import FULL_MATRIX, DifferentialOracle, generate_corpus

#: ~100 programs as the standing gate; override (e.g. smoke-size) via
#: the environment without editing the test.
CORPUS_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
CORPUS_SIZE = int(os.environ.get("REPRO_FUZZ_COUNT", "100"))
CHUNK = 20

_CORPUS = generate_corpus(CORPUS_SEED, CORPUS_SIZE)
_CHUNKS = [_CORPUS[i:i + CHUNK] for i in range(0, len(_CORPUS), CHUNK)]


@pytest.fixture
def oracle(tiering):
    """A fresh oracle per run, tiered or with every function emitted
    at its first call: one oracle's memo would serve the first run's
    results to the second."""
    jobs = min(4, os.cpu_count() or 1)
    return DifferentialOracle(matrix=FULL_MATRIX, jobs=jobs,
                              max_instructions=5_000_000)


@pytest.mark.parametrize("chunk", range(len(_CHUNKS)))
def test_full_matrix_agreement(oracle, chunk):
    programs = _CHUNKS[chunk]
    report = oracle.run(programs, seed=CORPUS_SEED)
    assert report.ok, (
        "differential mismatches (replay: python -m repro fuzz "
        f"--seed {CORPUS_SEED} --count {CORPUS_SIZE}):\n"
        + "\n".join(m.headline() for m in report.mismatches))
    assert report.cells_per_program == len(FULL_MATRIX)


def test_corpus_is_seeded_and_stable():
    again = generate_corpus(CORPUS_SEED, CORPUS_SIZE)
    assert [p.sources for p in again] == [p.sources for p in _CORPUS]
