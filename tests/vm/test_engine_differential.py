"""Corpus-wide engine differential: all execution tiers agree.

The codegen execution tier promises *bit-identical* results to the
reference tree-walker -- same program output, same exit status, same
``RuntimeStats`` field for field (``cycles``, ``instructions``,
``opcode_counts``, every check counter, ``per_site``).  Every number
the experiments report rests on that contract, so it is enforced here
over the full matrix: all 20 workloads under uninstrumented,
SoftBound, and Low-Fat configurations, for each non-reference engine.

Each cell compiles once and runs each engine once (the tree-walker
reference run is memoized per cell); the whole matrix is the most
expensive test module in the suite, which is the point -- any stats
divergence anywhere in the corpus fails loudly.
"""

import dataclasses
from typing import Dict, Tuple

import pytest

from repro.driver import CompileOptions, CompiledProgram, compile_program, run_program
from repro.experiments.common import config_for
from repro.vm.engines import ENGINES
from repro.workloads import get
from repro.workloads.registry import all_names

LABELS = ("baseline", "softbound", "lowfat")
MAX_INSTRUCTIONS = 100_000_000

#: Each comparison runs tiered and with every function emitted.
pytestmark = pytest.mark.usefixtures("tiering")

#: Every engine checked against the tree-walker reference.
CANDIDATE_ENGINES = tuple(e for e in ENGINES if e != "interp")

_PROGRAMS: Dict[Tuple[str, str], CompiledProgram] = {}
_REFERENCE: Dict[Tuple[str, str], object] = {}


def _compiled_program(name: str, label: str) -> CompiledProgram:
    key = (name, label)
    program = _PROGRAMS.get(key)
    if program is None:
        workload = get(name)
        config = config_for(label)
        options = CompileOptions(
            obfuscate_pointer_copies=tuple(workload.obfuscated_units)
        )
        if config is None:
            program = compile_program(workload.sources, options=options)
        else:
            program = compile_program(workload.sources, config, options)
        _PROGRAMS[key] = program
    return program


def _reference_run(name: str, label: str):
    key = (name, label)
    result = _REFERENCE.get(key)
    if result is None:
        result = run_program(_compiled_program(name, label),
                             max_instructions=MAX_INSTRUCTIONS,
                             engine="interp")
        _REFERENCE[key] = result
    return result


def _diff_stats(a, b, engine: str) -> str:
    lines = []
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    for field in da:
        if da[field] == db[field]:
            continue
        if isinstance(da[field], dict):
            ka, kb = set(da[field]), set(db[field])
            lines.append(
                f"  {field}: only-interp={sorted(ka - kb)[:5]} "
                f"only-{engine}={sorted(kb - ka)[:5]} "
                f"diverging={[k for k in sorted(ka & kb) if da[field][k] != db[field][k]][:5]}"
            )
        else:
            lines.append(
                f"  {field}: interp={da[field]} {engine}={db[field]}")
    return "\n".join(lines)


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("name", all_names())
def test_engines_bit_identical(name, label, engine):
    program = _compiled_program(name, label)
    interp = _reference_run(name, label)
    candidate = run_program(program, max_instructions=MAX_INSTRUCTIONS,
                            engine=engine)

    assert candidate.output == interp.output, \
        f"{name}/{label}/{engine}: output differs"
    assert candidate.exit_code == interp.exit_code
    assert candidate.describe() == interp.describe()
    assert dataclasses.asdict(candidate.stats) == \
        dataclasses.asdict(interp.stats), (
            f"{name}/{label}/{engine}: RuntimeStats diverge\n"
            + _diff_stats(interp.stats, candidate.stats, engine))


#: SoftBound giving wide bounds, not NULL ones, on a trie miss.
WIDE_MISS = "softbound-sb_missing_metadata_wide=True"


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
@pytest.mark.parametrize("name", all_names())
def test_wide_missing_metadata_bit_identical(name, engine):
    test_engines_bit_identical(name, WIDE_MISS, engine)
