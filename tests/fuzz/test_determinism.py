"""Determinism: same seed => byte-identical sources and results.

The generator must be a pure function of (seed, index); the VM and the
experiment engine must produce bit-identical ``BenchResult`` documents
(every counter included) no matter how many worker processes execute
the jobs.  JSON documents are compared, because that is the exact
representation results travel through (worker transport and the disk
cache).
"""

import pytest

from repro.experiments.common import config_for
from repro.experiments.runner import ExperimentEngine, JobRequest
from repro.fuzz.generator import generate_program
from repro.vm.engines import DEFAULT_ENGINE
from repro.workloads import Workload


def _workload():
    program = generate_program(99, 2)
    return Workload(name=program.name, sources=program.sources,
                    description="determinism probe")


_LABELS = ("baseline", "softbound", "lowfat")


def _run(jobs: int, vm_engine: str = DEFAULT_ENGINE):
    engine = ExperimentEngine(jobs=jobs, max_instructions=5_000_000,
                              vm_engine=vm_engine)
    workload = _workload()
    results = engine.run_many(
        [JobRequest(workload, config_for(label)) for label in _LABELS])
    return [r.to_json() for r in results]


class TestRuntimeDeterminism:
    def test_rerun_byte_identical(self):
        assert _run(jobs=1) == _run(jobs=1)

    def test_jobs_1_equals_jobs_4(self):
        """Worker-process transport must not perturb a single counter."""
        assert _run(jobs=1) == _run(jobs=4)

    @pytest.mark.usefixtures("tiering")
    def test_engines_agree_on_everything(self):
        """The codegen tier and the reference tree-walker are
        bit-identical on results *and* statistics."""
        assert _run(jobs=1, vm_engine="codegen") == \
            _run(jobs=1, vm_engine="interp")

    def test_results_have_real_content(self):
        docs = _run(jobs=1)
        assert docs[0]["status"] == "exit"
        assert docs[0]["output"][-1] == "done"
        assert docs[1]["checks_executed"] > 0
        assert docs[2]["checks_executed"] > 0
