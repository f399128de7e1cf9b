"""Fault injection: the engine must degrade gracefully.

A worker that crashes or exceeds its time budget must produce a
structured *failed* ``BenchResult`` for that one job -- with every
other job in the wave still succeeding -- instead of taking the whole
run down.  Failed results are never written to the disk cache, so a
later run retries them.

The injection works by monkeypatching ``_execute_payload``: worker
processes are forked from the test process, so they inherit the patch.
"""

import time

import pytest

from repro.core.config import InstrumentationConfig
from repro.experiments.cache import ResultCache
from repro.experiments.common import config_for, label_for
from repro.experiments.runner import ExperimentEngine, JobRequest
from repro.experiments import runner as runner_mod
from repro.workloads import get

WORKLOADS = ("197parser", "456hmmer")


def _label(payload):
    """The label of the configuration a job payload measures."""
    config = payload["config"]
    return label_for(config and InstrumentationConfig(**config))


def _crash_label(monkeypatch, label, exc=None):
    """Make ``_execute_payload`` raise for one config label only."""
    real = runner_mod._execute_payload

    def selective(payload):
        if _label(payload) == label:
            raise exc or RuntimeError(f"injected crash for {label}")
        return real(payload)

    monkeypatch.setattr(runner_mod, "_execute_payload", selective)


class TestCrashInjection:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_crashed_job_rest_succeed(self, monkeypatch, jobs):
        _crash_label(monkeypatch, "lowfat")
        engine = ExperimentEngine(jobs=jobs)
        requests = [JobRequest(get(name), config_for(label))
                    for name in WORKLOADS
                    for label in ("softbound", "lowfat")]
        results = engine.run_many(requests)

        assert len(results) == len(requests)
        for result in results:
            if result.label == "lowfat":
                assert result.status == "failed"
                assert not result.ok
                assert "injected crash for lowfat" in result.failure
                assert result.cycles == 0
            else:
                assert result.status == "exit"
                assert result.ok
                assert result.cycles > 0

    def test_crashed_baseline_fails_dependents_not_run(self, monkeypatch):
        # A dead baseline cannot validate outputs, but the instrumented
        # measurement itself must still come back.
        _crash_label(monkeypatch, "baseline")
        engine = ExperimentEngine(jobs=2)
        results = engine.run_many([
            JobRequest(get("197parser"), None),
            JobRequest(get("197parser"), config_for("softbound")),
        ])
        by_label = {r.label: r for r in results}
        assert by_label["baseline"].status == "failed"
        assert by_label["softbound"].status == "exit"
        assert by_label["softbound"].cycles > 0

    def test_failed_jobs_not_cached_and_retried(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        _crash_label(monkeypatch, "softbound")
        first = ExperimentEngine(jobs=2, cache=cache)
        failed = first.run(get("197parser"), "softbound")
        assert failed.status == "failed"

        # only the baseline made it to disk; the failure is retried
        monkeypatch.undo()
        second = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
        retried = second.run(get("197parser"), "softbound")
        assert retried.ok
        assert second.executed_jobs == 1  # the instrumented retry
        assert second.cache_hits == 1     # the baseline

    def test_inline_crash_is_structured_too(self, monkeypatch):
        # jobs=1 takes the inline path (no worker pool); same contract.
        def explode(payload):
            raise ValueError("inline boom")
        monkeypatch.setattr(runner_mod, "_execute_payload", explode)
        engine = ExperimentEngine(jobs=1)
        result = engine.run(get("197parser"), "baseline")
        assert result.status == "failed"
        assert "inline boom" in result.failure


class TestTimeoutInjection:
    def _hang_label(self, monkeypatch, label, seconds=30.0):
        real = runner_mod._execute_payload

        def selective(payload):
            if _label(payload) == label:
                time.sleep(seconds)
            return real(payload)

        monkeypatch.setattr(runner_mod, "_execute_payload", selective)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hung_job_times_out_rest_succeed(self, monkeypatch, jobs):
        self._hang_label(monkeypatch, "lowfat")
        engine = ExperimentEngine(jobs=jobs, job_timeout=1.0)
        start = time.monotonic()
        results = engine.run_many([
            JobRequest(get("197parser"), config_for("softbound")),
            JobRequest(get("197parser"), config_for("lowfat")),
        ])
        elapsed = time.monotonic() - start
        assert elapsed < 20, "timeout did not fire"

        by_label = {r.label: r for r in results}
        assert by_label["lowfat"].status == "failed"
        assert "timed out" in by_label["lowfat"].failure
        assert by_label["softbound"].ok

    def test_generous_timeout_does_not_fire(self):
        engine = ExperimentEngine(jobs=2, job_timeout=120.0)
        results = engine.run_many([
            JobRequest(get(name), config_for("softbound"))
            for name in WORKLOADS
        ])
        assert all(r.ok for r in results)
