"""Tests for the parallel experiment engine and its on-disk cache.

Covers the hard guarantees the engine makes:

* ``BenchResult`` JSON serialization round-trips *exactly* (property-
  based) -- this is what makes worker transport and the disk cache
  lossless;
* cache hit / miss / automatic invalidation when any keyed input
  changes, the VM engine included: each engine caches and resumes its
  own cells;
* a 2-worker parallel run is bit-identical to the serial path;
* ``verify_cache`` turns a corrupted cache entry into a hard error.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import InstrumentationConfig
from repro.core.itarget import TargetStatistics
from repro.errors import CacheVerificationError
from repro.experiments.cache import ResultCache, job_key
from repro.experiments.common import BenchResult, config_for, label_for
from repro.experiments.runner import ExperimentEngine, JobRequest
from repro.experiments import runner as runner_mod
from repro.workloads import Workload, get

FAST_WORKLOADS = ("197parser", "456hmmer")


# ----------------------------------------------------------------------
# BenchResult JSON round-trip (property-based)

_counts = st.integers(min_value=0, max_value=2**40)
_names = st.text(min_size=0, max_size=30)

_static_stats = st.builds(
    TargetStatistics,
    gathered_checks=_counts,
    gathered_invariants=_counts,
    filtered_checks=_counts,
    by_kind=st.dictionaries(_names, _counts, max_size=6),
)

_bench_results = st.builds(
    BenchResult,
    workload=_names,
    label=_names,
    extension_point=_names,
    cycles=_counts,
    instructions=_counts,
    output=st.lists(_names, max_size=6),
    ok=st.booleans(),
    describe=_names,
    checks_executed=_counts,
    checks_wide=_counts,
    unsafe_percent=st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False),
    invariant_checks=_counts,
    trie_loads=_counts,
    trie_stores=_counts,
    shadow_stack_ops=_counts,
    lowfat_fallbacks=_counts,
    static=_static_stats,
    status=st.sampled_from(["exit", "violation", "fault", "abort", "failed"]),
    violation_kind=st.sampled_from(["", "deref", "invariant", "wrapper"]),
    failure=_names,
    lowfat_allocs=_counts,
    opcode_counts=st.dictionaries(_names, _counts, max_size=8),
)


class TestBenchResultJson:
    @given(_bench_results)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_exact(self, result):
        document = json.loads(json.dumps(result.to_json(), sort_keys=True))
        assert BenchResult.from_json(document) == result

    @given(_bench_results)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_is_plain_data(self, result):
        # to_json must not leak live objects into the cache document.
        document = result.to_json()
        assert isinstance(document["static"], dict)
        restored = BenchResult.from_json(document)
        assert isinstance(restored.static, TargetStatistics)
        assert restored.static == result.static

    def test_real_result_round_trips(self):
        engine = ExperimentEngine()
        result = engine.run(get("197parser"), "softbound")
        assert BenchResult.from_json(
            json.loads(json.dumps(result.to_json()))) == result

    def test_failed_result_is_structured(self):
        result = BenchResult.failed(get("197parser"), "softbound",
                                    "VectorizerStart", "worker exploded")
        assert not result.ok
        assert result.status == "failed"
        assert result.failure == "worker exploded"
        assert result.cycles == 0
        assert BenchResult.from_json(result.to_json()) == result


# ----------------------------------------------------------------------
# cache hit / miss / invalidation

def _engine(tmp_path, **kwargs):
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache"))
    return ExperimentEngine(**kwargs)


def _label(payload):
    """The label of the configuration a job payload measures."""
    config = payload["config"]
    return label_for(config and InstrumentationConfig(**config))


def _forbid_execution(monkeypatch):
    def explode(payload):
        raise AssertionError(f"unexpected recomputation of {_label(payload)}")
    monkeypatch.setattr(runner_mod, "_execute_payload", explode)


class TestDiskCache:
    def test_cold_run_populates_cache(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run(get("197parser"), "softbound")
        assert engine.cache.stores >= 2  # baseline + instrumented
        assert len(engine.cache) == engine.cache.stores

    def test_second_process_hits_without_recompute(self, tmp_path,
                                                   monkeypatch):
        first = _engine(tmp_path)
        original = first.run(get("197parser"), "softbound")

        _forbid_execution(monkeypatch)
        second = _engine(tmp_path)
        cached = second.run(get("197parser"), "softbound")
        assert cached.to_json() == original.to_json()
        assert second.cache_hits == 2  # the cell and its baseline
        assert second.executed_jobs == 0

    def test_config_change_invalidates(self, tmp_path):
        first = _engine(tmp_path)
        first.run(get("197parser"), "softbound")

        second = _engine(tmp_path)
        second.run(get("197parser"), "softbound-unopt")
        # the shared baseline hits; the changed config is recomputed
        assert second.cache_hits == 1
        assert second.executed_jobs == 1

    def test_budget_change_invalidates(self, tmp_path, monkeypatch):
        first = _engine(tmp_path)
        first.run(get("197parser"), "baseline")

        same = _engine(tmp_path)
        same.run(get("197parser"), "baseline")
        assert same.cache_hits == 1

        changed = _engine(tmp_path, max_instructions=10_000_000)
        changed.run(get("197parser"), "baseline")
        assert changed.cache_hits == 0
        assert changed.executed_jobs == 1

    def test_source_change_invalidates(self, tmp_path):
        base = get("197parser")
        first = _engine(tmp_path)
        first.run(base, "baseline")

        edited = Workload(
            name=base.name,
            sources={name: source + "\n// edited\n"
                     for name, source in base.sources.items()},
            description=base.description,
            characteristics=base.characteristics,
            obfuscated_units=base.obfuscated_units,
        )
        second = _engine(tmp_path)
        second.run(edited, "baseline")
        assert second.cache_hits == 0
        assert second.executed_jobs == 1

    def test_key_ignores_label_name_and_timeout(self):
        # A job is what it measures: neither the label its
        # configuration goes by, nor the workload's name, nor the time
        # limit enters the key.
        gzip = get("164gzip")
        renamed = Workload(name="renamed", sources=dict(gzip.sources),
                           description="",
                           obfuscated_units=gzip.obfuscated_units)
        request = JobRequest(gzip, config_for("softbound-unopt"))
        key = ExperimentEngine().fingerprint(request)
        assert ExperimentEngine(job_timeout=5.0).fingerprint(
            JobRequest(renamed, InstrumentationConfig.softbound(),
                       validate_output=False)) == key
        assert ExperimentEngine().fingerprint(
            JobRequest(gzip, config_for("softbound"))) != key
        payload = ExperimentEngine(job_timeout=5.0)._payload(request)
        assert not {"label", "workload", "reference_output",
                    "timeout"} & set(payload)
        other = dict(payload, sources={"tu0": "int main(){return 1;}"})
        assert job_key(payload) == key
        assert job_key(other) != key

    def test_key_includes_vm_engine(self):
        # Each engine caches its own cells: the engine is a keyed
        # input like the sources and the configuration.
        payload = {"workload": "w", "sources": {"tu0": "int main(){}"}}
        assert job_key(dict(payload, engine="interp")) != \
            job_key(dict(payload, engine="codegen"))
        assert job_key(dict(payload, engine="codegen")) == \
            job_key(dict(payload, engine="codegen"))

    def test_format_version_tracks_schema_changes(self):
        # Version 3: TargetStatistics grew the hoist counters and
        # static verdicts.  Version 4: every key carries the VM
        # engine, so engine-agnostic version-3 entries must miss.
        # Version 5: the range analysis joins soundly, so results
        # cached before it (same package version) must miss.  Version
        # 6: keys hash no label or workload name, and entries hold run
        # records without the request fields.  Version 7: an
        # uninstrumented build's key holds no extension point, and a
        # record no ``extension_point``.
        from repro.experiments.cache import CACHE_FORMAT_VERSION

        assert CACHE_FORMAT_VERSION == 7

    def test_interp_cells_not_served_to_codegen(self, tmp_path):
        first = _engine(tmp_path, vm_engine="interp")
        original = first.run(get("197parser"), "softbound")

        second = _engine(tmp_path, vm_engine="codegen")
        fresh = second.run(get("197parser"), "softbound")
        assert second.cache_hits == 0
        assert second.executed_jobs == 2  # baseline + instrumented
        # recomputed, and bit-identical by the engines' contract
        assert fresh.to_json() == original.to_json()

    def test_each_engine_resumes_its_own_cells(self, tmp_path,
                                               monkeypatch):
        originals = {}
        for tier in ("codegen", "interp"):
            originals[tier] = _engine(tmp_path, vm_engine=tier).run(
                get("197parser"), "softbound").to_json()

        _forbid_execution(monkeypatch)
        for tier in ("codegen", "interp"):
            replay = _engine(tmp_path, vm_engine=tier)
            cached = replay.run(get("197parser"), "softbound")
            assert cached.to_json() == originals[tier]
            assert replay.cache_hits == 2  # the cell and its baseline
            assert replay.executed_jobs == 0

    def test_stale_format_entry_is_a_miss(self, tmp_path):
        # An entry from an older format (here: a version-3,
        # engine-agnostic one) under today's key is never served.
        engine = _engine(tmp_path)
        request = JobRequest(get("197parser"), None)
        engine.run_request(request)
        for path in engine.cache.paths():
            document = json.loads(path.read_text())
            document["format"] = 3
            path.write_text(json.dumps(document))

        replay = _engine(tmp_path)
        assert replay.run_request(request).ok
        assert replay.cache_hits == 0
        assert replay.executed_jobs == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run(get("197parser"), "baseline")
        for path in engine.cache.paths():
            path.write_text("{ not json")
        fresh = _engine(tmp_path)
        result = fresh.run(get("197parser"), "baseline")
        assert result.ok
        assert fresh.cache_hits == 0

    def test_failed_results_are_not_cached(self, tmp_path, monkeypatch):
        def explode(payload):
            raise RuntimeError("boom")
        monkeypatch.setattr(runner_mod, "_execute_payload", explode)
        engine = _engine(tmp_path)
        result = engine.run(get("197parser"), "baseline")
        assert result.status == "failed"
        assert len(engine.cache) == 0


# ----------------------------------------------------------------------
# serial == parallel (bit-identical)

class TestParallelDeterminism:
    def test_two_worker_matrix_matches_serial(self):
        requests = [
            JobRequest(get(name), config_for(label))
            for name in FAST_WORKLOADS
            for label in ("baseline", "softbound", "lowfat")
        ]
        serial = ExperimentEngine(jobs=1).run_many(list(requests))
        parallel = ExperimentEngine(jobs=2).run_many(list(requests))
        assert [r.to_json() for r in serial] == \
               [r.to_json() for r in parallel]

    def test_parallel_results_memoized(self):
        engine = ExperimentEngine(jobs=2)
        requests = [JobRequest(get(name), config_for("softbound"))
                    for name in FAST_WORKLOADS]
        first = engine.run_many(list(requests))
        # repeated requests come from the memo: identical objects
        assert engine.run(get(FAST_WORKLOADS[0]), "softbound") is first[0]
        assert engine.executed_jobs == 4  # 2 baselines + 2 instrumented

    def test_warm_cache_serves_parallel_run(self, tmp_path, monkeypatch):
        requests = [JobRequest(get(name), config_for("softbound"))
                    for name in FAST_WORKLOADS]
        cold = _engine(tmp_path, jobs=2)
        expected = [r.to_json() for r in cold.run_many(list(requests))]

        _forbid_execution(monkeypatch)
        warm = _engine(tmp_path, jobs=2)
        got = [r.to_json() for r in warm.run_many(list(requests))]
        assert got == expected


# ----------------------------------------------------------------------
# --verify-cache: cached counters must equal a fresh recomputation

class TestVerifyCache:
    def _corrupt_one(self, cache, label, field, value):
        request = JobRequest(get("197parser"), config_for(label))
        path = cache.path_for(ExperimentEngine().fingerprint(request))
        document = json.loads(path.read_text())
        document["result"][field] = value
        path.write_text(json.dumps(document))
        return True

    def test_intact_cache_passes(self, tmp_path):
        _engine(tmp_path).run(get("197parser"), "softbound")
        engine = _engine(tmp_path, verify_cache=True)
        result = engine.run(get("197parser"), "softbound")
        assert result.ok

    def test_corrupted_cycles_is_a_hard_error(self, tmp_path):
        seed = _engine(tmp_path)
        seed.run(get("197parser"), "softbound")
        assert self._corrupt_one(seed.cache, "softbound", "cycles", 1)

        engine = _engine(tmp_path, verify_cache=True)
        with pytest.raises(CacheVerificationError, match="cycles"):
            engine.run(get("197parser"), "softbound")

    def test_corrupted_check_counters_detected(self, tmp_path):
        seed = _engine(tmp_path)
        seed.run(get("197parser"), "softbound")
        assert self._corrupt_one(seed.cache, "softbound",
                                 "checks_executed", 123456)

        engine = _engine(tmp_path, verify_cache=True)
        with pytest.raises(CacheVerificationError, match="checks_executed"):
            engine.run(get("197parser"), "softbound")

    def test_without_flag_no_recompute_happens(self, tmp_path, monkeypatch):
        seed = _engine(tmp_path)
        seed.run(get("197parser"), "softbound")
        _forbid_execution(monkeypatch)
        engine = _engine(tmp_path, verify_cache=False)
        engine.run(get("197parser"), "softbound")  # must not raise


# ----------------------------------------------------------------------
# per-request engine overrides (mixed-engine batches)

class TestEngineOverride:
    """``JobRequest.engine`` lets one batch mix VM tiers (the fuzz
    oracle's engine-differential matrix).  The memo must keep the tiers
    apart and the implicit baseline must inherit the override."""

    def test_override_reaches_the_worker(self):
        engine = ExperimentEngine(jobs=1, vm_engine="codegen")
        workload = get("197parser")
        seen = []
        original = runner_mod._execute_payload

        def spy(payload):
            seen.append((_label(payload), payload["engine"]))
            return original(payload)

        runner_mod._execute_payload, saved = spy, runner_mod._execute_payload
        try:
            engine.run_many([
                JobRequest(workload, config_for("softbound"),
                           engine="interp"),
            ])
        finally:
            runner_mod._execute_payload = saved
        # both the instrumented job and its implicit baseline reference
        # ran under the overridden tier
        assert sorted(seen) == [("baseline", "interp"),
                                ("softbound", "interp")]

    def test_mixed_batch_not_memo_aliased(self):
        """The same (workload, label) under each engine must execute
        separately -- a shared memo entry would make the comparison
        vacuous."""
        engine = ExperimentEngine(jobs=1, vm_engine="codegen")
        workload = get("197parser")
        tiers = ("codegen", "interp")
        results = engine.run_many([
            JobRequest(workload, config_for("softbound"), engine=tier)
            for tier in tiers
        ])
        # 2 instrumented jobs + 2 baseline references
        assert engine.executed_jobs == 4
        assert len({id(r) for r in results}) == len(tiers)
        # ...and the tiers really are bit-identical (the invariant the
        # fuzz oracle checks at scale)
        assert results[1].to_json() == results[0].to_json()

    def test_override_misses_default_engine_entry(self, tmp_path):
        """A cached-at-``vm_engine`` result must not satisfy an override
        request; the override result is stored under its own key."""
        workload = get("197parser")
        first = _engine(tmp_path, vm_engine="codegen")
        first.run(workload, "baseline")
        stored = len(first.cache)
        assert stored >= 1

        second = _engine(tmp_path, vm_engine="codegen")
        second.run_request(JobRequest(workload, None,
                                      engine="interp"))
        assert second.cache_hits == 0
        assert second.executed_jobs == 1
        assert len(second.cache) == stored + 1

    def test_matching_override_still_uses_cache(self, tmp_path,
                                                monkeypatch):
        """An explicit override equal to ``vm_engine`` names the same
        cell: the disk cache serves it."""
        workload = get("197parser")
        first = _engine(tmp_path, vm_engine="codegen")
        first.run(workload, "baseline")

        _forbid_execution(monkeypatch)
        second = _engine(tmp_path, vm_engine="codegen")
        second.run_request(JobRequest(workload, None,
                                      engine="codegen"))
        assert second.cache_hits == 1


class TestEngineKeyedCache:
    """The disk cache is partitioned per VM engine: mixed-engine
    batches cache every cell, and no cell can ever be served another
    engine's stored stats."""

    def test_override_jobs_are_cached(self, tmp_path, monkeypatch):
        """Overridden-engine jobs persist like any other -- that is
        what makes a mixed-engine campaign shard resumable."""
        workload = get("197parser")
        first = _engine(tmp_path)
        first.run_request(JobRequest(workload, None,
                                     engine="interp"))
        assert len(first.cache) == 1

        _forbid_execution(monkeypatch)
        second = _engine(tmp_path)
        result = second.run_request(JobRequest(workload, None,
                                               engine="interp"))
        assert second.cache_hits == 1
        assert result.cycles > 0

    def test_engines_never_share_entries(self, tmp_path):
        """A codegen entry must not satisfy an interp request for the
        byte-identical job (mixed-engine campaign shards must never be
        served another engine's cached stats)."""
        workload = get("197parser")
        first = _engine(tmp_path)
        first.run_request(JobRequest(workload, None,
                                     engine="codegen"))

        second = _engine(tmp_path)
        second.run_request(JobRequest(workload, None,
                                      engine="interp"))
        assert second.cache_hits == 0
        assert second.executed_jobs == 1
        # both engines' results are now stored, under distinct keys
        assert len(second.cache) == 2

    def test_disk_keys_differ_only_by_engine(self):
        engine = ExperimentEngine()
        workload = get("197parser")
        payloads = [
            engine._payload(JobRequest(workload, None, engine=tier))
            for tier in ("codegen", "interp")
        ]
        assert len({job_key(p) for p in payloads}) == len(payloads)
        # ...and the engine is the only payload field that differs
        assert [k for k in payloads[0]
                if payloads[0][k] != payloads[1][k]] == ["engine"]

    def test_codegen_entries_keyed_apart(self, tmp_path, monkeypatch):
        """A codegen campaign shard stores and replays its own entries
        next to the interp shard's."""
        workload = get("197parser")
        first = _engine(tmp_path)
        first.run_request(JobRequest(workload, None,
                                     engine="interp"))
        first.run_request(JobRequest(workload, None,
                                     engine="codegen"))
        assert first.cache_hits == 0
        assert len(first.cache) == 2

        _forbid_execution(monkeypatch)
        second = _engine(tmp_path)
        result = second.run_request(JobRequest(workload, None,
                                               engine="codegen"))
        assert second.cache_hits == 1
        assert result.cycles > 0

    def test_fingerprint_is_engine_qualified_and_mode_independent(self):
        """Campaign sharding hashes the fingerprint, which is also the
        cell's disk key; it must not depend on the local engine's
        ``vm_engine`` default."""
        workload = get("197parser")
        request = JobRequest(workload, config_for("softbound"),
                             engine="interp")
        codegen_default = ExperimentEngine(vm_engine="codegen")
        interp_default = ExperimentEngine(vm_engine="interp")
        assert codegen_default.fingerprint(request) == \
            interp_default.fingerprint(request)
        assert codegen_default.fingerprint(request) == \
            job_key(codegen_default._payload(request))
        other = JobRequest(workload, config_for("softbound"),
                           engine="codegen")
        assert codegen_default.fingerprint(request) != \
            codegen_default.fingerprint(other)


# ----------------------------------------------------------------------
# validation: a request's ok does not depend on who computed the run

#: Ends without a violation under Low-Fat, but prints a pointer, which
#: differs from the baseline's.
POINTER_PRINT = Workload(
    name="pointer-print",
    sources={"main.c": "int main() { long *p = (long*)malloc(16); "
                       "print_i64((long)p); return 0; }"},
    description="prints a heap address")


def _lowfat(validate):
    return JobRequest(POINTER_PRINT, config_for("lowfat"),
                      validate_output=validate)


class TestValidationOrder:
    def test_alone(self):
        result = ExperimentEngine().run_request(_lowfat(True))
        assert result.status == "exit"
        assert not result.ok

    def test_after_an_unvalidated_request(self):
        engine = ExperimentEngine()
        assert engine.run_request(_lowfat(False)).ok
        assert not engine.run_request(_lowfat(True)).ok

    @pytest.mark.parametrize("validate_first", [False, True])
    def test_in_one_batch(self, validate_first):
        flags = [validate_first, not validate_first]
        results = ExperimentEngine().run_many(
            [_lowfat(flag) for flag in flags])
        assert [result.ok for result in results] == \
            [not flag for flag in flags]
        assert results[0].to_json() != results[1].to_json()

    def test_from_a_cache_filled_unvalidated(self, tmp_path, monkeypatch):
        assert _engine(tmp_path).run_request(_lowfat(False)).ok
        seen = []
        original = runner_mod._execute_payload

        def spy(payload):
            seen.append(_label(payload))
            return original(payload)

        monkeypatch.setattr(runner_mod, "_execute_payload", spy)
        later = _engine(tmp_path)
        assert not later.run_request(_lowfat(True)).ok
        assert seen == ["baseline"]  # the lowfat run came from disk
        assert later.cache_hits == 1

    def test_repeated_requests_return_the_same_object(self):
        engine = ExperimentEngine()
        first = engine.run_many([_lowfat(True), _lowfat(False)])
        again = engine.run_many([_lowfat(False), _lowfat(True)])
        assert again[0] is first[1] and again[1] is first[0]
        assert engine.executed_jobs == 2


# ----------------------------------------------------------------------
# one job per configuration, whatever it is called

class TestOneJobPerConfiguration:
    def test_ablation_cell_shares_the_figure_run(self):
        from repro.experiments import ablation

        gzip = get("164gzip")
        wide = next(r for r in ablation.requests()
                    if r.workload.name == "164gzip"
                    and r.config == InstrumentationConfig.softbound())
        engine = ExperimentEngine()
        figure, ablated = engine.run_many([
            JobRequest(gzip, config_for("softbound-unopt"),
                       validate_output=False),
            wide,
        ])
        assert engine.executed_jobs == 1
        assert figure is ablated
        assert figure.label == "softbound-unopt"

    def test_baseline_runs_once_across_extension_points(self):
        # An uninstrumented build plugs no pass in at any extension
        # point; an instrumented one does, so it runs once per point.
        parser = get("197parser")
        points = ("VectorizerStart", "ModuleOptimizerEarly")
        engine = ExperimentEngine()
        results = engine.run_many(
            [JobRequest(parser, None, ep) for ep in points])
        assert engine.executed_jobs == 1
        assert [r.extension_point for r in results] == list(points)
        assert results[0].cycles == results[1].cycles
        assert len({engine.fingerprint(JobRequest(parser, config, ep))
                    for config in (None, InstrumentationConfig.softbound())
                    for ep in points}) == 3

    def test_report_resolves_to_310_jobs(self):
        from repro.experiments import report

        engine = ExperimentEngine()
        requests = report.all_requests()
        keys = {engine.fingerprint(r) for r in requests}
        assert len(keys) == 310
        # every validating cell's baseline is itself a report cell
        references = {
            engine.fingerprint(JobRequest(
                r.workload, None, max_instructions=r.max_instructions,
                engine=r.engine))
            for r in requests if r.validate_output and r.config}
        assert references <= keys
