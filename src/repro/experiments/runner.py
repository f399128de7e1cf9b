"""Parallel, disk-cached experiment execution engine.

The paper's evaluation re-compiles and re-runs every workload under up
to 7 configurations at multiple pipeline extension points.  All of
those (workload, config, extension-point) jobs are independent and the
VM is CPU-bound pure Python, so the engine fans them out over
``multiprocessing`` worker *processes* and persists every result in
the content-addressed on-disk cache of :mod:`.cache`:

* :meth:`ExperimentEngine.run_many` is the scheduler.  It dedupes the
  requested jobs, resolves what it can from the in-process memo and
  the disk cache, runs the remaining *baseline* jobs first (their
  outputs are the references the instrumented runs are validated
  against), then fans the remaining instrumented jobs out in one wave.
* Results travel between processes as ``BenchResult.to_json()``
  documents -- the same representation the disk cache stores -- and the
  serial path round-trips through the same JSON, so serial, parallel,
  and cached runs are bit-identical.
* A worker that raises, or exceeds the per-job timeout (enforced with
  ``SIGALRM`` inside the worker), yields a structured *failed*
  ``BenchResult`` (``status == "failed"``) instead of taking down the
  run.  Failed results are never written to the cache.
* With ``verify_cache=True`` the engine recomputes one disk-cache hit
  per run (the canary) and requires the cached counters to match the
  fresh recomputation exactly; any mismatch raises
  :class:`~repro.errors.CacheVerificationError` -- the VM is
  deterministic, so a mismatch always means corruption.

``ExperimentEngine`` is exported from :mod:`.common` as ``Runner`` and
keeps the historical serial runner's API (``run`` / ``baseline`` /
``overhead`` and in-process memoization: repeated requests return the
same object).
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import threading
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import InstrumentationConfig
from ..driver import CompileOptions, compile_program, run_program
from ..errors import CacheVerificationError
from ..vm.engines import DEFAULT_ENGINE, ENGINE_DESCRIPTIONS, ENGINES
from ..workloads import Workload
from .cache import ResultCache, default_cache_dir, job_key
from .common import MAX_INSTRUCTIONS, BenchResult, config_for


@dataclass
class JobRequest:
    """One cell of the experiment matrix.

    ``label`` names the configuration (see ``CONFIG_LABELS``); for
    configurations outside the named set (the ablations), pass the
    exact :class:`InstrumentationConfig` as ``config_override`` and a
    descriptive label of your choice.  ``validate_output`` controls
    whether the engine schedules the workload's baseline first and
    compares outputs against it (the transparency check); ablation
    runs that *expect* spurious violations turn it off.

    ``engine`` overrides the engine-wide VM execution tier
    (``vm_engine``) for this one job, which lets a single batch mix
    ``codegen`` and ``interp`` cells -- the differential fuzzing
    oracle schedules the whole engine matrix through one
    :meth:`ExperimentEngine.run_many` wave this way.
    """

    workload: Workload
    label: str
    extension_point: str = "VectorizerStart"
    config_override: Optional[InstrumentationConfig] = None
    lf_region_capacity: Optional[int] = None
    max_instructions: Optional[int] = None
    validate_output: bool = True
    engine: Optional[str] = None

    def config(self) -> Optional[InstrumentationConfig]:
        if self.config_override is not None:
            return self.config_override
        return config_for(self.label)


class _JobTimeout(Exception):
    pass


def _alarm_handler(signum, frame):
    raise _JobTimeout()


def _execute_payload(payload: dict) -> BenchResult:
    """Compile and run one job from its self-contained payload.

    Runs in a worker process (or inline for serial engines); must not
    touch any engine state.
    """
    config = (InstrumentationConfig(**payload["config"])
              if payload["config"] is not None else None)
    options = CompileOptions(
        opt_level=payload["opt_level"],
        extension_point=payload["extension_point"],
        obfuscate_pointer_copies=tuple(payload["obfuscated_units"]),
        link_time_optimization=payload["link_time_optimization"],
    )
    if config is None:
        program = compile_program(payload["sources"], options=options)
    else:
        program = compile_program(payload["sources"], config, options)
    run = run_program(program,
                      max_instructions=payload["max_instructions"],
                      lf_region_capacity=payload["lf_region_capacity"],
                      engine=payload["engine"])
    reference = payload["reference_output"]
    if payload["label"] == "baseline" and run.ok:
        output_ok = True
    else:
        output_ok = reference is None or run.output == reference
    return BenchResult.from_run(payload["workload"], payload["label"],
                                payload["extension_point"], program, run,
                                output_ok=output_ok)


def _run_job(payload: dict) -> Tuple[str, object]:
    """Worker entry point: never raises; returns ``("ok", json_dict)``
    or ``("failed", reason)`` so one bad job cannot break the pool."""
    timeout = payload.get("timeout")
    use_alarm = (bool(timeout)
                 and threading.current_thread() is threading.main_thread())
    previous = None
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return ("ok", _execute_payload(payload).to_json())
    except _JobTimeout:
        return ("failed", f"timed out after {timeout:g}s")
    except Exception as exc:
        return ("failed", f"{type(exc).__name__}: {exc}")
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


#: Fields the --verify-cache canary compares.  ``ok``/``describe``/
#: ``failure`` are excluded because the fresh recomputation runs
#: without the stored run's baseline reference; every measured counter
#: must match exactly.
_CANARY_FIELDS = (
    "workload", "label", "extension_point", "cycles", "instructions",
    "output", "checks_executed", "checks_wide", "unsafe_percent",
    "invariant_checks", "trie_loads", "trie_stores", "shadow_stack_ops",
    "lowfat_fallbacks", "lowfat_allocs", "status", "violation_kind",
    "opcode_counts", "static",
)


class ExperimentEngine:
    """Work-queue scheduler + memo + disk cache for benchmark results.

    ``jobs=1`` (the default) executes inline; ``jobs=N`` fans each
    phase of independent jobs out over N forked worker processes.
    ``cache`` is a :class:`ResultCache` (or None for memory-only).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        max_instructions: int = MAX_INSTRUCTIONS,
        job_timeout: Optional[float] = None,
        verify_cache: bool = False,
        vm_engine: str = DEFAULT_ENGINE,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.max_instructions = max_instructions
        self.job_timeout = job_timeout
        self.verify_cache = verify_cache
        self.vm_engine = vm_engine
        self.executed_jobs = 0
        self._memo: Dict[str, BenchResult] = {}
        self._payloads: Dict[str, dict] = {}
        self._disk_hits: List[str] = []
        self._canary_checked = False

    # ------------------------------------------------------------------
    # public API (superset of the historical serial Runner)

    def run(self, workload: Workload, label: str,
            extension_point: str = "VectorizerStart") -> BenchResult:
        return self.run_many([JobRequest(workload, label, extension_point)])[0]

    def run_request(self, request: JobRequest) -> BenchResult:
        return self.run_many([request])[0]

    def prefetch(self, requests: Iterable[JobRequest]) -> None:
        """Resolve a whole job matrix (in parallel for ``jobs>1``);
        subsequent ``run`` calls are memo hits."""
        self.run_many(list(requests))

    def baseline(self, workload: Workload) -> BenchResult:
        return self.run(workload, "baseline")

    def overhead(self, workload: Workload, label: str,
                 extension_point: str = "VectorizerStart") -> float:
        base = self.baseline(workload)
        inst = self.run(workload, label, extension_point)
        return inst.cycles / base.cycles if base.cycles else math.inf

    @property
    def cache_hits(self) -> int:
        return len(self._disk_hits)

    # ------------------------------------------------------------------
    # scheduler

    def run_many(self, requests: Sequence[JobRequest]) -> List[BenchResult]:
        order: List[str] = []
        pending_baselines: Dict[str, dict] = {}
        pending_rest: Dict[str, dict] = {}
        needs_reference: Dict[str, str] = {}

        def admit(request: JobRequest) -> str:
            payload = self._payload(request)
            # One engine-qualified key names the job in the memo and
            # on disk, so mixed-engine batches never alias each other.
            key = job_key(payload)
            if key in self._memo or key in pending_baselines \
                    or key in pending_rest:
                return key
            self._payloads[key] = payload
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                self._memo[key] = BenchResult.from_json(cached)
                self._disk_hits.append(key)
                return key
            if request.label == "baseline":
                pending_baselines[key] = payload
            else:
                pending_rest[key] = payload
                if request.validate_output:
                    # the reference inherits the instruction budget so
                    # it coincides (memo and cache key) with an
                    # explicitly requested baseline cell of the same
                    # batch -- a campaign never runs its baseline twice
                    needs_reference[key] = admit(
                        JobRequest(request.workload, "baseline",
                                   max_instructions=request.max_instructions,
                                   engine=request.engine))
            return key

        for request in requests:
            order.append(admit(request))

        # Phase 1: baselines (their outputs are the validation
        # references for phase 2).
        self._execute(pending_baselines)
        for key, baseline_key in needs_reference.items():
            if key in pending_rest:
                base = self._memo.get(baseline_key)
                if base is not None and base.ok:
                    pending_rest[key]["reference_output"] = list(base.output)
        # Phase 2: all instrumented / ablation jobs in one wave.
        self._execute(pending_rest)

        self._maybe_verify_canary()
        return [self._memo[key] for key in order]

    # ------------------------------------------------------------------
    # internals

    def _payload(self, request: JobRequest) -> dict:
        workload = request.workload
        config = request.config()
        return {
            "workload": workload.name,
            "label": request.label,
            "extension_point": request.extension_point,
            "sources": dict(workload.sources),
            "obfuscated_units": sorted(workload.obfuscated_units),
            "config": None if config is None else asdict(config),
            "opt_level": 3,
            "link_time_optimization": True,
            "max_instructions": request.max_instructions
                                or self.max_instructions,
            "lf_region_capacity": request.lf_region_capacity,
            "reference_output": None,
            "timeout": self.job_timeout,
            "engine": request.engine or self.vm_engine,
        }

    def fingerprint(self, request: JobRequest) -> str:
        """The content key of ``request``: its memo and disk-cache key.

        Engine-qualified and independent of request order -- the
        campaign layer also assigns cells to shards by hashing this,
        so every shard of a sweep agrees on the partition without
        coordination."""
        return job_key(self._payload(request))

    def _execute(self, pending: Dict[str, dict]) -> None:
        if not pending:
            return
        items = list(pending.items())
        payloads = [payload for _, payload in items]
        if self.jobs == 1 or len(items) == 1:
            outcomes = [_run_job(payload) for payload in payloads]
        else:
            outcomes = self._map_parallel(payloads)
        for (key, payload), outcome in zip(items, outcomes):
            result = self._materialize(payload, outcome)
            self._memo[key] = result
            self.executed_jobs += 1
            if self.cache is not None and result.status != "failed":
                self.cache.put(key, result.to_json(), describe={
                    "workload": payload["workload"],
                    "label": payload["label"],
                    "extension_point": payload["extension_point"],
                    "engine": payload["engine"],
                })
        pending.clear()

    def _map_parallel(self, payloads: List[dict]) -> List[Tuple[str, object]]:
        methods = multiprocessing.get_all_start_methods()
        context = (multiprocessing.get_context("fork")
                   if "fork" in methods else multiprocessing.get_context())
        processes = min(self.jobs, len(payloads))
        with context.Pool(processes=processes) as pool:
            async_result = pool.map_async(_run_job, payloads, chunksize=1)
            if self.job_timeout:
                # Safety net for workers that die outright (the in-worker
                # alarm already converts ordinary timeouts to failures).
                budget = self.job_timeout * len(payloads) + 30.0
                try:
                    return async_result.get(budget)
                except multiprocessing.TimeoutError:
                    pool.terminate()
                    return [("failed", "worker pool stalled past the "
                                       "job-timeout budget")] * len(payloads)
            return async_result.get()

    @staticmethod
    def _materialize(payload: dict, outcome: Tuple[str, object]) -> BenchResult:
        status, value = outcome
        if status == "ok":
            return BenchResult.from_json(value)
        return BenchResult.failed(payload["workload"], payload["label"],
                                  payload["extension_point"], str(value))

    def _maybe_verify_canary(self) -> None:
        if not self.verify_cache or self._canary_checked \
                or not self._disk_hits:
            return
        self._canary_checked = True
        key = self._disk_hits[0]
        payload = dict(self._payloads[key])
        payload["timeout"] = None
        payload["reference_output"] = None
        cached = self._memo[key]
        fresh = _execute_payload(payload)
        mismatches = [
            name for name in _CANARY_FIELDS
            if getattr(fresh, name) != getattr(cached, name)
        ]
        if mismatches:
            raise CacheVerificationError(
                f"cached result for {cached.workload}/{cached.label}"
                f"@{cached.extension_point} disagrees with a fresh "
                f"recomputation in field(s): {', '.join(mismatches)} "
                f"(cache key {key}); the VM is deterministic, so the "
                "cache entry is corrupt -- delete the cache directory"
            )


# ----------------------------------------------------------------------
# argparse integration shared by cli.py and report.py
#
# The option groups below are the single source of truth for the
# engine's command-line surface: every subcommand that runs jobs
# composes them (directly or through a cli.py parent parser), so
# ``--jobs``/``--cache-dir``/``--engine`` spell, default, and document
# themselves identically everywhere.

def add_pool_arguments(parser, default_jobs: int = 1) -> None:
    """``--jobs`` / ``--job-timeout`` (the worker-pool knobs)."""
    parser.add_argument(
        "--jobs", "-j", type=int, default=default_jobs, metavar="N",
        help=f"number of worker processes (default: {default_jobs}; "
             "0 = all CPU cores)")
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job time limit; jobs past it become failed results")


def add_cache_arguments(parser) -> None:
    """``--cache-dir`` / ``--no-cache`` / ``--verify-cache``."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk result cache directory "
             f"(default: {default_cache_dir()})")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache")
    parser.add_argument(
        "--verify-cache", action="store_true",
        help="recompute one cached result per run and hard-error on "
             "any mismatch")


def add_vm_engine_argument(parser) -> None:
    """``--engine`` (the VM execution tier)."""
    tiers = "; ".join(f"'{name}' is the {desc}"
                      for name, desc in ENGINE_DESCRIPTIONS.items())
    parser.add_argument(
        "--engine", default=DEFAULT_ENGINE, choices=ENGINES,
        help=f"VM execution engine: {tiers}; results are bit-identical")


def add_engine_arguments(parser) -> None:
    """Attach the engine's full option set (pool + cache + workload
    subset + VM engine) to ``parser``."""
    add_pool_arguments(parser)
    add_cache_arguments(parser)
    parser.add_argument(
        "--workloads", default=None, metavar="NAME[,NAME...]",
        help="restrict matrix experiments to these workloads")
    add_vm_engine_argument(parser)


def resolve_jobs(jobs: int) -> int:
    """``--jobs 0`` means one worker per CPU core."""
    import os

    return jobs if jobs > 0 else (os.cpu_count() or 1)


def engine_from_args(args,
                     require_cache_dir: bool = False) -> ExperimentEngine:
    """Build the engine an argparse namespace describes.

    With ``require_cache_dir`` the disk cache is opt-in: it is only
    built when ``--cache-dir`` was passed explicitly (differential
    runs must not silently reuse a stale default cache)."""
    cache = None
    if not args.no_cache:
        if args.cache_dir:
            cache = ResultCache(args.cache_dir)
        elif not require_cache_dir:
            cache = ResultCache(default_cache_dir())
    return ExperimentEngine(
        jobs=resolve_jobs(args.jobs),
        cache=cache,
        job_timeout=args.job_timeout,
        verify_cache=args.verify_cache,
        vm_engine=getattr(args, "engine", DEFAULT_ENGINE),
    )


def workloads_from_args(args) -> Optional[List[Workload]]:
    """The ``--workloads`` subset as Workload objects (None = all)."""
    if not getattr(args, "workloads", None):
        return None
    from ..workloads import all_names, get

    names = [name.strip() for name in args.workloads.split(",") if name.strip()]
    known = set(all_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"unknown workload(s): {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(known))}")
    return [get(name) for name in names]
