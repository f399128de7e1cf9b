"""Parallel, disk-cached experiment execution engine.

The paper's evaluation re-compiles and re-runs every workload under up
to 7 configurations at multiple pipeline extension points.  All of
those (workload, config, extension-point) jobs are independent and the
VM is CPU-bound pure Python, so the engine fans them out over
``multiprocessing`` worker *processes* and persists every run in the
content-addressed on-disk cache of :mod:`.cache`:

* A job is what it measures.  Its key (:func:`.cache.job_key`) hashes
  only the inputs that decide the run -- sources, configuration,
  compile options, budget, Low-Fat region capacity, VM engine -- so a
  configuration reached under two labels, a workload submitted under
  two names, or an uninstrumented build requested at two extension
  points (where it plugs in no pass), runs once.
* :meth:`ExperimentEngine.run_many` is the scheduler.  It resolves
  every requested job, and the same-engine baseline of every request
  that validates its output, from the in-process store and the disk
  cache, then runs the rest in one wave.
* Workers return the raw run (:meth:`BenchResult.record`); the parent
  answers each request from the stored runs.  A baseline is never
  validated; a validating request is ``ok`` only if its run ended
  cleanly and printed what its baseline printed, whenever the
  baseline ended cleanly.  The verdict is worked out per request, so
  no stored run depends on which request computed it first, and
  repeated identical requests return the same object.
* Runs travel between processes as plain JSON-able records -- the same
  representation the disk cache stores -- so serial, parallel, and
  cached runs are bit-identical.
* A worker that raises, or exceeds the per-job timeout (enforced with
  ``SIGALRM`` inside the worker), yields a structured *failed* run
  (``status == "failed"``) instead of taking down the run.  Failed
  runs are never written to the cache.
* With ``verify_cache=True`` the engine recomputes one disk-cache hit
  per run (the canary) and requires the whole stored record to equal
  the fresh one; any mismatch raises
  :class:`~repro.errors.CacheVerificationError` -- the VM is
  deterministic, so a mismatch always means corruption.

``ExperimentEngine`` is exported from :mod:`.common` as ``Runner`` and
keeps the historical serial runner's API (``run`` / ``baseline`` /
``overhead``).
"""

from __future__ import annotations

import functools
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
from .common import MAX_INSTRUCTIONS, BenchResult, config_for, label_for


@dataclass
class JobRequest:
    """One cell of the experiment matrix.

    ``config`` is the configuration to measure, None for the
    uninstrumented baseline; :func:`.common.config_for` turns a label
    into one.  ``validate_output`` compares the run's output with the
    workload's same-engine baseline (the transparency check); ablation
    runs that *expect* spurious violations turn it off.

    ``engine`` overrides the engine-wide VM execution tier
    (``vm_engine``) for this one job, which lets a single batch mix
    ``codegen`` and ``interp`` cells -- the differential fuzzing
    oracle schedules the whole engine matrix through one
    :meth:`ExperimentEngine.run_many` wave this way.
    """

    workload: Workload
    config: Optional[InstrumentationConfig]
    extension_point: str = "VectorizerStart"
    lf_region_capacity: Optional[int] = None
    max_instructions: Optional[int] = None
    validate_output: bool = True
    engine: Optional[str] = None


class _JobTimeout(Exception):
    pass


def _alarm_handler(signum, frame):
    raise _JobTimeout()


def _execute_payload(payload: dict) -> dict:
    """Compile and run one job from its self-contained payload and
    return the run's record.

    Runs in a worker process (or inline for serial engines); must not
    touch any engine state.
    """
    config = (InstrumentationConfig(**payload["config"])
              if payload["config"] is not None else None)
    options = CompileOptions(
        opt_level=payload["opt_level"],
        obfuscate_pointer_copies=tuple(payload["obfuscated_units"]),
        link_time_optimization=payload["link_time_optimization"],
    )
    if payload["extension_point"] is not None:
        options.extension_point = payload["extension_point"]
    if config is None:
        program = compile_program(payload["sources"], options=options)
    else:
        program = compile_program(payload["sources"], config, options)
    run = run_program(program,
                      max_instructions=payload["max_instructions"],
                      lf_region_capacity=payload["lf_region_capacity"],
                      engine=payload["engine"])
    return BenchResult.record(program, run)


def _run_job(payload: dict, timeout: Optional[float]) -> Tuple[str, object]:
    """Worker entry point: never raises; returns ``("ok", record)`` or
    ``("failed", reason)`` so one bad job cannot break the pool."""
    use_alarm = (bool(timeout)
                 and threading.current_thread() is threading.main_thread())
    previous = None
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return ("ok", _execute_payload(payload))
    except _JobTimeout:
        return ("failed", f"timed out after {timeout:g}s")
    except Exception as exc:
        return ("failed", f"{type(exc).__name__}: {exc}")
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class ExperimentEngine:
    """Work-queue scheduler + run store + disk cache for benchmark
    results.

    ``jobs=1`` (the default) executes inline; ``jobs=N`` fans each
    wave of independent jobs out over N forked worker processes.
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
        self.cache_hits = 0
        self._runs: Dict[str, dict] = {}
        self._answers: Dict[Tuple[str, str, str, Optional[str]],
                            BenchResult] = {}
        self._canary_checked = False

    # ------------------------------------------------------------------
    # public API (superset of the historical serial Runner)

    def run(self, workload: Workload, label: str,
            extension_point: str = "VectorizerStart") -> BenchResult:
        return self.run_request(
            JobRequest(workload, config_for(label), extension_point))

    def run_request(self, request: JobRequest) -> BenchResult:
        return self.run_many([request])[0]

    def prefetch(self, requests: Iterable[JobRequest]) -> None:
        """Resolve a whole job matrix (in parallel for ``jobs>1``);
        subsequent ``run`` calls are answered from stored runs."""
        self.run_many(list(requests))

    def baseline(self, workload: Workload) -> BenchResult:
        return self.run(workload, "baseline")

    def overhead(self, workload: Workload, label: str,
                 extension_point: str = "VectorizerStart") -> float:
        base = self.baseline(workload)
        inst = self.run(workload, label, extension_point)
        return inst.cycles / base.cycles if base.cycles else math.inf

    # ------------------------------------------------------------------
    # scheduler

    def run_many(self, requests: Sequence[JobRequest]) -> List[BenchResult]:
        pending: Dict[str, dict] = {}
        jobs = []
        for request in requests:
            key = self._admit(request, pending)
            reference = None
            if request.validate_output and request.config is not None:
                # the reference inherits the instruction budget so it
                # coincides with an explicitly requested baseline cell
                # of the same workload -- a campaign never runs its
                # baseline twice
                reference = self._admit(JobRequest(
                    request.workload, None,
                    max_instructions=request.max_instructions,
                    engine=request.engine), pending)
            jobs.append((request, key, reference))
        self._execute(pending)
        return [self._answer(*job) for job in jobs]

    def fingerprint(self, request: JobRequest) -> str:
        """The content key of ``request``: its memo and disk-cache key.

        Engine-qualified and independent of request order -- the
        campaign layer also assigns cells to shards by hashing this,
        so every shard of a sweep agrees on the partition without
        coordination."""
        return job_key(self._payload(request))

    # ------------------------------------------------------------------
    # internals

    def _payload(self, request: JobRequest) -> dict:
        workload = request.workload
        config = request.config
        return {
            "sources": dict(workload.sources),
            "obfuscated_units": sorted(workload.obfuscated_units),
            "config": None if config is None else asdict(config),
            "opt_level": 3,
            # An uninstrumented build plugs no pass in anywhere, so its
            # extension point decides nothing.
            "extension_point": None if config is None
                               or config.approach == "noop"
                               else request.extension_point,
            "link_time_optimization": True,
            "max_instructions": request.max_instructions
                                or self.max_instructions,
            "lf_region_capacity": request.lf_region_capacity,
            "engine": request.engine or self.vm_engine,
        }

    def _admit(self, request: JobRequest, pending: Dict[str, dict]) -> str:
        """The key of ``request``'s job: stored, read from the disk
        cache, or added to ``pending``."""
        payload = self._payload(request)
        key = job_key(payload)
        if key in self._runs or key in pending:
            return key
        cached = self.cache.get(key) if self.cache is not None else None
        if cached is None:
            pending[key] = payload
            return key
        self.cache_hits += 1
        if self.verify_cache and not self._canary_checked:
            self._verify_canary(key, payload, cached)
        self._runs[key] = cached
        return key

    def _answer(self, request: JobRequest, key: str,
                reference: Optional[str]) -> BenchResult:
        name = request.workload.name
        ep = request.extension_point
        answer = self._answers.get((key, name, ep, reference))
        if answer is None:
            run = self._runs[key]
            ok = run["status"] == "exit"
            if ok and reference is not None:
                base = self._runs[reference]
                ok = (base["status"] != "exit"
                      or run["output"] == base["output"])
            answer = BenchResult.answer(run, name,
                                        label_for(request.config), ep, ok)
            self._answers[(key, name, ep, reference)] = answer
        return answer

    def _execute(self, pending: Dict[str, dict]) -> None:
        if not pending:
            return
        payloads = list(pending.values())
        if self.jobs == 1 or len(payloads) == 1:
            outcomes = [_run_job(payload, self.job_timeout)
                        for payload in payloads]
        else:
            outcomes = self._map_parallel(payloads)
        for (key, payload), (status, value) in zip(pending.items(),
                                                   outcomes):
            self.executed_jobs += 1
            if status == "ok":
                self._runs[key] = value
                if self.cache is not None:
                    self.cache.put(key, value)
            else:
                self._runs[key] = BenchResult.failed_record(str(value))

    def _map_parallel(self, payloads: List[dict]) -> List[Tuple[str, object]]:
        methods = multiprocessing.get_all_start_methods()
        context = (multiprocessing.get_context("fork")
                   if "fork" in methods else multiprocessing.get_context())
        processes = min(self.jobs, len(payloads))
        worker = functools.partial(_run_job, timeout=self.job_timeout)
        with context.Pool(processes=processes) as pool:
            async_result = pool.map_async(worker, payloads, chunksize=1)
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

    def _verify_canary(self, key: str, payload: dict, cached: dict) -> None:
        self._canary_checked = True
        fresh = _execute_payload(payload)
        mismatches = sorted(name for name in fresh.keys() | cached.keys()
                            if fresh.get(name) != cached.get(name))
        if mismatches:
            raise CacheVerificationError(
                f"cached run {key} disagrees with a fresh recomputation "
                f"in field(s): {', '.join(mismatches)}; the VM is "
                "deterministic, so the cache entry is corrupt -- delete "
                "the cache directory"
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
