"""Command-line driver, mirroring the paper artifact's usage.

The artifact wraps clang with MemInstrument flags; this CLI does the
same for the reproduction::

    python -m repro run  prog.c lib.c -mi-config=softbound -mi-opt-dominance
    python -m repro run  prog.c -mi-config=lowfat --extension-point ModuleOptimizerEarly
    python -m repro emit prog.c -mi-config=softbound      # print final IR
    python -m repro bench 183equake -mi-config=lowfat     # run a workload

``-mi-*`` flags use the artifact's exact syntax (Appendix A.6) and are
parsed by :meth:`InstrumentationConfig.from_flags`.

Every table/figure of the evaluation is also a subcommand, executed by
the parallel, disk-cached experiment engine::

    python -m repro table1 --jobs 4
    python -m repro report --jobs 4 --output report.md   # warm rerun is near-instant
    python -m repro fig9 --workloads 164gzip,183equake --no-cache

``lint`` runs the static pitfall detectors (paper Section 4) over
source files or bundled workloads, without executing anything::

    python -m repro lint prog.c lib.c
    python -m repro lint 164gzip 429mcf --format json
    python -m repro lint --all-workloads

``campaign`` executes a declarative instance x target spec (sharded,
cached, resumable), and ``serve`` runs the long-lived HTTP daemon::

    python -m repro campaign nightly.toml --jobs 0 --history BENCH_nightly.json
    python -m repro campaign nightly.toml --shard-index 1 --shard-count 4
    python -m repro serve --port 8642 --cache-dir /var/cache/repro
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.config import InstrumentationConfig
from .driver import CompileOptions, compile_program, run_program
from .errors import ConfigError, ReproError
from .ir.printer import format_module
from .opt.pipeline import EXTENSION_POINTS


def _budget(text: str) -> int:
    """The argparse type of ``--max-instructions``."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _split_mi_flags(argv: List[str]):
    mi_flags = [a for a in argv if a.startswith("-mi-")]
    rest = [a for a in argv if not a.startswith("-mi-")]
    return mi_flags, rest


#: Experiment subcommands -> (module name, generator attribute).  The
#: modules are imported lazily; each generator is called as
#: ``generate(engine, workloads)``.
EXPERIMENT_COMMANDS = {
    "table1": ("table1", "generate", "Table 1: instrumentation targets per task"),
    "table2": ("table2", "generate", "Table 2: unsafe dereferences in %%"),
    "fig9": ("fig9", "generate", "Figure 9: SoftBound vs Low-Fat overhead"),
    "fig10": ("fig10", "generate", "Figure 10: SoftBound config comparison"),
    "fig11": ("fig11", "generate", "Figure 11: Low-Fat config comparison"),
    "fig12": ("fig12_13", "generate_fig12", "Figure 12: SoftBound extension points"),
    "fig13": ("fig12_13", "generate_fig13", "Figure 13: Low-Fat extension points"),
    "optstats": ("optstats", "generate", "Section 5.3: dominance elimination stats"),
    "breakdown": ("breakdown", "generate", "Section 5.4: overhead attribution"),
    "ablation": ("ablation", "generate", "configuration trade-off ablations"),
    "report": (None, None, "full evaluation report (all tables and figures)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MemInstrument reproduction driver "
                    "(SoftBound / Low-Fat Pointers on the mini-IR stack)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .experiments.runner import (add_cache_arguments,
                                     add_engine_arguments,
                                     add_pool_arguments,
                                     add_vm_engine_argument)

    # Shared parent parsers: every subcommand that touches the VM, the
    # worker pool, or the result cache inherits the same option group,
    # so spelling, defaults, and help text cannot drift apart.
    vm_parent = argparse.ArgumentParser(add_help=False)
    add_vm_engine_argument(vm_parent)
    pool_parent = argparse.ArgumentParser(add_help=False)
    add_pool_arguments(pool_parent)
    pool0_parent = argparse.ArgumentParser(add_help=False)
    add_pool_arguments(pool0_parent, default_jobs=0)
    cache_parent = argparse.ArgumentParser(add_help=False)
    add_cache_arguments(cache_parent)
    experiment_parent = argparse.ArgumentParser(add_help=False)
    add_engine_arguments(experiment_parent)

    def common(p):
        p.add_argument("-O", dest="opt_level", type=int, default=3,
                       choices=(0, 1, 2, 3), help="optimization level")
        p.add_argument("--extension-point", default="VectorizerStart",
                       choices=EXTENSION_POINTS,
                       help="where the instrumentation runs in the pipeline")
        p.add_argument("--no-lto", action="store_true",
                       help="skip link-time optimization")
        p.add_argument("--verify", action="store_true",
                       help="verify the IR after every pass")

    run_p = sub.add_parser("run", parents=[vm_parent],
                           help="compile, instrument, and execute")
    run_p.add_argument("files", nargs="+", help="MiniC source files")
    common(run_p)
    run_p.add_argument("--entry", default="main")
    run_p.add_argument("--max-instructions", type=_budget,
                       default=500_000_000)
    run_p.add_argument("--stats", action="store_true",
                       help="print the runtime statistics summary")
    run_p.add_argument("--dump-codegen", default=None, metavar="DIR",
                       help="with --engine codegen: write the generated "
                            "Python source of every executed function "
                            "into DIR (numbered, IR block names as "
                            "comments)")

    emit_p = sub.add_parser("emit", parents=[vm_parent],
                            help="print the final (instrumented) IR")
    emit_p.add_argument("files", nargs="+", help="MiniC source files")
    common(emit_p)

    bench_p = sub.add_parser(
        "bench", parents=[vm_parent, pool_parent, cache_parent],
        help="run one workload benchmark through the experiment engine")
    bench_p.add_argument("workload", help="benchmark name, e.g. 183equake")
    common(bench_p)
    bench_p.add_argument("--compare-baseline", action="store_true",
                         help="also run uninstrumented and print overhead")

    profile_p = sub.add_parser(
        "profile", parents=[vm_parent],
        help="per-check-site profile: hottest sites and wide-bounds "
             "attribution (requires an instrumented -mi-config)",
    )
    profile_p.add_argument("targets", nargs="+",
                           help="MiniC source files, or one workload name")
    common(profile_p)
    profile_p.add_argument("--entry", default="main")
    profile_p.add_argument("--max-instructions", type=_budget,
                           default=100_000_000)
    profile_p.add_argument("--top", type=int, default=20,
                           help="number of hottest sites to show")
    profile_p.add_argument("--format", choices=("text", "json"),
                           default="text", help="output format")

    lint_p = sub.add_parser(
        "lint",
        help="statically flag the paper's Section 4 pitfalls",
    )
    lint_p.add_argument("targets", nargs="*",
                        help="MiniC source files or workload names")
    lint_p.add_argument("--all-workloads", action="store_true",
                        help="lint every bundled workload")
    lint_p.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")

    fuzz_p = sub.add_parser(
        "fuzz", parents=[pool0_parent, cache_parent],
        help="differential fuzzing: generated defined-behaviour "
             "programs through the {engine x mechanism x filter} matrix",
    )
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="corpus seed (default: 0)")
    fuzz_p.add_argument("--count", type=int, default=100,
                        help="number of generated programs (default: 100)")
    from .fuzz import MATRICES

    matrix_help = "; ".join(
        f"{m.name}: {len(m.labels)} configs x "
        + (f"{len(m.engines)} VM engines" if len(m.engines) > 1
           else f"{m.engines[0]} engine only")
        for m in MATRICES.values())
    fuzz_p.add_argument("--matrix", choices=tuple(MATRICES),
                        default="full", help=matrix_help)
    fuzz_p.add_argument("--minimize", action="store_true",
                        help="delta-debug each mismatching program to a "
                             "minimal reproducer")
    fuzz_p.add_argument("--max-instructions", type=_budget,
                        default=5_000_000,
                        help="per-run instruction budget")
    fuzz_p.add_argument("--coverage", action="store_true",
                        help="include AST-kind / IR-opcode coverage "
                             "accounting in the report")
    fuzz_p.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    fuzz_p.add_argument("--output", "-o", default=None, metavar="FILE",
                        help="write the report to FILE instead of stdout")
    fuzz_p.add_argument("--emit-dir", default=None, metavar="DIR",
                        help="write mismatching programs (and minimized "
                             "reproducers) into DIR")

    campaign_p = sub.add_parser(
        "campaign", parents=[pool0_parent, cache_parent],
        help="run a declarative instance x target campaign spec "
             "(sharded, cached, resumable)",
    )
    campaign_p.add_argument("spec",
                            help="campaign spec file (.toml or .json)")
    campaign_p.add_argument("--shard-index", type=int, default=0,
                            metavar="I",
                            help="this worker's shard (0-based)")
    campaign_p.add_argument("--shard-count", type=int, default=1,
                            metavar="N",
                            help="total number of shards")
    campaign_p.add_argument("--batch", type=int, default=32, metavar="N",
                            help="cells per scheduler wave (default: 32)")
    campaign_p.add_argument("--dry-run", action="store_true",
                            help="list this shard's cells without "
                                 "running anything")
    campaign_p.add_argument("--history", default=None, metavar="FILE",
                            help="append the campaign summary to this "
                                 "BENCH_*.json time series and report "
                                 "regressions against the previous run")
    campaign_p.add_argument("--fail-on-regression", action="store_true",
                            help="exit non-zero when --history flags a "
                                 "cycle/overhead/status regression")
    campaign_p.add_argument("--format", choices=("text", "json"),
                            default="text", help="result format")
    campaign_p.add_argument("--output", "-o", default=None, metavar="FILE",
                            help="write the result to FILE instead of "
                                 "stdout")

    serve_p = sub.add_parser(
        "serve", parents=[pool0_parent, cache_parent],
        help="long-lived HTTP/JSON daemon: POST MiniC sources or a "
             "workload name + an instance spec, get stats back",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="TCP port; 0 picks a free one "
                              "(default: 8642)")
    serve_p.add_argument("--max-instructions", type=_budget, default=None,
                         help="default per-job instruction budget for "
                              "submitted jobs")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")

    for name, (_, _, help_text) in EXPERIMENT_COMMANDS.items():
        exp_p = sub.add_parser(name, parents=[experiment_parent],
                               help=help_text)
        exp_p.add_argument("--output", "-o", default=None, metavar="FILE",
                           help="write the result to FILE instead of stdout")
    return parser


def _load_sources(paths: List[str]):
    sources = {}
    for path in paths:
        with open(path) as handle:
            sources[path] = handle.read()
    return sources


def _config_from(mi_flags: List[str]) -> InstrumentationConfig:
    if not mi_flags:
        return InstrumentationConfig(approach="noop")
    return InstrumentationConfig.from_flags(mi_flags)


def _run_lint(args) -> int:
    import json as json_mod

    from .analysis import lint as lint_mod
    from .workloads import all_names, get

    targets = list(args.targets)
    if args.all_workloads:
        targets.extend(n for n in all_names() if n not in targets)
    if not targets:
        raise ConfigError(
            "nothing to lint: pass source files, workload names, "
            "or --all-workloads"
        )

    results = {}
    for target in targets:
        if target in all_names():
            diagnostics = lint_mod.lint_workload(get(target))
        else:
            with open(target) as handle:
                source = handle.read()
            diagnostics = lint_mod.lint_sources({target: source})
        results[target] = diagnostics

    if args.format == "json":
        payload = {
            target: [d.to_dict() for d in diagnostics]
            for target, diagnostics in results.items()
        }
        print(json_mod.dumps(payload, indent=2))
    else:
        total = 0
        for target, diagnostics in results.items():
            print(f"== {target}")
            print(lint_mod.render_text(diagnostics))
            total += len(diagnostics)
        print(f"-- {total} finding(s) in {len(results)} target(s)")
    # Findings are expected output, not an error: keep exit status 0 so
    # pipelines can post-process the report.
    return 0


def _run_profile(args, config: InstrumentationConfig) -> int:
    import json as json_mod

    from .profiling import build_profile, render_text
    from .workloads import all_names, get

    if config.approach == "noop":
        raise ConfigError(
            "profile requires an instrumented configuration; pass "
            "-mi-config=softbound or -mi-config=lowfat"
        )

    options_kwargs = dict(
        opt_level=args.opt_level,
        extension_point=args.extension_point,
        link_time_optimization=not args.no_lto,
        verify=args.verify,
        # The profile report joins dynamic per-site counts against the
        # static safety verdicts whatever the profiled configuration.
        collect_verdicts=True,
    )
    if len(args.targets) == 1 and args.targets[0] in all_names():
        workload = get(args.targets[0])
        options = CompileOptions(
            obfuscate_pointer_copies=tuple(workload.obfuscated_units),
            **options_kwargs,
        )
        sources = workload.sources
    else:
        options = CompileOptions(**options_kwargs)
        sources = _load_sources(args.targets)

    program = compile_program(sources, config, options)
    result = run_program(program, entry=args.entry,
                         max_instructions=args.max_instructions,
                         engine=args.engine, profile=True)
    if not result.ok:
        print(result.describe(), file=sys.stderr)
    profile = build_profile(program, result, top=args.top)
    if args.format == "json":
        print(json_mod.dumps(profile, indent=2))
    else:
        print(render_text(profile))
    return 0


def _run_fuzz(args) -> int:
    import json as json_mod
    import os

    from .experiments.cache import ResultCache
    from .experiments.runner import resolve_jobs
    from .fuzz import (DifferentialOracle, MATRICES, corpus_coverage,
                       generate_corpus, minimize_mismatch)

    if args.count <= 0:
        raise ConfigError("--count must be positive")
    jobs = resolve_jobs(args.jobs)
    # The cache is opt-in for fuzzing: only an explicit --cache-dir is used.
    cache = None
    if args.cache_dir and not args.no_cache:
        cache = ResultCache(args.cache_dir)
    oracle = DifferentialOracle(
        matrix=MATRICES[args.matrix],
        jobs=jobs,
        max_instructions=args.max_instructions,
        job_timeout=args.job_timeout,
        cache=cache,
        verify_cache=args.verify_cache,
    )
    programs = generate_corpus(args.seed, args.count)

    def progress(done: int, total: int, bad: int) -> None:
        print(f"[fuzz] {done}/{total} programs, {bad} mismatch(es)",
              file=sys.stderr)

    report = oracle.run(programs, seed=args.seed, progress=progress,
                        batch=max(jobs, 4))
    if args.coverage:
        report.coverage = corpus_coverage(programs)

    minimized = {}
    if args.minimize and report.mismatches:
        for mismatch in report.mismatches:
            if mismatch.program in minimized:
                continue
            print(f"[fuzz] minimizing {mismatch.program} "
                  f"({mismatch.kind})", file=sys.stderr)
            try:
                minimized[mismatch.program] = minimize_mismatch(
                    mismatch, oracle)
            except ValueError as exc:
                # a flaky / non-reproducing mismatch must not take the
                # report (and the CI artifact) down with it
                print(f"[fuzz] cannot minimize {mismatch.program}: "
                      f"{exc}", file=sys.stderr)

    if args.emit_dir and report.mismatches:
        os.makedirs(args.emit_dir, exist_ok=True)
        for mismatch in report.mismatches:
            for unit, text in mismatch.sources.items():
                path = os.path.join(args.emit_dir,
                                    f"{mismatch.program}.{unit}")
                with open(path, "w") as handle:
                    handle.write(text)
        for name, sources in minimized.items():
            for unit, text in sources.items():
                path = os.path.join(args.emit_dir, f"{name}.min.{unit}")
                with open(path, "w") as handle:
                    handle.write(text)

    if args.format == "json":
        doc = report.to_json(include_sources=True)
        if minimized:
            doc["minimized"] = minimized
        text = json_mod.dumps(doc, indent=2)
    else:
        parts = [report.summary()]
        for name, sources in minimized.items():
            parts.append(f"-- minimized reproducer for {name}:")
            for unit, unit_text in sources.items():
                parts.append(f"// {unit}\n{unit_text}")
        text = "\n".join(parts)

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"written to {args.output}")
    else:
        print(text)
    return 0 if report.ok else 1


def _run_bench(args, config: InstrumentationConfig, parser) -> int:
    from .experiments.runner import JobRequest, engine_from_args
    from .workloads import all_names, get

    if args.workload not in all_names():
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(all_names())}"
        )
    workload = get(args.workload)
    # The cache is opt-in for one-off benches (explicit --cache-dir).
    engine = engine_from_args(args, require_cache_dir=True)
    if config.approach == "noop":
        config = None
    result = engine.run_request(JobRequest(
        workload, config,
        extension_point=args.extension_point,
        engine=args.engine,
    ))
    print(f"{args.workload}: {result.describe}  cycles={result.cycles}")
    if result.checks_executed:
        print(f"checks: {result.checks_executed} "
              f"({result.unsafe_percent:.2f}% wide)")
    if args.compare_baseline and config is not None:
        base = engine.run_request(JobRequest(workload, None,
                                             engine=args.engine))
        print(f"baseline cycles={base.cycles}  "
              f"overhead={result.cycles / base.cycles:.2f}x")
    return 0 if result.ok else 1


def _run_campaign(args) -> int:
    import json as json_mod

    from .campaign import (CampaignRunner, append_entry, find_regressions,
                           load_spec)
    from .experiments.runner import engine_from_args

    spec = load_spec(args.spec)
    engine = engine_from_args(args)
    runner = CampaignRunner(spec, engine,
                            shard_index=args.shard_index,
                            shard_count=args.shard_count)
    if args.dry_run:
        cells = runner.shard_cells()
        for cell in cells:
            print(cell.id)
        print(f"-- {len(cells)} cell(s) in shard "
              f"{args.shard_index + 1}/{args.shard_count} "
              f"(of {len(runner.cells())} total)", file=sys.stderr)
        return 0

    def progress(done: int, total: int) -> None:
        print(f"[campaign] {done}/{total} cells", file=sys.stderr)

    result = runner.run(progress=progress, batch=args.batch)

    regressions = []
    if args.history:
        append_entry(args.history, result)
        regressions = find_regressions(args.history)
        for regression in regressions:
            print(f"[campaign] {regression.describe()}", file=sys.stderr)

    if args.format == "json":
        text = json_mod.dumps(result.to_json(), indent=2)
    else:
        text = result.summary()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"written to {args.output}")
    else:
        print(text)
    print(f"[engine] {engine.executed_jobs} jobs executed, "
          f"{engine.cache_hits} served from cache", file=sys.stderr)
    if not result.ok:
        return 1
    if regressions and args.fail_on_regression:
        return 1
    return 0


def _run_serve(args) -> int:
    from .campaign import make_server
    from .experiments.runner import engine_from_args

    engine = engine_from_args(args)
    server, _ = make_server(args.host, args.port, engine,
                            default_max_instructions=args.max_instructions,
                            verbose=args.verbose)
    host, port = server.server_address[:2]
    # Machine-readable: CI starts with --port 0 and parses this line.
    print(f"repro serve listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
    return 0


def _run_experiment(args, parser) -> int:
    import importlib

    from .experiments.runner import engine_from_args, workloads_from_args

    try:
        workloads = workloads_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    engine = engine_from_args(args)

    if args.command == "report":
        from .experiments import report

        text = report.generate(engine, workloads)
    else:
        module_name, attribute, _ = EXPERIMENT_COMMANDS[args.command]
        module = importlib.import_module(f".experiments.{module_name}",
                                         __package__)
        text = getattr(module, attribute)(engine, workloads)

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"written to {args.output}")
    else:
        print(text)
    print(f"[engine] {engine.executed_jobs} jobs executed, "
          f"{engine.cache_hits} served from cache", file=sys.stderr)
    return 0


def _dispatch(args, config: InstrumentationConfig, parser) -> int:
    """Run the parsed subcommand and return its exit code."""
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "profile":
        return _run_profile(args, config)
    if args.command == "fuzz":
        return _run_fuzz(args)
    if args.command == "bench":
        return _run_bench(args, config, parser)
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command in EXPERIMENT_COMMANDS:
        return _run_experiment(args, parser)

    program = compile_program(
        _load_sources(args.files), config,
        CompileOptions(opt_level=args.opt_level,
                       extension_point=args.extension_point,
                       link_time_optimization=not args.no_lto,
                       verify=args.verify),
    )
    if args.command == "emit":
        print(format_module(program.module), end="")
        return 0
    result = run_program(program, entry=args.entry,
                         max_instructions=args.max_instructions,
                         engine=args.engine,
                         dump_codegen=args.dump_codegen)
    for line in result.output:
        print(line)
    if not result.ok:
        print(result.describe(), file=sys.stderr)
    if args.stats:
        print(result.stats.summary(), file=sys.stderr)
    if result.violation is not None or result.abort is not None:
        return 134
    if result.fault is not None:
        return 139
    return result.exit_code or 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    mi_flags, rest = _split_mi_flags(argv)
    parser = _build_parser()
    args = parser.parse_args(rest)
    if (args.command == "run" and args.dump_codegen
            and args.engine != "codegen"):
        parser.error("--dump-codegen needs --engine codegen")
    # Every command maps errors to exit codes the same way, with a
    # one-line diagnostic instead of a traceback: an invalid flag or
    # configuration value (unknown -mi-* flags included) exits 2, any
    # other error the program reports exits 1.
    try:
        return _dispatch(args, _config_from(mi_flags), parser)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
