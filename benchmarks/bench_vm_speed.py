"""Wall-clock engine benchmark: the VM execution tiers.

Times the selected VM execution engines (reference tree-walker,
generated-source codegen tier) on the bundled workloads, uninstrumented
and under SoftBound and Low-Fat, verifies the runs are bit-identical
(output and full ``RuntimeStats``) while it is at it, and writes the
results to ``BENCH_vm.json`` at the repo root -- the repo's
performance trajectory.  Per label it records each engine's geomean
speedup over the reference engine and, for every instrumented label,
each engine's geomean instrumented/baseline time ratio: the wall-clock
overhead of the instrumentation on that engine.

Usage::

    PYTHONPATH=src python benchmarks/bench_vm_speed.py
    PYTHONPATH=src python benchmarks/bench_vm_speed.py \
        --workloads 164gzip,183equake,456hmmer --min-speedup 3 \
        --max-overhead 2

Exit status is non-zero when any engine pair diverges, when any
engine's geomean speedup over the first (reference) engine falls below
``--min-speedup`` on any label, or when any compared engine's
instrumented/baseline ratio exceeds ``--max-overhead`` (CI's
perf-smoke gates).

Timing methodology: each engine is timed as min-of-N fresh VM runs over
a once-compiled program (compilation excluded, emission cached after
the first run), each run after an untimed garbage collection.  The
minimum filters scheduler noise, so every engine gets at least three
repeats by default: the tree-walker is the expensive denominator of
every speedup, and one wall-clock run of it per cell can swing by half
on a shared host (back-to-back single runs of the same tree read
183equake's baseline at 0.67 s and 1.04 s), more than most changes the
speedups record.  A workload's labels take turns within each engine's
repeats, so a host that changes speed mid-run skews the
instrumented/baseline ratios less than the absolute times.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.driver import CompileOptions, compile_program, run_program  # noqa: E402
from repro.experiments.common import config_for  # noqa: E402
from repro.vm.engines import ENGINES  # noqa: E402
from repro.workloads import all_names, get  # noqa: E402

MAX_INSTRUCTIONS = 100_000_000

#: Default: the reference tree-walker, then the codegen tier.
DEFAULT_ENGINES = "interp,codegen"

#: Default: the uninstrumented label and both mechanisms.
DEFAULT_LABELS = "baseline,softbound,lowfat"


def _compile(workload, label):
    config = config_for(label)
    options = CompileOptions(
        obfuscate_pointer_copies=tuple(workload.obfuscated_units)
    )
    if config is None:
        return compile_program(workload.sources, options=options)
    return compile_program(workload.sources, config, options)


def _time_engine(programs, engine, repeats):
    """{label: (best wall-clock seconds, last RunResult)} over
    ``repeats`` rounds, each running every label's program once."""
    best = {label: (math.inf, None) for label in programs}
    for _ in range(repeats):
        for label, program in programs.items():
            gc.collect()
            start = time.perf_counter()
            result = run_program(program, max_instructions=MAX_INSTRUCTIONS,
                                 engine=engine)
            seconds = time.perf_counter() - start
            best[label] = (min(best[label][0], seconds), result)
    return best


def _identical(a, b):
    """Field-for-field equality of two RunResults (the differential)."""
    if a.output != b.output or a.exit_code != b.exit_code:
        return False
    if a.describe() != b.describe():
        return False
    return dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)


def _geomean(values):
    values = list(values)
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, metavar="NAME[,NAME...]",
                        help="comma-separated subset (default: all 20)")
    parser.add_argument("--labels", default=DEFAULT_LABELS,
                        metavar="LABEL[,LABEL...]",
                        help="instrumentation configs to time (default: "
                             f"{DEFAULT_LABELS}); overhead ratios need "
                             "baseline among them")
    parser.add_argument("--engines", default=DEFAULT_ENGINES,
                        metavar="ENGINE[,ENGINE...]",
                        help="VM engines to time, slowest-first "
                             f"(default: {DEFAULT_ENGINES}); the first "
                             "is the identity reference")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_vm.json"),
                        metavar="FILE", help="result file (default: "
                        "BENCH_vm.json at the repo root)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="timing repeats for the fast tiers "
                             "(min-of-N; default 3)")
    parser.add_argument("--interp-repeats", type=int, default=3, metavar="N",
                        help="timing repeats for the tree-walker (default 3)")
    parser.add_argument("--min-speedup", type=float, default=None, metavar="X",
                        help="fail (exit 1) if any engine's geomean "
                             "speedup over the reference engine is below X "
                             "on any label")
    parser.add_argument("--max-overhead", type=float, default=None,
                        metavar="X",
                        help="fail (exit 1) if any compared engine's geomean "
                             "instrumented/baseline time ratio is above X "
                             "on any instrumented label")
    args = parser.parse_args(argv)

    known = list(all_names())
    names = ([n.strip() for n in args.workloads.split(",") if n.strip()]
             if args.workloads else known)
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    labels = [l.strip() for l in args.labels.split(",") if l.strip()]
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    bad = [e for e in engines if e not in ENGINES]
    if bad:
        parser.error(f"unknown engine(s): {', '.join(bad)} "
                     f"(known: {', '.join(ENGINES)})")
    if len(engines) < 2:
        parser.error("need at least two engines to compare")
    if args.max_overhead is not None and "baseline" not in labels:
        parser.error("--max-overhead needs the baseline label")

    rows = []
    mismatches = 0
    for name in names:
        workload = get(name)
        programs = {label: _compile(workload, label) for label in labels}
        timed = {engine: _time_engine(programs, engine,
                                      args.interp_repeats if engine == "interp"
                                      else args.repeats)
                 for engine in engines}
        for label in labels:
            times = {e: timed[e][label][0] for e in engines}
            results = {e: timed[e][label][1] for e in engines}
            reference = engines[0]
            same = all(_identical(results[reference], results[e])
                       for e in engines[1:])
            if not same:
                mismatches += 1
            row = {"workload": name, "label": label, "identical": same}
            for engine in engines:
                row[f"{engine}_s"] = round(times[engine], 4)
            # Speedups vs. the slowest-first reference, matching the
            # geomeans below.
            for engine in engines[1:]:
                row[f"speedup_{engine}_vs_{reference}"] = round(
                    times[reference] / times[engine], 2
                ) if times[engine] else math.inf
            rows.append(row)
            flag = "" if same else "  << STATS MISMATCH"
            cells = " ".join(f"{e}={times[e]:7.2f}s" for e in engines)
            print(f"{name:12s} {label:10s} {cells}{flag}", flush=True)

    reference = engines[0]
    geomeans = {}
    for label in labels:
        geomeans[label] = {}
        for engine in engines[1:]:
            key = f"speedup_{engine}_vs_{reference}"
            geomeans[label][f"{engine}_vs_{reference}"] = round(_geomean(
                r[key] for r in rows if r["label"] == label), 2)
    # Instrumented/baseline time per workload, each engine on its own.
    baseline_rows = {r["workload"]: r for r in rows
                     if r["label"] == "baseline"}
    overheads = {}
    for label in labels:
        if label == "baseline" or not baseline_rows:
            continue
        overheads[label] = {engine: round(_geomean(
            r[f"{engine}_s"] / baseline_rows[r["workload"]][f"{engine}_s"]
            for r in rows if r["label"] == label), 2) for engine in engines}
    for label, pairs in geomeans.items():
        for pair, value in pairs.items():
            print(f"{'GEOMEAN':12s} {label:10s} {pair:28s} {value:5.2f}x")
    for label, ratios in overheads.items():
        for engine, value in ratios.items():
            print(f"{'OVERHEAD':12s} {label:10s} {engine + ' vs baseline':28s}"
                  f" {value:5.2f}x")

    document = {
        "benchmark": "vm-engine-speedup",
        "description": "VM execution tiers (tree-walker / codegen tier), "
                       "min-of-N wall-clock per fresh VM run, per "
                       "instrumentation label",
        "max_instructions": MAX_INSTRUCTIONS,
        "engines": engines,
        "repeats": {e: (args.interp_repeats if e == "interp"
                        else args.repeats) for e in engines},
        "python": sys.version.split()[0],
        "results": rows,
        "geomeans": geomeans,
        "overhead_vs_baseline": overheads,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"written to {args.output}")

    if mismatches:
        print(f"error: {mismatches} run set(s) diverged between engines",
              file=sys.stderr)
        return 1
    failed = False
    if args.min_speedup is not None:
        for label, pairs in geomeans.items():
            for pair, got in pairs.items():
                if got < args.min_speedup:
                    print(f"error: {label} {pair} geomean {got} is below "
                          f"the required {args.min_speedup:g}x",
                          file=sys.stderr)
                    failed = True
    if args.max_overhead is not None:
        for label, ratios in overheads.items():
            for engine in engines[1:]:
                if ratios[engine] > args.max_overhead:
                    print(f"error: {label}/baseline on {engine} geomean "
                          f"{ratios[engine]} is above the allowed "
                          f"{args.max_overhead:g}x", file=sys.stderr)
                    failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
