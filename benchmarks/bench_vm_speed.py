"""Wall-clock engine benchmark: the VM execution tiers.

Times the selected VM execution engines (reference tree-walker,
generated-source codegen tier) on the bundled workloads, verifies the
runs are bit-identical (output and full ``RuntimeStats``) while it is
at it, and writes the results to ``BENCH_vm.json`` at the repo root --
the repo's performance trajectory.  Future changes regress-check
against the recorded geomeans.

Usage::

    PYTHONPATH=src python benchmarks/bench_vm_speed.py
    PYTHONPATH=src python benchmarks/bench_vm_speed.py \
        --workloads 164gzip,183equake,456hmmer --min-speedup 3

Exit status is non-zero when any engine pair diverges, or when any
engine's geomean speedup over the first (reference) engine falls
below ``--min-speedup`` (CI's perf-smoke gate).

Timing methodology: each engine is timed as min-of-N fresh VM runs over
a once-compiled program (compilation excluded).  The fast tiers get
more repeats than the tree-walker because their runs are cheap and the
minimum filters scheduler noise; the tree-walker is the expensive
denominator, and the geomean across workloads averages its noise out.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _compile(workload, label):
    config = config_for(label)
    options = CompileOptions(
        obfuscate_pointer_copies=tuple(workload.obfuscated_units)
    )
    if config is None:
        return compile_program(workload.sources, options=options)
    return compile_program(workload.sources, config, options)


def _time_engine(program, engine, repeats):
    """(best wall-clock seconds, last RunResult) over ``repeats`` runs."""
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_program(program, max_instructions=MAX_INSTRUCTIONS,
                             engine=engine)
        best = min(best, time.perf_counter() - start)
    return best, result


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
    parser.add_argument("--labels", default="baseline",
                        metavar="LABEL[,LABEL...]",
                        help="instrumentation configs to time "
                             "(default: baseline, the pure engine measure)")
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
    parser.add_argument("--interp-repeats", type=int, default=1, metavar="N",
                        help="timing repeats for the tree-walker (default 1)")
    parser.add_argument("--min-speedup", type=float, default=None, metavar="X",
                        help="fail (exit 1) if any engine's geomean "
                             "speedup over the reference engine is below X")
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

    rows = []
    mismatches = 0
    for name in names:
        workload = get(name)
        for label in labels:
            program = _compile(workload, label)
            times = {}
            results = {}
            for engine in engines:
                repeats = (args.interp_repeats if engine == "interp"
                           else args.repeats)
                times[engine], results[engine] = _time_engine(
                    program, engine, repeats)
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

    geomeans = {}
    reference = engines[0]
    for engine in engines[1:]:
        key = f"speedup_{engine}_vs_{reference}"
        geomeans[f"{engine}_vs_{reference}"] = round(
            _geomean(r[key] for r in rows if key in r), 2)
    for pair, value in geomeans.items():
        print(f"{'GEOMEAN':12s} {pair:28s} {value:5.2f}x")

    document = {
        "benchmark": "vm-engine-speedup",
        "description": "VM execution tiers (tree-walker / codegen tier), "
                       "min-of-N wall-clock per fresh VM run",
        "max_instructions": MAX_INSTRUCTIONS,
        "engines": engines,
        "repeats": {e: (args.interp_repeats if e == "interp"
                        else args.repeats) for e in engines},
        "python": sys.version.split()[0],
        "results": rows,
        "geomeans": geomeans,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"written to {args.output}")

    if mismatches:
        print(f"error: {mismatches} run set(s) diverged between engines",
              file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        for pair, got in geomeans.items():
            if got < args.min_speedup:
                print(f"error: {pair} geomean {got} is below the "
                      f"required {args.min_speedup:g}x", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
