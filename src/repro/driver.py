"""End-to-end driver: the public API of the reproduction.

Reproduces the paper's technical setup (Figure 8):

* each MiniC translation unit is compiled separately;
* the MemInstrument pass is plugged into the per-unit optimization
  pipeline at a chosen *extension point*;
* the units are linked, followed by link-time optimization;
* the program runs on the deterministic VM with the runtime library
  of the chosen approach installed.

Typical use::

    from repro import CompileOptions, compile_program, run_program
    from repro.core import InstrumentationConfig

    program = compile_program({"main.c": source},
                              InstrumentationConfig.lowfat())
    result = run_program(program)
    print(result.stats.cycles, result.violation)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .core.config import InstrumentationConfig
from .core.instrument import MemInstrumentPass
from .core.itarget import CheckSiteInfo, TargetStatistics
from .core.mechanism import install_runtime
from .errors import MemoryFault, MemSafetyViolation, ProgramAbort, VMError
from .frontend.codegen import compile_source
from .ir.module import Module
from .ir.verifier import verify_module
from .opt.dce import DCE
from .opt.gvn import GVN
from .opt.inline import Inliner
from .opt.instcombine import InstCombine
from .opt.pass_manager import PassManager
from .opt.pipeline import build_pipeline
from .opt.simplifycfg import SimplifyCFG
from .vm.engines import DEFAULT_ENGINE
from .vm.interpreter import VirtualMachine
from .vm.stats import RuntimeStats

NOOP = InstrumentationConfig(approach="noop")


@dataclass
class CompileOptions:
    opt_level: int = 3
    extension_point: str = "VectorizerStart"
    #: True/False applies to all units; a collection of unit names
    #: obfuscates only those units (models mixing compiler versions,
    #: paper Figure 7).
    obfuscate_pointer_copies: Union[bool, Sequence[str]] = False
    link_time_optimization: bool = True
    verify: bool = False
    #: Compute per-site static safety verdicts even when no
    #: range-based filter is enabled (used by ``repro profile``).
    collect_verdicts: bool = False

    def obfuscates(self, unit_name: str) -> bool:
        if isinstance(self.obfuscate_pointer_copies, bool):
            return self.obfuscate_pointer_copies
        return unit_name in self.obfuscate_pointer_copies


@dataclass
class CompiledProgram:
    module: Module
    config: InstrumentationConfig
    options: CompileOptions
    instrumentation: TargetStatistics = field(default_factory=TargetStatistics)
    per_function: Dict[str, TargetStatistics] = field(default_factory=dict)
    #: site id -> static provenance of the emitted checks, for the
    #: ``repro profile`` join against RuntimeStats.per_site.
    check_sites: Dict[str, CheckSiteInfo] = field(default_factory=dict)
    #: site id -> static safety verdict over the gathered checks
    #: ("proven-safe" / "proven-violating" / "unknown"); populated when
    #: the range analysis runs (``-mi-opt-ranges`` / ``-mi-opt-hoist``).
    check_verdicts: Dict[str, str] = field(default_factory=dict)


@dataclass
class RunResult:
    exit_code: Optional[int]
    output: List[str]
    stats: RuntimeStats
    violation: Optional[MemSafetyViolation] = None
    fault: Optional[MemoryFault] = None
    abort: Optional[ProgramAbort] = None

    @property
    def ok(self) -> bool:
        return (
            self.violation is None and self.fault is None and self.abort is None
        )

    def describe(self) -> str:
        if self.violation is not None:
            return f"violation: {self.violation}"
        if self.fault is not None:
            return f"fault: {self.fault}"
        if self.abort is not None:
            return f"abort: {self.abort}"
        return f"exit {self.exit_code}"


def compile_program(
    sources: Union[str, Dict[str, str], Sequence[str]],
    config: InstrumentationConfig = NOOP,
    options: Optional[CompileOptions] = None,
) -> CompiledProgram:
    """Compile (and instrument) one or more MiniC translation units.

    ``sources`` may be a single source string, a sequence of source
    strings, or a mapping of unit name to source.  Units are compiled
    and instrumented *separately* (the paper's separate-compilation
    setting, which is what makes size-less extern arrays problematic
    for SoftBound), then linked.
    """
    options = options or CompileOptions()
    if isinstance(sources, str):
        named = {"tu0": sources}
    elif isinstance(sources, dict):
        named = dict(sources)
    else:
        named = {f"tu{i}": src for i, src in enumerate(sources)}

    program = CompiledProgram(Module("empty"), config, options)
    units: List[Module] = []
    for name, source in named.items():
        module = compile_source(
            source, name, obfuscate_pointer_copies=options.obfuscates(name)
        )
        if options.verify:
            verify_module(module)
        instrumenter: Optional[MemInstrumentPass] = None
        if config.approach != "noop":
            instrumenter = MemInstrumentPass(
                config, verify=options.verify,
                collect_verdicts=options.collect_verdicts)
        pipeline = build_pipeline(
            opt_level=options.opt_level,
            instrument=instrumenter.run if instrumenter is not None else None,
            extension_point=options.extension_point,
            verify_each=options.verify,
        )
        pipeline.run(module)
        if instrumenter is not None:
            program.instrumentation.merge(instrumenter.statistics)
            for fname, stats in instrumenter.per_function.items():
                program.per_function[f"{name}:{fname}"] = stats
            program.check_sites.update(instrumenter.check_sites)
            program.check_verdicts.update(instrumenter.check_verdicts)
        units.append(module)

    linked = Module.link(units, "linked") if len(units) > 1 else units[0]
    if options.link_time_optimization:
        lto = PassManager(
            [Inliner(), InstCombine(), GVN(), DCE(), SimplifyCFG()],
            verify_each=options.verify,
        )
        lto.run(linked)
    if options.verify:
        verify_module(linked)
    program.module = linked
    return program


def make_vm(
    program: CompiledProgram,
    max_instructions: Optional[int] = 500_000_000,
    lf_region_capacity: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
    profile: bool = False,
    dump_codegen: Optional[str] = None,
) -> VirtualMachine:
    """Create a VM with the runtime matching the program's config."""
    vm = VirtualMachine(
        program.module, max_instructions=max_instructions, engine=engine,
        profile=profile,
    )
    if dump_codegen is not None:
        vm.codegen_dump_dir = dump_codegen
    # The registry knows which runtime (if any) the approach's
    # instrumented code calls into.
    install_runtime(vm, program.config, lf_region_capacity=lf_region_capacity)
    return vm


def run_program(
    program: CompiledProgram,
    entry: str = "main",
    max_instructions: Optional[int] = 500_000_000,
    lf_region_capacity: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
    profile: bool = False,
    dump_codegen: Optional[str] = None,
) -> RunResult:
    """Run a compiled program, capturing safety reports and faults."""
    vm = make_vm(
        program, max_instructions, lf_region_capacity, engine=engine,
        profile=profile, dump_codegen=dump_codegen,
    )
    result = RunResult(None, vm.output, vm.stats)
    try:
        result.exit_code = vm.run(entry)
    except MemSafetyViolation as violation:
        result.violation = violation
    except MemoryFault as fault:
        result.fault = fault
    except ProgramAbort as abort:
        result.abort = abort
    return result


def compile_and_run(
    sources: Union[str, Dict[str, str], Sequence[str]],
    config: InstrumentationConfig = NOOP,
    options: Optional[CompileOptions] = None,
    **run_kwargs,
) -> RunResult:
    """Convenience: compile, instrument, link, and run in one call."""
    return run_program(compile_program(sources, config, options), **run_kwargs)
