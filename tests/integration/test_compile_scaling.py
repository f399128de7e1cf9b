"""The compile pipeline's whole-function CFG queries stay linear.

``BasicBlock.predecessors`` rescans the whole function on every call.
The dataflow engine, GVN, SimplifyCFG and the verifier ask for the
predecessors of every block (or of every edge), so they build one
``predecessor_map`` per run instead, and loops read the one their
``LoopInfo`` keeps.  MemInstrument builds one loop model per function
for its verdicts and filters.  These tests count property
evaluations through a patched property, the way perfbench's tracer
counts ``ir.predecessors_calls``, constructions and calls through
patched entry points, or the Python lines a function executes,
through a line tracer -- counts, never wall time.
"""

import sys
from collections import Counter

from repro.analysis import induction
from repro.analysis.dataflow import ForwardDataflow
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import LoopInfo
from repro.analysis.ranges import FunctionRangeAnalysis
from repro.core import instrument
from repro.core.instrument import MemInstrumentPass
from repro.core.itarget import TargetKind
from repro.driver import CompileOptions, compile_program
from repro.experiments.common import config_for
from repro.frontend import compile_source
from repro.ir import verifier
from repro.ir.module import BasicBlock, Function
from repro.opt.gvn import GVN
from repro.opt.simplifycfg import SimplifyCFG
from repro.workloads import all_workloads, get


def _count_property(monkeypatch, name, active=lambda: True):
    """Replace ``BasicBlock.<name>`` by a property that counts its
    evaluations while ``active()`` holds."""
    fget = getattr(BasicBlock, name).fget
    calls = [0]

    def counted(block):
        if active():
            calls[0] += 1
        return fget(block)

    monkeypatch.setattr(BasicBlock, name, property(counted))
    return calls


def test_whole_function_consumers_build_one_map(monkeypatch):
    depth = [0]
    entered = Counter()

    def scoped(label, function):
        def wrapper(*args, **kwargs):
            entered[label] += 1
            depth[0] += 1
            try:
                return function(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    consumers = {"dataflow": (ForwardDataflow, "run"),
                 "gvn": (GVN, "run_on_function"),
                 "simplifycfg": (SimplifyCFG, "run_on_function"),
                 "verifier": (verifier, "_verify_function")}
    for label, (owner, attr) in consumers.items():
        monkeypatch.setattr(owner, attr, scoped(label, getattr(owner, attr)))
    inside = _count_property(monkeypatch, "predecessors",
                             active=lambda: depth[0] > 0)

    workload = get("456hmmer")
    for label in ("softbound-hoist", "lowfat-hoist"):
        compile_program(workload.sources, config_for(label),
                        CompileOptions(verify=True))
    assert set(entered) == set(consumers)
    assert inside[0] == 0


def test_compiling_the_workloads_never_rescans_predecessors(monkeypatch):
    # Loops read the predecessor map their LoopInfo built (LICM keeps
    # it current when it inserts a preheader), so no pass of the
    # pipeline asks a block for its predecessors.
    calls = _count_property(monkeypatch, "predecessors")
    for workload in all_workloads():
        for label in ("softbound-hoist", "lowfat-hoist"):
            compile_program(workload.sources, config_for(label))
    assert calls[0] == 0


def test_meminstrument_recognizes_each_loop_once(monkeypatch):
    # The verdicts, the dominance filter and the hoist filter share one
    # loop model: per instrumented function at most one dominator tree
    # and one LoopInfo, and no loop is recognized twice.
    current = []        # (builds, recognitions) while a function runs
    per_function = []
    instrument_function = MemInstrumentPass._instrument_function

    def scoped(pass_, *args, **kwargs):
        current.append((Counter(), Counter()))
        try:
            return instrument_function(pass_, *args, **kwargs)
        finally:
            per_function.append(current.pop())

    def counted(label, init):
        def wrapper(self, *args, **kwargs):
            if current:
                current[-1][0][label] += 1
            init(self, *args, **kwargs)
        return wrapper

    analyze = induction.analyze_counted_loop

    def recognize(loop, *args):
        if current:
            current[-1][1][loop] += 1
        return analyze(loop, *args)

    monkeypatch.setattr(MemInstrumentPass, "_instrument_function", scoped)
    monkeypatch.setattr(DominatorTree, "__init__",
                        counted("DominatorTree", DominatorTree.__init__))
    monkeypatch.setattr(LoopInfo, "__init__",
                        counted("LoopInfo", LoopInfo.__init__))
    monkeypatch.setattr(induction, "analyze_counted_loop", recognize)
    for workload in all_workloads():
        for label in ("softbound-ranges", "lowfat-ranges",
                      "softbound-hoist", "lowfat-hoist"):
            compile_program(workload.sources, config_for(label))
    builds = [b for b, _ in per_function]
    assert max(b["DominatorTree"] for b in builds) == 1
    assert max(b["LoopInfo"] for b in builds) == 1
    assert max(max(r.values(), default=0) for _, r in per_function) == 1


def test_meminstrument_analyses_only_what_it_checks(monkeypatch):
    # The range analysis and the loop model decide only about
    # dereference checks: a function without one gets no range
    # analysis, and each (block, pointer) is decomposed against its
    # loop's IV at most once, though the verdicts and the hoist filter
    # both ask about it.
    scope = []          # [function, has a dereference check] per level
    unchecked = []      # functions analysed without a dereference check
    decompositions = Counter()
    asking = []         # the (block, pointer) ``access`` is deciding
    instrument_function = MemInstrumentPass._instrument_function
    gather = instrument.gather_function_targets
    init = FunctionRangeAnalysis.__init__
    access = induction.CountedLoops.access
    affine = induction.affine_pointer

    def scoped(pass_, mechanism, fn, *args, **kwargs):
        scope.append([fn, False])
        try:
            return instrument_function(pass_, mechanism, fn, *args, **kwargs)
        finally:
            scope.pop()

    def gathered(fn):
        targets = gather(fn)
        if scope:
            scope[-1][1] = any(t.kind == TargetKind.CHECK_DEREF
                               for t in targets)
        return targets

    def analysis(self, fn, *args, **kwargs):
        if scope and fn is scope[-1][0] and not scope[-1][1]:
            unchecked.append(fn.name)
        init(self, fn, *args, **kwargs)

    def asked(self, block, pointer):
        asking.append((block, pointer))
        try:
            return access(self, block, pointer)
        finally:
            asking.pop()

    def decompose(pointer, iv, *args, **kwargs):
        if iv is not None and asking:
            decompositions[asking[-1]] += 1
        return affine(pointer, iv, *args, **kwargs)

    monkeypatch.setattr(MemInstrumentPass, "_instrument_function", scoped)
    monkeypatch.setattr(instrument, "gather_function_targets", gathered)
    monkeypatch.setattr(FunctionRangeAnalysis, "__init__", analysis)
    monkeypatch.setattr(induction.CountedLoops, "access", asked)
    monkeypatch.setattr(induction, "affine_pointer", decompose)
    for workload in all_workloads():
        for label in ("softbound-ranges", "lowfat-ranges",
                      "softbound-hoist", "lowfat-hoist"):
            compile_program(workload.sources, config_for(label))
    assert unchecked == []
    assert decompositions
    assert max(decompositions.values()) == 1


def _if_chain(n: int) -> str:
    body = "\n".join(
        f"  if (x > {i}) {{ s = s + a[{i % 16}]; }} else {{ s = s - {i}; }}"
        for i in range(n))
    return ("int f(int x) {\n  int a[16];\n  int s = 0;\n"
            "  for (int i = 0; i < 16; i++) { a[i] = i; }\n"
            f"{body}\n  return s;\n}}\n"
            "int main() { print_i64(f(7)); return 0; }\n")


def test_successor_queries_grow_linearly_with_function_size(monkeypatch):
    calls = _count_property(monkeypatch, "successors")
    config = config_for("lowfat-hoist")
    evaluations = {}
    for n in (100, 400):
        calls[0] = 0
        compile_program({"ifs.c": _if_chain(n)}, config)
        evaluations[n] = calls[0]
    # Linear work gives 4x; a per-block rescan of the function gives 16x.
    assert evaluations[400] <= 5 * evaluations[100], evaluations


def _lines_executed(function, run) -> int:
    """Python lines executed in ``function``'s frames and in the frames
    it calls directly (such as a comprehension's) while ``run()``
    runs."""
    code = function.__code__
    lines = [0]

    def count(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return count

    def on_call(frame, event, arg):
        caller = frame.f_back
        if frame.f_code is code or (caller is not None
                                    and caller.f_code is code):
            return count
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines[0]


def test_add_block_work_grows_linearly_with_function_size():
    # Every ``if`` adds ``if.then``/``if.else``/``if.end`` blocks under
    # names already taken: a rescan of the function's block names, or
    # a probe of every suffix from ``.1``, per new block is quadratic.
    lines = {n: _lines_executed(Function.add_block,
                                lambda: compile_source(_if_chain(n)))
             for n in (250, 1000)}
    # Linear work gives 4x; a per-call rescan gives 16x.
    assert lines[1000] <= 5 * lines[250], lines
