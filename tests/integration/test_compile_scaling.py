"""The compile pipeline's whole-function CFG queries stay linear.

``BasicBlock.predecessors`` rescans the whole function on every call.
The dataflow engine, GVN, SimplifyCFG and the verifier ask for the
predecessors of every block (or of every edge), so they build one
``predecessor_map`` per run instead.  These tests count property
evaluations through a patched property, the way perfbench's tracer
counts ``ir.predecessors_calls``.
"""

from collections import Counter

from repro.analysis.dataflow import ForwardDataflow
from repro.driver import CompileOptions, compile_program
from repro.experiments.common import config_for
from repro.ir import verifier
from repro.ir.module import BasicBlock
from repro.opt.gvn import GVN
from repro.opt.simplifycfg import SimplifyCFG
from repro.workloads import get


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
