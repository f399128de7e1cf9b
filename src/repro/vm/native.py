"""Native (VM-implemented) functions: the C standard library subset.

MiniC programs call into a small libc.  These functions are implemented
in Python inside the VM, mirroring the paper's setting where the C
standard library is *uninstrumented external code*: no checks run
inside them unless an instrumentation installs wrappers (SoftBound,
Section 4.3) and allocation routed through them uses whatever allocator
the active runtime provides.

The native-call contract, which every implementation registered with
``VirtualMachine.register_native`` keeps: a native is called as
``impl(vm, args)`` after the VM charged the call, it may *add* to
``RuntimeStats`` counters but never reads them, and it never re-enters
the VM (no calls back into program code).  Both engines rely on it to
charge native calls in whatever order suits them.

A :class:`TemplateNative` narrows it further, so that the codegen tier
runs it inline instead of calling it: its only effect on the counters
is one increment of the counter it names, and its effect on its
runtime's state is what its template says.  The tree-walker still calls
it through the list protocol, and so does generated code when the
native is wrapped in a plain callable.  A :class:`CheckNative` is the
template native whose templates are tests.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..errors import MemoryFault
from ..ir.types import FunctionType, IntType, PointerType, F64, I32, I64, I8, VOID
from . import costs

if TYPE_CHECKING:  # pragma: no cover
    from .interpreter import VirtualMachine

I8P = PointerType(I8)


class TemplateNative:
    """A native that generated code runs inline, from a template.

    ``entry(vm, args)`` is its list-protocol entry, the tree-walker's
    path: it performs the operation on its runtime and adds one to the
    ``RuntimeStats`` field ``counter`` names (``"trie_loads"``,
    ``"trie_stores"``, ``"shadow_stack_ops"``), or to none when
    ``counter`` is None.

    The codegen tier instead runs one of two templates, written over the
    argument expressions ``{0}``, ``{1}``, ... (``arity`` of them) and
    the ``helpers`` by name (``{trie}``): ``expr``, an expression giving
    the call's value, or ``stmt``, a one-line statement for a native
    with no value.  A template may neither raise nor call Python-level
    code; it may name an argument more than once, because generated
    code evaluates a non-atomic argument once, in argument order, into
    a temporary.  Executions are counted from block counts, so running
    one makes no call.  A ``pure`` expression reads no state, so
    generated code may compute it wherever its value is consumed.
    """

    __slots__ = ("entry", "arity", "expr", "stmt", "counter", "pure",
                 "helpers")

    def __init__(self, entry: Callable, arity: int,
                 expr: Optional[str] = None, stmt: Optional[str] = None,
                 counter: Optional[str] = None, pure: bool = False,
                 helpers: Optional[Dict[str, object]] = None):
        self.entry = entry
        self.arity = arity
        self.expr = expr
        self.stmt = stmt
        self.counter = counter
        self.pure = pure
        self.helpers = helpers or {}

    def __call__(self, vm: "VirtualMachine", args: List):
        return self.entry(vm, args)


class CheckNative(TemplateNative):
    """A memory-safety check: the template native whose templates are
    tests, compared inline by generated code.

    ``entry(*args, site)``, with ``arity`` arguments before the site,
    is the whole check, the tree-walker's path:
    it records the check in ``RuntimeStats`` (``record_check`` for a
    ``"deref"`` check, ``record_invariant`` for an ``"invariant"``
    one), then calls ``fail(*args, site)`` when the comparison fails.
    ``fail`` only raises, so each violation is written once.

    The codegen tier instead evaluates two test templates: ``fails`` is
    true exactly when ``entry`` would call ``fail``, and ``wide``
    (dereference checks only) exactly when it records the check as
    wide.  They follow the template rules of :class:`TemplateNative`;
    a passing check makes no call.  ``reason(*args, site)``, when set,
    records a wide check's dynamic reason and is called on the wide
    path of profiled runs only.
    """

    __slots__ = ("kind", "fails", "wide", "fail", "reason")

    def __init__(self, entry: Callable, arity: int, kind: str, fails: str,
                 fail: Callable, wide: Optional[str] = None,
                 helpers: Optional[Dict[str, object]] = None,
                 reason: Optional[Callable] = None):
        super().__init__(entry, arity, helpers=helpers)
        if kind not in ("deref", "invariant"):
            raise ValueError(f"check kind {kind!r}")
        self.kind = kind
        self.fails = fails
        self.wide = wide
        self.fail = fail
        self.reason = reason

    def __call__(self, vm: "VirtualMachine", args: List):
        return self.entry(*args)


def _charged_bytes(vm: "VirtualMachine", name: str, nbytes: int) -> None:
    per_byte = costs.BYTE_COSTS.get(name, 0.0)
    if per_byte:
        vm.stats.cycles += int(nbytes * per_byte)


# -- allocation -------------------------------------------------------


def native_malloc(vm: "VirtualMachine", args: List[int]) -> int:
    size = args[0]
    alloc = vm.heap.malloc(size)
    vm.stats.heap_allocs += 1
    return alloc.base


def native_calloc(vm: "VirtualMachine", args: List[int]) -> int:
    count, size = args
    alloc = vm.heap.malloc(count * size)
    vm.stats.heap_allocs += 1
    return alloc.base  # every buffer is zero-initialized already


def native_realloc(vm: "VirtualMachine", args: List[int]) -> int:
    old_ptr, new_size = args
    new_alloc = vm.heap.malloc(new_size)
    vm.stats.heap_allocs += 1
    if old_ptr != 0:
        old_alloc = vm.memory.find(old_ptr)
        if old_alloc is None:
            raise MemoryFault(old_ptr, 0, "realloc of invalid pointer")
        n = min(old_alloc.size, new_size)
        new_alloc.data[0:n] = old_alloc.data[0:n]
        old_alloc.freed = True
        vm.stats.heap_frees += 1
    return new_alloc.base


def native_free(vm: "VirtualMachine", args: List[int]) -> None:
    vm.heap.free(args[0])
    vm.stats.heap_frees += 1


# -- memory/string ------------------------------------------------------


def native_memcpy(vm: "VirtualMachine", args: List[int]) -> int:
    dest, src, n = args
    if n:
        data = vm.memory.read_bytes(src, n)
        vm.memory.write_bytes(dest, data)
    _charged_bytes(vm, "memcpy", n)
    return dest


def native_memmove(vm: "VirtualMachine", args: List[int]) -> int:
    dest, src, n = args
    if n:
        data = vm.memory.read_bytes(src, n)  # copy, so overlap is fine
        vm.memory.write_bytes(dest, data)
    _charged_bytes(vm, "memmove", n)
    return dest


def native_memset(vm: "VirtualMachine", args: List[int]) -> int:
    dest, byte, n = args
    if n:
        vm.memory.write_bytes(dest, bytes([byte & 0xFF]) * n)
    _charged_bytes(vm, "memset", n)
    return dest


def _read_cstring(vm: "VirtualMachine", addr: int) -> bytes:
    out = bytearray()
    while True:
        b = vm.memory.read_bytes(addr + len(out), 1)[0]
        if b == 0:
            return bytes(out)
        out.append(b)
        if len(out) > 1 << 20:
            raise MemoryFault(addr, len(out), "unterminated string")


def native_strlen(vm: "VirtualMachine", args: List[int]) -> int:
    s = _read_cstring(vm, args[0])
    _charged_bytes(vm, "strlen", len(s))
    return len(s)


def native_strcpy(vm: "VirtualMachine", args: List[int]) -> int:
    dest, src = args
    s = _read_cstring(vm, src)
    vm.memory.write_bytes(dest, s + b"\x00")
    _charged_bytes(vm, "strcpy", len(s))
    return dest


def native_strcmp(vm: "VirtualMachine", args: List[int]) -> int:
    a = _read_cstring(vm, args[0])
    b = _read_cstring(vm, args[1])
    _charged_bytes(vm, "strcmp", min(len(a), len(b)))
    if a == b:
        return 0
    return 1 if a > b else (1 << 32) - 1  # -1 as u32


# -- I/O ---------------------------------------------------------------


def native_print_i64(vm: "VirtualMachine", args: List[int]) -> None:
    value = args[0]
    if value >= 1 << 63:
        value -= 1 << 64
    vm.output.append(str(value))


def native_print_f64(vm: "VirtualMachine", args: List[float]) -> None:
    vm.output.append(f"{args[0]:.6f}")


def native_print_str(vm: "VirtualMachine", args: List[int]) -> None:
    vm.output.append(_read_cstring(vm, args[0]).decode("latin-1"))


def native_abort(vm: "VirtualMachine", args: List[int]) -> None:
    from ..errors import ProgramAbort

    raise ProgramAbort(134)


def native_exit(vm: "VirtualMachine", args: List[int]) -> None:
    vm.request_exit(args[0])


# -- math ------------------------------------------------------------------


def native_sqrt(vm: "VirtualMachine", args: List[float]) -> float:
    return math.sqrt(args[0]) if args[0] >= 0 else float("nan")


def native_fabs(vm: "VirtualMachine", args: List[float]) -> float:
    return abs(args[0])


def native_sin(vm: "VirtualMachine", args: List[float]) -> float:
    return math.sin(args[0])


def native_cos(vm: "VirtualMachine", args: List[float]) -> float:
    return math.cos(args[0])


def native_llabs(vm: "VirtualMachine", args: List[int]) -> int:
    value = args[0]
    if value >= 1 << 63:
        value = (1 << 64) - value
    return value


# -- registration table ---------------------------------------------------

LIBC_SIGNATURES = {
    "malloc": FunctionType(I8P, [I64]),
    "calloc": FunctionType(I8P, [I64, I64]),
    "realloc": FunctionType(I8P, [I8P, I64]),
    "free": FunctionType(VOID, [I8P]),
    "memcpy": FunctionType(I8P, [I8P, I8P, I64]),
    "memmove": FunctionType(I8P, [I8P, I8P, I64]),
    "memset": FunctionType(I8P, [I8P, I32, I64]),
    "strlen": FunctionType(I64, [I8P]),
    "strcpy": FunctionType(I8P, [I8P, I8P]),
    "strcmp": FunctionType(I32, [I8P, I8P]),
    "print_i64": FunctionType(VOID, [I64]),
    "print_f64": FunctionType(VOID, [F64]),
    "print_str": FunctionType(VOID, [I8P]),
    "abort": FunctionType(VOID, []),
    "exit": FunctionType(VOID, [I32]),
    "sqrt": FunctionType(F64, [F64]),
    "fabs": FunctionType(F64, [F64]),
    "sin": FunctionType(F64, [F64]),
    "cos": FunctionType(F64, [F64]),
    "llabs": FunctionType(I64, [I64]),
}

# Optimizer-relevant attributes of the libc subset.
LIBC_ATTRIBUTES = {
    "strlen": {"readonly"},
    "strcmp": {"readonly"},
    "sqrt": {"readnone"},
    "fabs": {"readnone"},
    "sin": {"readnone"},
    "cos": {"readnone"},
    "llabs": {"readnone"},
    "abort": {"noreturn"},
    "exit": {"noreturn"},
}

LIBC_IMPLS: dict = {
    "malloc": native_malloc,
    "calloc": native_calloc,
    "realloc": native_realloc,
    "free": native_free,
    "memcpy": native_memcpy,
    "memmove": native_memmove,
    "memset": native_memset,
    "strlen": native_strlen,
    "strcpy": native_strcpy,
    "strcmp": native_strcmp,
    "print_i64": native_print_i64,
    "print_f64": native_print_f64,
    "print_str": native_print_str,
    "abort": native_abort,
    "exit": native_exit,
    "sqrt": native_sqrt,
    "fabs": native_fabs,
    "sin": native_sin,
    "cos": native_cos,
    "llabs": native_llabs,
}


def install_libc(vm: "VirtualMachine") -> None:
    """Register the libc subset on a VM."""
    for name, impl in LIBC_IMPLS.items():
        vm.register_native(name, impl)
