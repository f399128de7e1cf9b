"""Deterministic cycle cost model.

The paper measures wall-clock time on an i9-10900K.  Our substitute is a
simple in-order cost model: every executed IR instruction is charged a
fixed cycle cost, and every runtime-library operation is charged the
cost of the instruction sequence it stands for.  Because the model is
deterministic, "runtime" comparisons between instrumentation
configurations are exactly reproducible.

The relative costs encode the facts the paper's analysis rests on:

* A SoftBound dereference check (Figure 2: two compares and an or) is
  *cheaper* than a Low-Fat check (Figure 5: region-index shift, size
  table load, subtract, compare) -- this is why SoftBound wins on
  check-dense code like 186crafty.
* A SoftBound trie lookup (two dependent loads through a two-level
  trie) is *more expensive* than recomputing a Low-Fat base pointer
  (mask arithmetic on the pointer value) -- this is why Low-Fat wins on
  pointer-chasing loops like 183equake.
* Shadow-stack traffic costs a store/load per pointer argument.
"""

from __future__ import annotations

from typing import Dict, Tuple

# -- core instruction costs (cycles) ----------------------------------
INSTRUCTION_COSTS: Dict[str, int] = {
    "load": 3,
    "store": 2,
    "alloca": 2,
    "gep": 1,
    "phi": 0,          # resolved by register allocation
    "select": 1,
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1,
    "shl": 1, "lshr": 1, "ashr": 1,
    "mul": 3,
    "sdiv": 12, "udiv": 12, "srem": 12, "urem": 12,
    "fadd": 3, "fsub": 3, "fmul": 4, "fdiv": 10, "frem": 12,
    "icmp": 1,
    "fcmp": 2,
    "trunc": 1, "zext": 1, "sext": 1,
    "fptrunc": 2, "fpext": 2, "fptosi": 4, "sitofp": 4, "fptoui": 4,
    "uitofp": 4,
    "ptrtoint": 0, "inttoptr": 0, "bitcast": 0,  # no machine code
    "br": 1,
    "condbr": 2,
    "ret": 2,
    "call": 5,          # call/prologue overhead for non-intrinsic calls
    "unreachable": 0,
}

# -- runtime library / intrinsic costs (cycles per call) ----------------
# Intrinsics stand for instruction sequences the real instrumentation
# inlines; they are charged their sequence cost with no call overhead.
INTRINSIC_COSTS: Dict[str, int] = {
    # memory-safety checks (Figures 1, 2 and 5)
    "__sb_check": 7,           # cmp, add, cmp, or, branch
    "__lf_check": 9,           # shift, table load, sub, sub, cmp, branch
    "__lf_invariant_check": 9,  # same sequence as __lf_check

    # SoftBound metadata (trie = two dependent loads + index arithmetic)
    "__sb_trie_load_base": 16,
    "__sb_trie_load_bound": 6,  # second field of the same trie leaf: hot
    "__sb_trie_store": 20,       # index arithmetic + two stores (+ alloc)
    # shadow stack (pointer-sized store/load into a dedicated region)
    "__sb_ss_enter": 3,
    "__sb_ss_exit": 3,
    "__sb_ss_set": 6,
    "__sb_ss_get_base": 4,
    "__sb_ss_get_bound": 4,
    "__sb_ss_set_ret": 4,
    "__sb_ss_get_ret_base": 2,
    "__sb_ss_get_ret_bound": 2,

    # Low-Fat pointer arithmetic (mask/shift on the pointer value)
    "__lf_compute_base": 3,

    # allocation
    "malloc": 80,
    "calloc": 90,
    "realloc": 100,
    "free": 40,
    "__lf_malloc": 95,          # size-class lookup + per-region freelist
    "__lf_free": 45,
    "__lf_alloca": 6,           # per-region stack bump
}

# Native C library functions: fixed base cost; some natives add a
# per-byte cost on top (handled by the native implementation itself).
NATIVE_COSTS: Dict[str, int] = {
    "memcpy": 20,
    "memmove": 24,
    "memset": 16,
    "strlen": 12,
    "strcpy": 16,
    "strcmp": 14,
    "print_i64": 40,
    "print_f64": 60,
    "print_str": 40,
    "abort": 0,
    "exit": 0,
    "llabs": 2,
    "sqrt": 18,
    "fabs": 2,
    "sin": 40,
    "cos": 40,
}

BYTE_COSTS: Dict[str, float] = {
    # additional cost per byte processed by bulk natives
    "memcpy": 0.125,
    "memmove": 0.125,
    "memset": 0.0625,
    "strlen": 0.25,
    "strcpy": 0.25,
    "strcmp": 0.25,
}


#: Extra cycles a SoftBound libc wrapper spends on bookkeeping
#: (shadow-stack return-slot update, bounds plumbing) on top of the
#: wrapped function itself.  Trie copying in memcpy/memmove wrappers is
#: charged per copied entry by the wrapper implementation.
SB_WRAPPER_OVERHEAD = 8


def call_cost(name: str) -> int:
    """Cost charged for a call to a runtime/native function, replacing
    the generic call overhead for intrinsics."""
    if name in INTRINSIC_COSTS:
        return INTRINSIC_COSTS[name]
    if name.startswith("__sb_wrap_"):
        wrapped = name[len("__sb_wrap_"):]
        base = INTRINSIC_COSTS.get(wrapped, NATIVE_COSTS.get(wrapped, 0))
        return base + INSTRUCTION_COSTS["call"] + SB_WRAPPER_OVERHEAD
    if name in NATIVE_COSTS:
        return NATIVE_COSTS[name] + INSTRUCTION_COSTS["call"]
    return INSTRUCTION_COSTS["call"]


#: One tuple per distinct state of the tables, so that the many cache
#: keys holding a signature share it.
_SIGNATURES: Dict[Tuple, Tuple] = {}


def signature() -> Tuple:
    """The current contents of every table an instruction's or a call's
    charge reads, for the keys of caches that hold charges (codegen's
    emission)."""
    current = (tuple(INSTRUCTION_COSTS.items()),
               tuple(INTRINSIC_COSTS.items()), tuple(NATIVE_COSTS.items()),
               SB_WRAPPER_OVERHEAD)
    return _SIGNATURES.setdefault(current, current)
