"""What each scalar operation computes: one table for every consumer.

Every integer and float binop, icmp and fcmp predicate and cast is
defined once, in :data:`TEMPLATES`, as a Python expression over its
operands ``{a}`` and ``{b}`` and the constants of its type: ``{mask}``
(every value bit set), ``{bits}`` and ``{half}`` (the sign bit).  For a
cast, ``{bits}`` and ``{half}`` describe the source type and ``{mask}``
the destination; a pointer is 64 bits wide.  A comparison is a flag,
``1`` or ``0``.  What needs statements is a plain function of
:data:`HELPERS`, which the template calls: the integer divisions and
float-to-integer conversions, which trap, ``frem``, the rounding to
``f32``, and the bitcasts that reinterpret a value's bits.

A division whose divisor is a nonzero constant in the IR cannot trap,
so it has a form of its own (key ``"<op> by constant"``, or ``"sdiv by
negative constant"``), with the divisor's magnitude ``{d}`` filled in:
an ``fdiv`` without its divisor test, and integer forms that call
nothing.

Three consumers read the table:

* the codegen engine inlines a template into the source it generates,
  with :data:`HELPERS` in its namespace, or calls the compiled
  evaluator;
* :func:`evaluator` compiles a template once per operation and type
  into a function of the operands, which the interpreter calls;
* constant folding -- InstCombine's, and codegen's at emission --
  computes a value with :func:`fold`, which gives ``None`` where the
  operation would raise, so that a trap stays at run time.

Floats follow IEEE 754 and C: ``x / ±0.0`` is an infinity signed by
both operands, or NaN for ``0 / 0``; ``frem`` is C's ``fmod``, NaN for
an infinite dividend or a zero divisor; ``fptosi``/``fptoui`` of NaN
or an infinity stops the program with a :class:`VMError` that names the
operation.  Every operation whose result is an ``f32`` (key ``"<op> to
f32"``, and ``fptrunc``) rounds it to single precision, as C does, so
a ``float`` held in a register has the value it would have in memory.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Callable, Dict, Optional, Tuple

from ..errors import MemoryFault, VMError
from .instructions import FLOAT_BINOPS, INT_BINOPS, BinOp, Cast, Instruction
from .types import FloatType, IntType
from .values import ConstantFloat, ConstantInt


def _sdiv(a: int, b: int, half: int, mask: int) -> int:
    a, b = (a ^ half) - half, (b ^ half) - half
    if not b:
        raise MemoryFault(0, 0, "integer division by zero")
    q = abs(a) // abs(b)
    return (-q if (a < 0) != (b < 0) else q) & mask


def _srem(a: int, b: int, half: int, mask: int) -> int:
    """The remainder takes the dividend's sign, as C's ``%`` does."""
    a, b = (a ^ half) - half, (b ^ half) - half
    if not b:
        raise MemoryFault(0, 0, "integer division by zero")
    r = abs(a) % abs(b)
    return (-r if a < 0 else r) & mask


def _udiv(a: int, b: int, mask: int) -> int:
    if not b:
        raise MemoryFault(0, 0, "integer division by zero")
    return (a // b) & mask


def _urem(a: int, b: int, mask: int) -> int:
    if not b:
        raise MemoryFault(0, 0, "integer division by zero")
    return (a % b) & mask


def _fdiv_by_zero(a: float, b: float) -> float:
    """``a / ±0.0``: NaN for a zero or NaN dividend, else an infinity
    whose sign is the product of the operands' signs."""
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _frem(a: float, b: float) -> float:
    """C's ``fmod``: ``math.fmod`` raises exactly where C gives NaN,
    for an infinite dividend or a zero divisor."""
    try:
        return math.fmod(a, b)
    except ValueError:
        return math.nan


_F32 = struct.Struct("<f")


def _f32(a) -> float:
    """``a``, a float or an integer, rounded once to the nearest
    ``f32`` (ties to even), or to an infinity past the ``f32`` range,
    as IEEE 754 rounds.  An integer too wide for a double to hold
    exactly is first cut to 26 significant bits, the last one sticky,
    so that its conversion to a double is exact and the one rounding is
    the ``f32`` one."""
    if type(a) is int:
        shift = abs(a).bit_length() - 26
        if shift > 0:
            m = abs(a)
            m = (m >> shift | (m & ((1 << shift) - 1) != 0)) << shift
            a = m if a > 0 else -m
        a = float(a)
    try:
        return _F32.unpack(_F32.pack(a))[0]
    except OverflowError:
        return math.copysign(math.inf, a)


def _fptoi(op: str, a: float, mask: int) -> int:
    try:
        return int(a) & mask
    except (OverflowError, ValueError):
        raise VMError(f"{op} of a non-finite value ({a})") from None


def _float_of_bits(a: int, bits: int) -> float:
    return struct.unpack("<f" if bits == 32 else "<d",
                         a.to_bytes(bits // 8, "little"))[0]


def _bits_of_float(a: float, bits: int) -> int:
    return int.from_bytes(struct.pack("<f" if bits == 32 else "<d", a),
                          "little")


#: The functions and values templates name, by the name they use.
HELPERS: Dict[str, object] = {
    "__sdiv": _sdiv, "__srem": _srem, "__udiv": _udiv, "__urem": _urem,
    "__fdiv_by_zero": _fdiv_by_zero, "__frem": _frem, "__fptoi": _fptoi,
    "__f32": _f32,
    "__float_of_bits": _float_of_bits, "__bits_of_float": _bits_of_float,
}

#: Every operation, by key: a binop's opcode, ``"icmp <pred>"``,
#: ``"fcmp <pred>"``, or a cast's opcode (a bitcast between an integer
#: and a float is ``"bitcast to float"`` / ``"bitcast to int"``), with
#: `` to f32`` for a float binop or an integer-to-float cast whose
#: result is an ``f32``, and `` by constant`` for a division by a
#: nonzero constant.
TEMPLATES: Dict[str, str] = {
    "add": "(({a} + {b}) & {mask})",
    "sub": "(({a} - {b}) & {mask})",
    "mul": "(({a} * {b}) & {mask})",
    "and": "({a} & {b})",
    "or": "({a} | {b})",
    "xor": "({a} ^ {b})",
    "shl": "(({a} << ({b} % {bits})) & {mask})",
    "lshr": "({a} >> ({b} % {bits}))",
    "ashr": "(((({a} ^ {half}) - {half}) >> ({b} % {bits})) & {mask})",
    "sdiv": "__sdiv({a}, {b}, {half}, {mask})",
    "srem": "__srem({a}, {b}, {half}, {mask})",
    "udiv": "__udiv({a}, {b}, {mask})",
    "urem": "__urem({a}, {b}, {mask})",

    "fadd": "({a} + {b})",
    "fsub": "({a} - {b})",
    "fmul": "({a} * {b})",
    "fdiv": "(({a} / {b}) if {b} != 0.0 else __fdiv_by_zero({a}, {b}))",
    "frem": "__frem({a}, {b})",

    "icmp eq": "(1 if {a} == {b} else 0)",
    "icmp ne": "(1 if {a} != {b} else 0)",
    "icmp ult": "(1 if {a} < {b} else 0)",
    "icmp ule": "(1 if {a} <= {b} else 0)",
    "icmp ugt": "(1 if {a} > {b} else 0)",
    "icmp uge": "(1 if {a} >= {b} else 0)",
    # signed(x) < signed(y) iff (x ^ half) <u (y ^ half).
    "icmp slt": "(1 if ({a} ^ {half}) < ({b} ^ {half}) else 0)",
    "icmp sle": "(1 if ({a} ^ {half}) <= ({b} ^ {half}) else 0)",
    "icmp sgt": "(1 if ({a} ^ {half}) > ({b} ^ {half}) else 0)",
    "icmp sge": "(1 if ({a} ^ {half}) >= ({b} ^ {half}) else 0)",

    # Ordered predicates are false when either operand is NaN, as every
    # Python comparison but ``!=`` is; unordered ones are true.  ``x !=
    # x`` is the NaN test.
    "fcmp oeq": "(1 if {a} == {b} else 0)",
    "fcmp ogt": "(1 if {a} > {b} else 0)",
    "fcmp oge": "(1 if {a} >= {b} else 0)",
    "fcmp olt": "(1 if {a} < {b} else 0)",
    "fcmp ole": "(1 if {a} <= {b} else 0)",
    "fcmp one": "(1 if ({a} < {b} or {a} > {b}) else 0)",
    "fcmp ord": "(1 if ({a} == {a} and {b} == {b}) else 0)",
    "fcmp ueq": "(0 if ({a} < {b} or {a} > {b}) else 1)",
    "fcmp ugt": "(0 if {a} <= {b} else 1)",
    "fcmp uge": "(0 if {a} < {b} else 1)",
    "fcmp ult": "(0 if {a} >= {b} else 1)",
    "fcmp ule": "(0 if {a} > {b} else 1)",
    "fcmp une": "(1 if {a} != {b} else 0)",
    "fcmp uno": "(1 if ({a} != {a} or {b} != {b}) else 0)",

    "trunc": "({a} & {mask})",
    "zext": "{a}",
    "sext": "((({a} ^ {half}) - {half}) & {mask})",
    "ptrtoint": "({a} & {mask})",
    "inttoptr": "({a} & {mask})",
    "bitcast": "{a}",
    "bitcast to float": "__float_of_bits({a}, {bits})",
    "bitcast to int": "__bits_of_float({a}, {bits})",
    "fptrunc": "__f32({a})",
    "fpext": "float({a})",
    "sitofp": "float(({a} ^ {half}) - {half})",
    "uitofp": "float({a})",
    "sitofp to f32": "__f32(({a} ^ {half}) - {half})",
    "uitofp to f32": "__f32({a})",
    "fptosi": "__fptoi('fptosi', {a}, {mask})",
    "fptoui": "__fptoi('fptoui', {a}, {mask})",

    # By a nonzero constant, whose magnitude is {d}: C's truncation, and
    # for srem the dividend's sign, on the dividend's magnitude
    # ``-{a} & {mask}`` when it is negative; INT_MIN / -1 wraps.
    "udiv by constant": "({a} // {d})",
    "urem by constant": "({a} % {d})",
    "sdiv by constant": ("(({a} // {d}) if {a} < {half} else "
                         "(-((-{a} & {mask}) // {d}) & {mask}))"),
    "sdiv by negative constant": ("((-({a} // {d}) & {mask}) if {a} < {half}"
                                  " else ((-{a} & {mask}) // {d}))"),
    "srem by constant": ("(({a} % {d}) if {a} < {half} else "
                         "(-((-{a} & {mask}) % {d}) & {mask}))"),
    "fdiv by constant": "({a} / {d})",
}
TEMPLATES.update({f"{op} to f32": f"__f32({TEMPLATES[op]})"
                  for op in ("fadd", "fsub", "fmul", "fdiv", "frem",
                             "fdiv by constant")})

#: The operations that can raise on some operands.
TRAPPING = frozenset(("sdiv", "udiv", "srem", "urem", "fptosi", "fptoui"))

_U64_MASK = (1 << 64) - 1
_BITCASTS = {(IntType, FloatType): "bitcast to float",
             (FloatType, IntType): "bitcast to int"}
_DIVISIONS = frozenset(("sdiv", "udiv", "srem", "urem", "fdiv"))
#: The globals of compiled evaluators (``eval`` adds ``__builtins__``).
_GLOBALS = dict(HELPERS)


def operation(inst: Instruction) -> Tuple[str, str]:
    """The table key of a BinOp, ICmp, FCmp or Cast, and its template
    with the constants of its types (and of a constant divisor) filled
    in: an expression over ``{a}`` and ``{b}`` alone."""
    cls = type(inst)
    divisor = None
    if cls is Cast:
        src, dst, key = inst.value.type, inst.type, inst.opcode
        if key == "bitcast":
            key = _BITCASTS.get((type(src), type(dst)), key)
        elif key in ("sitofp", "uitofp") and dst.bits == 32:
            key += " to f32"
    elif cls is BinOp:
        src = dst = inst.type
        key = inst.opcode
        if key not in (FLOAT_BINOPS if type(src) is FloatType
                       else INT_BINOPS):
            raise VMError(f"binop {key} on {src}")
        divisor = _nonzero(inst.rhs) if key in _DIVISIONS else None
        if divisor is not None:
            # The signed forms divide by the divisor's magnitude.
            negative = key in ("sdiv", "srem") and divisor >> (src.bits - 1)
            if negative:
                divisor = -divisor & src.mask
            key += (" by negative constant" if negative and key == "sdiv"
                    else " by constant")
        if type(src) is FloatType and src.bits == 32:
            key += " to f32"
    else:
        src = dst = inst.lhs.type
        key = f"{inst.opcode} {inst.predicate}"
    return key, _filled(key, getattr(src, "bits", 64),
                        dst.mask if type(dst) is IntType else _U64_MASK,
                        divisor)


def _nonzero(value) -> Optional[object]:
    """A divisor's value when it is a nonzero, finite constant."""
    if isinstance(value, (ConstantInt, ConstantFloat)) and value.value \
            and math.isfinite(value.value):
        return value.value
    return None


@functools.lru_cache(maxsize=None)
def _filled(key: str, bits: int, mask: int, d: Optional[object] = None) -> str:
    return TEMPLATES[key].format(a="{a}", b="{b}", bits=bits,
                                 half=1 << (bits - 1), mask=mask,
                                 d=f"({d!r})" if d is not None and d < 0
                                 else repr(d))


@functools.lru_cache(maxsize=None)
def compiled(template: str, arity: int) -> Callable:
    """A filled template (:func:`operation`) compiled into a function
    of its ``arity`` operands."""
    params = "a, b" if arity == 2 else "a"
    return eval(f"lambda {params}: {template.format(a='a', b='b')}",
                _GLOBALS)


def evaluator(inst: Instruction) -> Callable:
    """The compiled evaluator of a BinOp, ICmp, FCmp or Cast."""
    return compiled(operation(inst)[1], 1 if type(inst) is Cast else 2)


def fold(inst: Instruction, *operands) -> Optional[object]:
    """``inst``'s value over constant operands, or ``None`` when
    evaluating it raises (a division by zero, a non-finite
    ``fptosi``, a float too large to reinterpret as ``f32`` bits, or an
    operation with no semantics)."""
    try:
        return evaluator(inst)(*operands)
    except (ArithmeticError, ValueError, VMError):
        return None


#: Every fcmp predicate's evaluator, by predicate.
FCMP_EVAL: Dict[str, Callable] = {
    key.split()[1]: compiled(_filled(key, 64, _U64_MASK), 2)
    for key in TEMPLATES if key.startswith("fcmp ")
}
