"""Scalar semantics: every entry of ``repro.ir.semantics.TEMPLATES``.

Each integer and float binop, icmp predicate and cast is checked three
ways, as fcmp is in ``test_fcmp.py``:

(a) the table against a reference written here with the standard
    library only;
(b) both engines, with constant operands (which codegen folds at
    emission) and with operands that go through memory (evaluated at
    run time);
(c) InstCombine's folded constant against the engines' run-time result.

A trapping case raises the same error in the table and on both engines,
and InstCombine leaves it unfolded.  A division by a nonzero constant
takes its own form, which cannot trap; an ``f32`` result is rounded to
single precision.
"""

import math
import operator
import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.driver import NOOP, CompileOptions, compile_and_run
from repro.errors import MemoryFault, VMError
from repro.ir import (
    F32,
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    FunctionType,
    IRBuilder,
    Module,
    ptr,
)
from repro.ir.instructions import (CAST_OPS, FCMP_PREDICATES, FLOAT_BINOPS,
                                   ICMP_PREDICATES, INT_BINOPS)
from repro.ir.semantics import TEMPLATES, evaluator, operation
from repro.ir.types import FloatType, IntType, PointerType
from repro.opt import InstCombine
from repro.vm import VirtualMachine
from repro.vm.codegen import CodegenFunction
from repro.vm.engines import ENGINES

NAN = float("nan")
INF = float("inf")
FLOATS = [NAN, INF, -INF, -0.0, 0.0, 1.5, -2.5]
INT_TYPES = {1: I1, 8: I8, 16: I16, 32: I32, 64: I64}
DIVISIONS = ("sdiv", "udiv", "srem", "urem")
POINTERS = [0, 1, 0x1000, 1 << 63, (1 << 64) - 1]


# -- the reference -------------------------------------------------------

#: The programs here are small enough to run on the tree-walker under
#: the codegen engine's tiering: emit every function at its first call.
pytestmark = pytest.mark.usefixtures("emit_all")


def signed(x: int, bits: int) -> int:
    """``x``'s two's-complement reading at ``bits``."""
    return x - (1 << bits) if x >> (bits - 1) else x


def toward_zero(a: int, b: int) -> int:
    """C's integer quotient: floor division, corrected toward zero."""
    q = a // b
    return q + 1 if q < 0 and q * b != a else q


def int_reference(op, a, b, bits):
    """LLVM LangRef semantics wrapping at ``bits``; shift amounts are
    taken modulo the width, as this VM defines them, and a zero divisor
    traps with a MemoryFault."""
    if op in DIVISIONS and b == 0:
        return MemoryFault
    sa, sb, k = signed(a, bits), signed(b, bits), b % bits
    value = {
        "add": lambda: a + b, "sub": lambda: a - b, "mul": lambda: a * b,
        "and": lambda: a & b, "or": lambda: a | b, "xor": lambda: a ^ b,
        "shl": lambda: a * 2 ** k, "lshr": lambda: a // 2 ** k,
        "ashr": lambda: sa // 2 ** k,
        "udiv": lambda: a // b, "urem": lambda: a % b,
        "sdiv": lambda: toward_zero(sa, sb),
        "srem": lambda: sa - toward_zero(sa, sb) * sb,
    }[op]()
    return value % (1 << bits)


RELATIONS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
             "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def icmp_reference(pred, a, b, bits):
    if pred in RELATIONS:
        return int(RELATIONS[pred](a, b))
    if pred[0] == "s":
        a, b = signed(a, bits), signed(b, bits)
    return int(RELATIONS[pred[1:]](a, b))


def negative(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def f32(x) -> float:
    """``x`` rounded once to the nearest ``f32``, ties to even: a float
    through a ``struct`` round trip (an infinity past the range), an
    integer in integer arithmetic."""
    if isinstance(x, int):
        m = abs(x)
        shift = max(m.bit_length() - 24, 0)
        q, r = divmod(m, 1 << shift)
        half = (1 << shift) >> 1
        if shift and (r > half or r == half and q & 1):
            q += 1
        return math.copysign(float(q << shift), x)
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.copysign(INF, x)


def float_reference(op, a, b):
    """IEEE 754 arithmetic; ``frem`` is C's ``fmod``."""
    if op == "fdiv" and b == 0:
        if math.isnan(a) or a == 0:
            return NAN
        return -INF if negative(a) != negative(b) else INF
    if op == "frem":
        if math.isnan(a) or math.isnan(b) or math.isinf(a) or b == 0:
            return NAN
        return a if math.isinf(b) else math.fmod(a, b)
    return {"fadd": operator.add, "fsub": operator.sub,
            "fmul": operator.mul, "fdiv": operator.truediv}[op](a, b)


def _bits(ty) -> int:
    return ty.bits if isinstance(ty, (IntType, FloatType)) else 64


#: ``struct`` codes of a float width and of the integer of its bits.
_FORMATS = {32: ("<f", "<I"), 64: ("<d", "<Q")}


def cast_reference(op, a, src, dst):
    """A value becoming an ``f32`` rounds to single precision, and a
    non-finite ``fptosi``/``fptoui`` stops with a VMError."""
    wrap = 1 << _bits(dst)
    if op in ("trunc", "zext", "ptrtoint", "inttoptr"):
        return a % wrap
    if op == "sext":
        return signed(a, src.bits) % wrap
    if op == "bitcast" and isinstance(dst, FloatType):
        real, whole = _FORMATS[dst.bits]
        return struct.unpack(real, struct.pack(whole, a))[0]
    if op == "bitcast" and isinstance(src, FloatType):
        real, whole = _FORMATS[src.bits]
        return struct.unpack(whole, struct.pack(real, a))[0]
    if op in ("bitcast", "fpext"):
        return a
    if op == "fptrunc":
        return f32(a)
    if op in ("sitofp", "uitofp"):
        value = signed(a, src.bits) if op == "sitofp" else a
        return f32(value) if dst.bits == 32 else float(value)
    if math.isnan(a) or math.isinf(a):
        return VMError
    return math.trunc(a) % wrap


def same(got, want) -> bool:
    """Equal, with NaN equal to NaN and the sign of a zero counted."""
    if isinstance(want, float):
        return isinstance(got, float) and (
            got != got and want != want
            or got == want and negative(got) == negative(want))
    return type(got) is type(want) and got == want


# -- one operation under test ---------------------------------------------

def edges(bits: int):
    half = 1 << (bits - 1)
    return sorted({0, 1, half - 1, half, (1 << bits) - 1})


def values(ty):
    if isinstance(ty, IntType):
        return edges(ty.bits)
    if isinstance(ty, PointerType):
        return POINTERS
    return FLOATS + ([1e300, 3e9] if ty.bits == 64 else [])


def _constant(ty, value):
    if isinstance(ty, IntType):
        return ConstantInt(ty, value)
    if isinstance(ty, FloatType):
        return ConstantFloat(ty, value)
    return ConstantNull(ty) if value == 0 else None


class Case:
    """One operation over given operand types, as a module: ``@rt``
    takes the operands as arguments and passes them through memory,
    and ``@c<k>`` applies the operation to the constant operands
    ``operands[k]``."""

    def __init__(self, apply, types, result, operands, reference):
        self.apply, self.types, self.result = apply, types, result
        self.operands = operands
        self.expected = [reference(*ops) for ops in operands]
        self.module = self.build()

    def build(self) -> Module:
        mod = Module("scalar")
        fn = mod.add_function("rt", FunctionType(self.result, self.types))
        b = IRBuilder(fn.add_block("entry"))
        loaded = []
        for arg in fn.args:
            slot = b.alloca(arg.type)
            b.store(arg, slot)
            loaded.append(b.load(slot))
        self.inst = self.apply(b, *loaded)
        b.ret(self.inst)
        for k, ops in enumerate(self.operands):
            consts = [_constant(ty, v) for ty, v in zip(self.types, ops)]
            if any(c is None for c in consts):
                continue
            fn = mod.add_function(f"c{k}", FunctionType(self.result, []))
            b = IRBuilder(fn.add_block("entry"))
            b.ret(self.apply(b, *consts))
        return mod

    def run(self, engine, name, args=()):
        vm = VirtualMachine(self.module, engine=engine,
                            install_default_libc=False)
        vm.load_globals()
        try:
            return vm.call_function(self.module.get_function(name),
                                    list(args))
        except VMError as exc:
            return type(exc)

    def check_table(self):
        table = evaluator(self.inst)
        for ops, want in zip(self.operands, self.expected):
            try:
                got = table(*ops)
            except VMError as exc:
                got = type(exc)
            assert same(got, want), (self.inst, ops, got, want)

    def check_engines(self):
        for engine in ENGINES:
            for k, (ops, want) in enumerate(zip(self.operands,
                                                self.expected)):
                got = self.run(engine, "rt", ops)
                assert same(got, want), (engine, self.inst, ops, got, want)
                if self.module.get_function(f"c{k}") is not None:
                    got = self.run(engine, f"c{k}")
                    assert same(got, want), \
                        (engine, "constant", self.inst, ops, got, want)

    def check_instcombine(self, folds: bool):
        """After InstCombine, a ``@c<k>`` that returns a constant
        returns the engines' run-time result.  A trapping case never
        folds; when ``folds``, every other case does."""
        InstCombine().run(self.module)
        for k, (ops, want) in enumerate(zip(self.operands, self.expected)):
            fn = self.module.get_function(f"c{k}")
            if fn is None:
                continue
            value = fn.entry.instructions[-1].value
            folded = isinstance(value, Constant)
            if isinstance(want, type) or folds:
                assert folded != isinstance(want, type), (self.inst, ops)
            if folded:
                got = 0 if isinstance(value, ConstantNull) else value.value
                assert same(got, want), (self.inst, ops, got, want)
                for engine in ENGINES:
                    runtime = self.run(engine, "rt", ops)
                    assert same(got, runtime), \
                        (engine, self.inst, ops, got, runtime)


def binop_case(op, ty, pairs):
    if isinstance(ty, FloatType) and ty.bits == 32:
        reference = lambda a, b: f32(float_reference(op, a, b))  # noqa: E731
    elif isinstance(ty, FloatType):
        reference = lambda a, b: float_reference(op, a, b)  # noqa: E731
    else:
        reference = lambda a, b: int_reference(op, a, b, ty.bits)  # noqa: E731
    return Case(lambda b, x, y: b.binop(op, x, y), [ty, ty], ty, pairs,
                reference)


class DivisorCase(Case):
    """``op`` by the constant ``divisor``: ``@rt`` reads the dividend
    from memory, ``@c<k>`` divides the constant ``dividends[k]``."""

    def __init__(self, op, ty, divisor, dividends):
        self.divisor = divisor
        const = _constant(ty, divisor)
        if isinstance(ty, FloatType):
            round_ = f32 if ty.bits == 32 else float
            reference = lambda a: round_(  # noqa: E731
                float_reference(op, a, divisor))
        else:
            reference = lambda a: int_reference(  # noqa: E731
                op, a, divisor, ty.bits)
        super().__init__(lambda b, x: b.binop(op, x, const), [ty], ty,
                         [(a,) for a in dividends], reference)

    def check_table(self):
        table = evaluator(self.inst)
        for (a,), want in zip(self.operands, self.expected):
            got = table(a, self.divisor)
            assert same(got, want), (self.inst, a, got, want)


def icmp_case(pred, ty, pairs):
    return Case(lambda b, x, y: b.icmp(pred, x, y), [ty, ty], I1, pairs,
                lambda a, c: icmp_reference(pred, a, c, ty.bits))


def cast_case(op, src, dst):
    return Case(lambda b, x: b.cast(op, x, dst), [src], dst,
                [(v,) for v in values(src)],
                lambda a: cast_reference(op, a, src, dst))


def edge_pairs(bits):
    return [(a, b) for a in edges(bits) for b in edges(bits)]


#: (opcode, source, destination) for every cast, at edge widths.
CASTS = [
    ("trunc", I64, I32), ("trunc", I64, I1), ("trunc", I16, I8),
    ("zext", I1, I64), ("zext", I8, I32), ("zext", I32, I64),
    ("sext", I1, I64), ("sext", I8, I32), ("sext", I16, I64),
    ("sext", I32, I64),
    ("ptrtoint", ptr(I8), I64), ("ptrtoint", ptr(I8), I32),
    ("inttoptr", I64, ptr(I8)),
    ("bitcast", ptr(I8), ptr(I64)),
    ("bitcast", I64, F64), ("bitcast", I32, F32),
    ("bitcast", F64, I64), ("bitcast", F32, I32),
    ("fptrunc", F64, F32), ("fpext", F32, F64),
    ("sitofp", I8, F64), ("sitofp", I32, F64), ("sitofp", I64, F64),
    ("uitofp", I32, F64), ("uitofp", I64, F64),
    ("sitofp", I32, F32), ("sitofp", I64, F32),
    ("uitofp", I32, F32), ("uitofp", I64, F32),
    ("fptosi", F64, I64), ("fptosi", F64, I32), ("fptosi", F32, I8),
    ("fptoui", F64, I64), ("fptoui", F64, I16),
]
#: The casts InstCombine folds over a constant operand.
FOLDED_CASTS = {"trunc", "zext", "sext", "sitofp", "uitofp", "fpext",
                "fptrunc", "fptosi"}

INT_CASES = [(op, bits) for op in sorted(INT_BINOPS) for bits in INT_TYPES]
ICMP_CASES = [(p, bits) for p in sorted(ICMP_PREDICATES) for bits in INT_TYPES]
FLOAT_PAIRS = [(a, b) for a in FLOATS for b in FLOATS]


_U64 = st.integers(0, (1 << 64) - 1)


def _ids(cases):
    return ["-".join(str(part) for part in case) for case in cases]


class TestTable:
    def test_every_operation_has_one_template(self):
        ops = (INT_BINOPS | FLOAT_BINOPS | CAST_OPS
               | {f"icmp {p}" for p in ICMP_PREDICATES}
               | {f"fcmp {p}" for p in FCMP_PREDICATES}
               | {"bitcast to float", "bitcast to int"})
        ops |= {f"{op} to f32" for op in FLOAT_BINOPS | {"sitofp", "uitofp"}}
        ops |= {f"{op} by constant" for op in DIVISIONS + ("fdiv",)}
        ops |= {"sdiv by negative constant", "fdiv by constant to f32"}
        assert set(TEMPLATES) == ops
        assert {op for op, _, _ in CASTS} == CAST_OPS

    @pytest.mark.parametrize("op,bits", INT_CASES, ids=_ids(INT_CASES))
    def test_int_binop(self, op, bits):
        binop_case(op, INT_TYPES[bits], edge_pairs(bits)).check_table()

    @pytest.mark.parametrize("pred,bits", ICMP_CASES, ids=_ids(ICMP_CASES))
    def test_icmp(self, pred, bits):
        icmp_case(pred, INT_TYPES[bits], edge_pairs(bits)).check_table()

    @pytest.mark.parametrize("op", sorted(FLOAT_BINOPS))
    def test_float_binop(self, op):
        binop_case(op, F64, FLOAT_PAIRS).check_table()

    @pytest.mark.parametrize("op", sorted(FLOAT_BINOPS))
    def test_f32_binop(self, op):
        binop_case(op, F32, FLOAT_PAIRS).check_table()

    @pytest.mark.parametrize("op,src,dst", CASTS, ids=_ids(CASTS))
    def test_cast(self, op, src, dst):
        cast_case(op, src, dst).check_table()


class TestBothEngines:
    @pytest.mark.parametrize("op,bits", INT_CASES, ids=_ids(INT_CASES))
    def test_int_binop(self, op, bits):
        binop_case(op, INT_TYPES[bits], edge_pairs(bits)).check_engines()

    @pytest.mark.parametrize("pred,bits", ICMP_CASES, ids=_ids(ICMP_CASES))
    def test_icmp(self, pred, bits):
        icmp_case(pred, INT_TYPES[bits], edge_pairs(bits)).check_engines()

    @pytest.mark.parametrize("op", sorted(FLOAT_BINOPS))
    def test_float_binop(self, op):
        binop_case(op, F64, FLOAT_PAIRS).check_engines()

    @pytest.mark.parametrize("op", sorted(FLOAT_BINOPS))
    def test_f32_binop(self, op):
        binop_case(op, F32, FLOAT_PAIRS).check_engines()

    @pytest.mark.parametrize("op,src,dst", CASTS, ids=_ids(CASTS))
    def test_cast(self, op, src, dst):
        cast_case(op, src, dst).check_engines()


class TestInstCombineFolds:
    @pytest.mark.parametrize("op,bits", INT_CASES, ids=_ids(INT_CASES))
    def test_int_binop(self, op, bits):
        binop_case(op, INT_TYPES[bits],
                   edge_pairs(bits)).check_instcombine(True)

    @pytest.mark.parametrize("pred,bits", ICMP_CASES, ids=_ids(ICMP_CASES))
    def test_icmp(self, pred, bits):
        icmp_case(pred, INT_TYPES[bits],
                  edge_pairs(bits)).check_instcombine(True)

    @pytest.mark.parametrize("op", sorted(FLOAT_BINOPS))
    def test_float_binop(self, op):
        binop_case(op, F64, FLOAT_PAIRS).check_instcombine(True)

    @pytest.mark.parametrize("op", sorted(FLOAT_BINOPS))
    def test_f32_binop(self, op):
        binop_case(op, F32, FLOAT_PAIRS).check_instcombine(True)

    @pytest.mark.parametrize("op,src,dst", CASTS, ids=_ids(CASTS))
    def test_cast(self, op, src, dst):
        cast_case(op, src, dst).check_instcombine(op in FOLDED_CASTS)


    # Hypothesis-drawn i64 operands, every division included.
    @settings(deadline=None)
    @given(st.sampled_from(sorted(INT_BINOPS)), _U64, _U64)
    def test_drawn_i64_binop(self, op, a, b):
        binop_case(op, I64, [(a, b)]).check_instcombine(True)

    @settings(deadline=None)
    @given(st.sampled_from(sorted(ICMP_PREDICATES)), _U64, _U64)
    def test_drawn_i64_icmp(self, pred, a, b):
        icmp_case(pred, I64, [(a, b)]).check_instcombine(True)


def _divisors(bits):
    """Positive, INT_MAX, INT_MIN, -1 and -3 at ``bits``."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    return sorted({1, 3, 7, half - 1, half, mask, mask - 2})


def _dividends(bits):
    mask = (1 << bits) - 1
    return sorted(set(edges(bits)) | {7, 20, mask - 6, mask - 19})


DIVISOR_CASES = [(op, bits) for op in DIVISIONS for bits in (8, 32, 64)]
FLOAT_DIVISORS = {32: (13.0, -0.5, 3.0), 64: (13.0, -0.5, 3.0, 1e-300)}
#: What a division by a nonzero constant must never emit.
_DIVISION_CALLS = re.compile(
    r"__[su](?:div|rem)\(|__fdiv_by_zero|!= 0\.0|\b__k\d+\(")


class TestConstantDivisors:
    """A division by a nonzero constant takes its by-constant form: the
    table, both engines and InstCombine agree with the reference, and
    the generated code tests no divisor and calls nothing."""

    @staticmethod
    def _check(case, key):
        assert operation(case.inst)[0] == key, case.inst
        case.check_table()
        case.check_engines()
        vm = VirtualMachine(case.module, engine="codegen",
                            install_default_libc=False)
        vm.load_globals()
        compiled = CodegenFunction(vm, case.module.get_function("rt"))
        assert not _DIVISION_CALLS.search(compiled.source), compiled.source
        for no, line in enumerate(compiled.source.splitlines(), 1):
            if re.search(r"//|%| / ", line):
                assert no not in compiled.steps, line
        case.check_instcombine(True)

    @pytest.mark.parametrize("op,bits", DIVISOR_CASES,
                             ids=_ids(DIVISOR_CASES))
    def test_int_division(self, op, bits):
        half = 1 << (bits - 1)
        for d in _divisors(bits):
            key = f"{op} by constant"
            if op == "sdiv" and d >= half:
                key = "sdiv by negative constant"
            self._check(DivisorCase(op, INT_TYPES[bits], d,
                                     _dividends(bits)), key)

    @pytest.mark.parametrize("bits", [32, 64])
    def test_fdiv(self, bits):
        ty = F32 if bits == 32 else F64
        for d in FLOAT_DIVISORS[bits]:
            self._check(DivisorCase("fdiv", ty, d, FLOATS),
                        "fdiv by constant" + (" to f32" if bits == 32
                                              else ""))

    def test_zero_and_non_finite_divisors_keep_the_general_form(self):
        for op, ty, d in (("sdiv", I32, 0), ("urem", I64, 0),
                          ("fdiv", F64, 0.0), ("fdiv", F64, INF),
                          ("fdiv", F64, NAN)):
            case = DivisorCase(op, ty, d, [1])
            assert operation(case.inst)[0] == op


class TestWideIntegerToF32:
    """An integer wider than a double's 53 bits rounds to ``f32`` once,
    as C converts it: rounding it to a double first would land exactly
    between two ``f32`` values and round to even, the wrong way."""

    CASES = [
        ("sitofp", (1 << 60) + (1 << 36) + 1, 2.0 ** 60 + 2.0 ** 37),
        ("sitofp", (-((1 << 60) + (1 << 36) + 1)) % (1 << 64),
         -(2.0 ** 60 + 2.0 ** 37)),
        ("uitofp", (1 << 63) + (1 << 39) + 1, 2.0 ** 63 + 2.0 ** 40),
        ("uitofp", (1 << 64) - 1, 2.0 ** 64),
    ]

    @pytest.mark.parametrize("op,value,want", CASES)
    def test_rounds_once(self, op, value, want):
        case = Case(lambda b, x: b.cast(op, x, F32), [I64], F32, [(value,)],
                    lambda a: cast_reference(op, a, I64, F32))
        assert case.expected == [want]
        case.check_table()
        case.check_engines()
        case.check_instcombine(True)


@st.composite
def _operands(draw):
    bits = draw(st.sampled_from(sorted(INT_TYPES)))
    value = st.integers(0, (1 << bits) - 1)
    return bits, draw(value), draw(value)


class TestDrawnOperands:
    """The table and both engines over hypothesis-drawn widths and
    operands."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(INT_BINOPS)), _operands())
    def test_int_binop(self, op, operands):
        bits, a, b = operands
        case = binop_case(op, INT_TYPES[bits], [(a, b)])
        case.check_table()
        case.check_engines()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(ICMP_PREDICATES)), _operands())
    def test_icmp(self, pred, operands):
        bits, a, b = operands
        case = icmp_case(pred, INT_TYPES[bits], [(a, b)])
        case.check_table()
        case.check_engines()


# -- MiniC programs ---------------------------------------------------------

def run_minic(src, engine, opt_level):
    return compile_and_run(src, NOOP, CompileOptions(opt_level=opt_level),
                           engine=engine)


LEVELS = [0, 3]


class TestFloatEdgesInMiniC:
    """The float edge cases end to end: at -O0 the operands read back
    from memory are run-time values, at -O3 InstCombine may fold them;
    both engines print the same either way."""

    ZERO = "double zero() { double c[1]; c[0] = 0.0; return c[0]; }\n"

    @pytest.mark.parametrize("opt_level", LEVELS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_dead_branch_frem_is_not_evaluated(self, engine, opt_level):
        result = run_minic(r"""
        int main() {
          double x = 1.5;
          int k = 0;
          if (k) { x = (1e308 * 10.0) % 2.0; }
          print_f64(x);
          return 0;
        }""", engine, opt_level)
        assert result.output == ["1.500000"]

    @pytest.mark.parametrize("opt_level", LEVELS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_division_by_a_signed_zero(self, engine, opt_level):
        # a negative zero from a multiplication; see also the negation
        # test below
        result = run_minic(self.ZERO + r"""
        int main() {
          double z = zero();
          print_f64(-1.0 / z);
          print_f64(0.0 / z);
          print_f64(1.0 / (-1.0 * z));
          print_f64(1.0 / (1.0 / z));
          return 0;
        }""", engine, opt_level)
        assert result.output == ["-inf", "nan", "-inf", "0.000000"]

    @pytest.mark.parametrize("opt_level", LEVELS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_negation_keeps_the_sign_of_zero(self, engine, opt_level):
        # ``-x`` is ``-0.0 - x``, which is -0.0 for x == +0.0 as in C;
        # GVN keeps it apart from ``0.0 - x``, which is +0.0.
        result = run_minic(self.ZERO + r"""
        int main() {
          double z = zero();
          print_f64(1.0 / -z);
          print_f64(1.0 / -0.0);
          print_f64(1.0 / (0.0 - z));
          print_f64(1.0 / -z);
          print_f64(1.0 / -(-z));
          return 0;
        }""", engine, opt_level)
        assert result.output == ["-inf", "-inf", "inf", "-inf", "inf"]

    @pytest.mark.parametrize("opt_level", LEVELS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_frem_of_an_infinite_dividend(self, engine, opt_level):
        result = run_minic(self.ZERO + r"""
        int main() {
          double big = 1e308 + zero();
          print_f64((big * 10.0) % 2.0);
          print_f64(7.5 % zero());
          return 0;
        }""", engine, opt_level)
        assert result.output == ["nan", "nan"]

    @pytest.mark.parametrize("opt_level", LEVELS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_finite_fptosi_stops_with_one_error(self, engine, opt_level):
        with pytest.raises(VMError, match=r"^fptosi of a non-finite value "
                                          r"\(inf\)$"):
            run_minic(self.ZERO + r"""
            int main() {
              long n = (long)((1e308 + zero()) * 10.0);
              print_i64(n);
              return 0;
            }""", engine, opt_level)

    F32_ROUNDING = ("int main() { float a = 0.1; float b = a * 3.0; "
                    "float c = b / 7.0; print_f64(c * 1000000.0); "
                    "return 0; }")

    @pytest.mark.parametrize("lto", [False, True], ids=["no-lto", "lto"])
    @pytest.mark.parametrize("opt_level", LEVELS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_float_rounds_where_c_rounds(self, engine, opt_level, lto):
        # C's answer; a float held in a register used to keep double
        # precision wherever LTO's GVN forwarded a stored value.
        result = compile_and_run(
            self.F32_ROUNDING, NOOP,
            CompileOptions(opt_level=opt_level, link_time_optimization=lto),
            engine=engine)
        assert result.output == ["42857.144028"]

    @pytest.mark.parametrize("opt_level", LEVELS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_float_past_its_range_is_infinite(self, engine, opt_level):
        result = run_minic(r"""
        int main() {
          double d = 1e300;
          float f = d * 10.0;
          print_f64(f);
          float g = -d;
          print_f64(g);
          return 0;
        }""", engine, opt_level)
        assert result.output == ["inf", "-inf"]
