"""The static work bound the codegen engine's tiering reads: trip
bounds of hand-written loop shapes, and the sum over a function."""

import math

import pytest

from repro.analysis.loops import LoopInfo
from repro.analysis.work import trip_bound, work_bound
from repro.ir.parser import parse_module


def _function(body: str, params: str = ""):
    module = parse_module(f"define i32 @f({params}) {{\n{body}\n}}\n")
    return module.get_function("f")


def _trips(fn):
    """Trip bound per loop header name."""
    info = LoopInfo(fn)
    return {loop.header.name: trip_bound(loop, info.domtree)
            for loop in info.all_loops()}


COUNT_UP = """
entry:
  br %head
head:
  %i = phi i32 [0, %entry], [%next, %body]
  %c = icmp slt i32 %i, 10
  br i1 %c, %body, %done
body:
  %next = add i32 %i, 1
  br %head
done:
  ret i32 0"""

#: The exit test sits in the latch and tests the decremented value.
ROTATED_COUNT_DOWN = """
entry:
  br %head
head:
  %i = phi i32 [10, %entry], [%next, %latch]
  %w = mul i32 %i, 3
  br %latch
latch:
  %next = add i32 %i, -1
  %c = icmp sgt i32 %next, 0
  br i1 %c, %head, %done
done:
  ret i32 0"""

#: ``continue`` with two increments: the smaller step bounds the loop.
TWO_LATCHES = """
entry:
  br %head
head:
  %i = phi i32 [0, %entry], [%a, %odd], [%b, %even]
  %c = icmp slt i32 %i, 20
  br i1 %c, %body, %done
body:
  %bit = and i32 %i, 1
  %z = icmp eq i32 %bit, 0
  br i1 %z, %even, %odd
odd:
  %a = add i32 %i, 1
  br %head
even:
  %b = add i32 %i, 2
  br %head
done:
  ret i32 0"""

#: A second exit only shortens the loop.
BREAK = """
entry:
  br %head
head:
  %i = phi i32 [0, %entry], [%next, %latch]
  %c = icmp slt i32 %i, 8
  br i1 %c, %body, %done
body:
  %stop = icmp eq i32 %i, %n
  br i1 %stop, %done, %latch
latch:
  %next = add i32 %i, 1
  br %head
done:
  ret i32 0"""

#: The outer exit compare is wrapped in the frontend's truthiness
#: pattern.
NESTED = """
entry:
  br %outer
outer:
  %i = phi i32 [0, %entry], [%inext, %olatch]
  %oc = icmp slt i32 %i, 4
  %ow = zext i1 %oc to i32
  %ot = icmp ne i32 %ow, 0
  br i1 %ot, %inner, %done
inner:
  %j = phi i32 [0, %outer], [%jnext, %ibody]
  %ic = icmp slt i32 %j, 3
  br i1 %ic, %ibody, %olatch
ibody:
  %jnext = add i32 %j, 1
  br %inner
olatch:
  %inext = add i32 %i, 1
  br %outer
done:
  ret i32 0"""

NON_CONSTANT_BOUND = """
entry:
  br %head
head:
  %i = phi i32 [0, %entry], [%next, %body]
  %c = icmp slt i32 %i, %n
  br i1 %c, %body, %done
body:
  %next = add i32 %i, 1
  br %head
done:
  ret i32 0"""

#: A cycle with two entries: neither block dominates the other.
IRREDUCIBLE = """
entry:
  %c = icmp slt i32 %n, 0
  br i1 %c, %a, %b
a:
  %x = add i32 %n, 1
  br %b
b:
  %d = icmp sgt i32 %n, 5
  br i1 %d, %a, %done
done:
  ret i32 0"""


class TestTripBounds:
    def test_count_up(self):
        # i = 0..9 pass the test, i = 10 fails it.
        assert _trips(_function(COUNT_UP)) == {"head": 11}

    def test_rotated_count_down(self):
        # The header runs for i = 10..1: next = 9..1 stays, 0 exits.
        assert _trips(_function(ROTATED_COUNT_DOWN)) == {"head": 10}

    def test_two_latches(self):
        assert _trips(_function(TWO_LATCHES)) == {"head": 21}

    def test_break(self):
        assert _trips(_function(BREAK, "i32 %n")) == {"head": 9}

    def test_nested(self):
        assert _trips(_function(NESTED)) == {"outer": 5, "inner": 4}

    def test_non_constant_bound_is_unbounded(self):
        assert _trips(_function(NON_CONSTANT_BOUND, "i32 %n")) == \
            {"head": None}

    @pytest.mark.parametrize("test, trips", [
        ("icmp sle i32 %i, 10", 12),
        ("icmp ult i32 %i, 10", 11),
        ("icmp ne i32 %i, 10", 11),
        ("icmp sgt i32 10, %i", 11),   # the variable on the right
        ("icmp eq i32 %i, 0", 2),
    ])
    def test_predicates(self, test, trips):
        body = COUNT_UP.replace("icmp slt i32 %i, 10", test)
        assert _trips(_function(body)) == {"head": trips}

    def test_step_over_the_limit_is_unbounded(self):
        # ``i != 9`` never fails for i = 0, 2, 4, ...
        body = COUNT_UP.replace("icmp slt i32 %i, 10", "icmp ne i32 %i, 9")
        body = body.replace("add i32 %i, 1", "add i32 %i, 2")
        assert _trips(_function(body)) == {"head": None}


class TestWorkBound:
    def test_sum_of_sizes_times_trips(self):
        # entry 1, head 3 and body 2 instructions 11 times each, done 1.
        fn = _function(COUNT_UP)
        assert fn.instruction_count() == 7
        assert work_bound(fn) == 1 + 11 * (3 + 2) + 1

    def test_nested_loops_multiply(self):
        fn = _function(NESTED)
        # outer's header (5) and latch (2) run 5 times, inner's header
        # (3) and body (2) 5 x 4 times.
        assert work_bound(fn) == 1 + 5 * (5 + 2) + 20 * (3 + 2) + 1

    def test_loop_free_is_its_size(self):
        fn = _function(IRREDUCIBLE.replace("br i1 %d, %a, %done",
                                           "br i1 %d, %done, %done"), "i32 %n")
        assert work_bound(fn) == fn.instruction_count()

    @pytest.mark.parametrize("body", [NON_CONSTANT_BOUND, IRREDUCIBLE])
    def test_unbounded(self, body):
        assert work_bound(_function(body, "i32 %n")) == math.inf

    def test_stops_past_the_cap(self):
        fn = _function(NESTED)
        full = work_bound(fn)
        capped = work_bound(fn, cap=10)
        assert 10 < capped < full
