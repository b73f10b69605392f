"""Tests for the register-level oblivious primitives."""

from hypothesis import given, strategies as st

from repro.oblivious.primitives import (
    o_access,
    o_equal,
    o_max,
    o_min,
    o_mov,
    o_swap,
    o_write,
)
from repro.sgx.memory import Trace, TracedArray


class TestOMov:
    def test_true_selects_first(self):
        assert o_mov(True, 1.0, 2.0) == 1.0

    def test_false_selects_second(self):
        assert o_mov(False, 1.0, 2.0) == 2.0

    def test_tuple_selection(self):
        assert o_mov(True, (1, 0.5), (2, 0.25)) == (1, 0.5)
        assert o_mov(False, (1, 0.5), (2, 0.25)) == (2, 0.25)

    def test_integer_flags(self):
        assert o_mov(1, 10, 20) == 10
        assert o_mov(0, 10, 20) == 20
        assert o_mov(5 > 3, 10, 20) == 10

    @given(st.booleans(),
           st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_python_conditional(self, flag, x, y):
        assert o_mov(flag, x, y) == (x if flag else y)

    @given(st.booleans(), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_integers_exact(self, flag, x, y):
        assert o_mov(flag, x, y) == (x if flag else y)


class TestOSwap:
    @given(st.booleans(),
           st.floats(allow_nan=False, allow_infinity=False, width=32),
           st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_matches_python_swap(self, flag, x, y):
        a, b = o_swap(flag, x, y)
        assert (a, b) == ((y, x) if flag else (x, y))

    def test_tuple_swap(self):
        a, b = o_swap(True, (1, 0.5), (2, 0.25))
        assert a == (2, 0.25) and b == (1, 0.5)

    def test_no_swap_preserves(self):
        a, b = o_swap(False, (1, 0.5), (2, 0.25))
        assert a == (1, 0.5) and b == (2, 0.25)


class TestComparisons:
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_min_max(self, x, y):
        assert o_min(x, y) == min(x, y)
        assert o_max(x, y) == max(x, y)

    def test_equal(self):
        assert o_equal(3, 3) == 1
        assert o_equal(3, 4) == 0


class TestObliviousArrayAccess:
    def test_o_access_reads_correct_value(self):
        arr = TracedArray("r", [10.0, 20.0, 30.0])
        assert o_access(arr, 1) == 20.0

    def test_o_access_trace_independent_of_offset(self):
        traces = []
        for secret in (0, 1, 3):
            trace = Trace()
            arr = TracedArray("r", [1.0, 2.0, 3.0, 4.0], trace=trace)
            o_access(arr, secret)
            traces.append(trace.signature_digest())
        assert traces[0] == traces[1] == traces[2]

    def test_o_write_writes_correct_slot(self):
        arr = TracedArray("r", [0.0] * 4)
        o_write(arr, 2, 9.0)
        assert arr.snapshot() == [0.0, 0.0, 9.0, 0.0]

    def test_o_write_trace_independent_of_offset(self):
        traces = []
        for secret in (0, 2, 3):
            trace = Trace()
            arr = TracedArray("r", [0.0] * 4, trace=trace)
            o_write(arr, secret, 1.0)
            traces.append(trace.signature_digest())
        assert traces[0] == traces[1] == traces[2]

    def test_o_write_touches_every_slot(self):
        trace = Trace()
        arr = TracedArray("r", [0.0] * 5, trace=trace)
        o_write(arr, 0, 1.0)
        assert set(trace.offsets_array("r", op="write").tolist()) == set(range(5))
