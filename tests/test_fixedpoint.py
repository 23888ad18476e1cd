import math

from hypothesis import given
from hypothesis import strategies as st

from faircert import fixedpoint as fx

raw = st.integers(min_value=fx.INT32_MIN, max_value=fx.INT32_MAX)


def test_constants():
    assert fx.ONE == 65536
    assert fx.FRACTION_BITS == 16
    assert fx.INT32_MAX == 2**31 - 1
    assert fx.INT32_MIN == -(2**31)


def test_from_float_examples():
    assert fx.from_float(0.0) == 0
    assert fx.from_float(1.0) == fx.ONE
    assert fx.from_float(-1.0) == -fx.ONE
    assert fx.from_float(0.5) == 32768
    assert fx.from_float(3.25) == 3 * fx.ONE + 16384


def test_from_float_saturates():
    assert fx.from_float(1e12) == fx.INT32_MAX
    assert fx.from_float(-1e12) == fx.INT32_MIN
    assert fx.from_float(math.inf) == fx.INT32_MAX
    assert fx.from_float(-math.inf) == fx.INT32_MIN


def test_mul_examples():
    assert fx.mul(fx.ONE, fx.ONE) == fx.ONE
    assert fx.mul(fx.from_float(0.5), fx.from_float(0.5)) == fx.from_float(0.25)
    assert fx.mul(fx.from_float(-2.0), fx.from_float(3.0)) == fx.from_float(-6.0)
    # product shifts toward negative infinity: floor semantics
    assert fx.mul(1, 1) == 0
    assert fx.mul(-1, 1) == -1


def test_mul_saturates():
    big = fx.from_float(40000.0)
    assert fx.mul(big, big) == fx.INT32_MAX
    assert fx.mul(big, -big) == fx.INT32_MIN


def test_add_saturates():
    assert fx.add(fx.INT32_MAX, 1) == fx.INT32_MAX
    assert fx.add(fx.INT32_MIN, -1) == fx.INT32_MIN
    assert fx.add(1, 2) == 3


def test_dot_is_left_fold_from_bias():
    weights = (fx.ONE, fx.from_float(0.5))
    features = (fx.from_float(2.0), fx.from_float(-4.0))
    expected = fx.add(
        fx.add(fx.from_float(1.0), fx.mul(weights[0], features[0])),
        fx.mul(weights[1], features[1]),
    )
    assert fx.dot(weights, features, fx.from_float(1.0)) == expected
    assert expected / fx.ONE == 1.0


@given(raw, raw)
def test_mul_matches_integer_shift(a, b):
    assert fx.mul(a, b) == fx.saturate((a * b) >> fx.FRACTION_BITS)


@given(raw)
def test_round_trip_within_half_ulp(a):
    assert abs(fx.from_float(a / fx.ONE) - a) <= 1


@given(st.lists(st.tuples(raw, raw), max_size=8), raw)
def test_dot_stays_in_range(pairs, bias):
    weights = tuple(p[0] for p in pairs)
    features = tuple(p[1] for p in pairs)
    out = fx.dot(weights, features, bias)
    assert fx.INT32_MIN <= out <= fx.INT32_MAX
