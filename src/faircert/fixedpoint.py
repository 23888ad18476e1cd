"""Q16.16 signed fixed-point arithmetic with saturation.

Values are plain ints holding the raw two's-complement representation:
value = raw / 2**16, clamped to the signed 32-bit range. Everything the
reference models and the augmentor compute goes through these helpers so
that results are bit-identical across platforms.
"""

from __future__ import annotations

import math

FRACTION_BITS = 16
ONE = 1 << FRACTION_BITS
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def saturate(raw: int) -> int:
    if raw > INT32_MAX:
        return INT32_MAX
    if raw < INT32_MIN:
        return INT32_MIN
    return raw


def from_float(x: float) -> int:
    """Round a float to the nearest representable Q16.16 value."""
    if math.isnan(x):
        raise ValueError("cannot represent NaN")
    if math.isinf(x):
        return INT32_MAX if x > 0 else INT32_MIN
    return saturate(int(round(x * ONE)))


def add(a: int, b: int) -> int:
    return saturate(a + b)


def mul(a: int, b: int) -> int:
    # Arithmetic shift truncates toward negative infinity; that choice is
    # part of the model's canonical behaviour, not a detail.
    return saturate((a * b) >> FRACTION_BITS)


def dot(weights: tuple[int, ...], features: tuple[int, ...], bias: int) -> int:
    """Saturating accumulation bias + sum(w*x), left to right."""
    acc = saturate(bias)
    for w, x in zip(weights, features):
        acc = add(acc, mul(w, x))
    return acc
