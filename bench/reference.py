"""Reference computations the benchmark checks the program against.

Everything here is written from the formats and rules documented in
faircert's docstrings, with hashlib, struct and `cryptography` only. None of
it imports faircert, so a fault in the program cannot also hide in its
check. The checks run after the timed window, never inside it.
"""

from __future__ import annotations

import hashlib
import math
import struct
from fractions import Fraction

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

ONE = 1 << 16  # Q16.16
U64 = 1 << 64
METRIC_IDS = {"ore": 0, "eo": 1, "dp": 2}

# Chance that the re-tallied gap of a correct run misses its analytic value
# by more than hoeffding_distance(); 1e-9 keeps a false alarm out of reach
# in any number of runs the benchmark will ever make.
HOEFFDING_FAILURE = 1e-9


def sha3(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def merkle_root(data: bytes) -> bytes:
    """64-byte chunks, the last zero-padded, then a chunk holding the byte
    length; leaves SHA3(0x00 || chunk), nodes SHA3(0x01 || left || right),
    an odd node promoted unchanged (the scheme of faircert.crypto)."""
    chunks = [data[i : i + 64].ljust(64, b"\x00") for i in range(0, len(data), 64)]
    chunks.append(struct.pack("<Q", len(data)).ljust(64, b"\x00"))
    level = [sha3(b"\x00" + c) for c in chunks]
    while len(level) > 1:
        paired = [sha3(b"\x01" + level[i] + level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def flip_seed(config_seed: bytes) -> bytes:
    """The planted model's flip key: SHA3(seed || b"/flip"), first 8 bytes."""
    return sha3(config_seed + b"/flip")[:8]


def micro(value: Fraction) -> int:
    scaled = value * 10**6
    if scaled.denominator != 1:
        raise ValueError(f"{value} is not a whole number of micro-units")
    return int(scaled)


def planted_model_bytes(
    dimension: int, num_labels: int, rates: tuple[Fraction, ...], seed: bytes
) -> bytes:
    """Canonical bytes of a planted model: a biased wrapper (architecture 2)
    around a one-hot linear decoder (architecture 0), then per-group flip
    rates in micro-units and the 8-byte flip seed."""

    def header(arch: int) -> bytes:
        return b"FAIRM1" + struct.pack("<BII", arch, dimension, num_labels)

    weights = [ONE if j == y else 0 for y in range(num_labels) for j in range(dimension)]
    params = weights + [0] * num_labels
    return (
        header(2)
        + header(0)
        + struct.pack(f"<{len(params)}i", *params)
        + b"".join(struct.pack("<I", micro(r)) for r in rates)
        + seed
    )


def planted_label(
    features: tuple[int, ...], num_labels: int, rate: Fraction, seed: bytes
) -> int:
    """The planted rule: argmax of the one-hot block (lowest label on ties),
    moved to the next label when SHA3(b"flip:" || seed || feature bytes),
    read as a little-endian u64, falls below rate * 2**64."""
    label = 0
    for y in range(1, num_labels):
        if features[y] > features[label]:
            label = y
    digest = sha3(b"flip:" + seed + struct.pack(f"<{len(features)}i", *features))
    draw = int.from_bytes(digest[:8], "little")
    if draw * rate.denominator < rate.numerator * U64:
        return (label + 1) % num_labels
    return label


def tally(
    cells: list[tuple[int, int, int]], num_groups: int, num_labels: int
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(group, true label, predicted label) triples -> per-cell counts of
    samples, errors and predictions."""
    m = [[0] * num_labels for _ in range(num_groups)]
    err = [[0] * num_labels for _ in range(num_groups)]
    pred = [[0] * num_labels for _ in range(num_groups)]
    for g, y, p in cells:
        m[g][y] += 1
        pred[g][p] += 1
        if p != y:
            err[g][y] += 1
    return m, err, pred


def rate_classes(metric: str, m, err, pred) -> list[list[tuple[int, int]]]:
    """(numerator, denominator) cells compared with each other, per class:
    group error rates (ORE), per-label group error rates (EO), per-label
    group prediction rates (DP)."""
    groups, labels = len(m), len(m[0])
    if metric == "ore":
        return [[(sum(err[g]), sum(m[g])) for g in range(groups)]]
    if metric == "eo":
        return [[(err[g][y], m[g][y]) for g in range(groups)] for y in range(labels)]
    if metric == "dp":
        return [[(pred[g][y], sum(m[g])) for g in range(groups)] for y in range(labels)]
    raise ValueError(f"unknown metric {metric!r}")


def gap(classes: list[list[tuple[int, int]]]) -> Fraction:
    """Largest spread of exact ratios within any class."""
    out = Fraction(0)
    for cells in classes:
        ratios = [Fraction(n, d) for n, d in cells]
        out = max(out, max(ratios) - min(ratios))
    return out


def hoeffding_distance(classes: list[list[tuple[int, int]]]) -> float:
    """Distance the empirical gap can stray from the true gap with chance
    below HOEFFDING_FAILURE: every cell rate lies within its own
    sqrt(ln(2C / p) / 2m) of its mean (a union over the C cells), and a gap
    is a difference of two such rates."""
    sizes = [d for cells in classes for _, d in cells]
    log_term = math.log(2 * len(sizes) / HOEFFDING_FAILURE)
    return 2 * max(math.sqrt(log_term / (2 * d)) for d in sizes)


def min_samples(threshold: Fraction, efg: Fraction, cells: int, delta: Fraction) -> int:
    """Per-cell count needed to certify gap efg: 2/(t - efg)^2 ln(2 C / delta)."""
    margin = float(threshold - efg)
    return math.ceil(2.0 / (margin * margin) * math.log(float(2 * cells / delta)))


def fairness_spec_bytes(
    metric: str, epsilon: Fraction, delta: Fraction, alpha: Fraction | None
) -> bytes:
    """Wire form of a fairness spec: metric id, eps, delta and alpha in
    micro-units (alpha 0xFFFFFFFF when absent), then the length-prefixed
    canonical tag "<metric>-<mode>"."""
    tag = f"{metric}-{'private' if alpha is None else 'augmented'}".encode()
    return (
        struct.pack(
            "<BIII",
            METRIC_IDS[metric],
            micro(epsilon),
            micro(delta),
            0xFFFFFFFF if alpha is None else micro(alpha),
        )
        + struct.pack("<H", len(tag))
        + tag
    )


def certificate_ok(
    cert: bytes, verification_key: bytes, model_digest: bytes, spec_bytes: bytes
) -> bool:
    """A certificate is b"FCRT1" || digest || spec, then SHA3 of the
    regulator key and an Ed25519 signature over everything before them."""
    message = b"FCRT1" + model_digest + spec_bytes
    if cert != message + sha3(verification_key) + cert[-64:] or len(cert) != len(message) + 96:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(verification_key).verify(cert[-64:], message)
    except InvalidSignature:
        return False
    return True
