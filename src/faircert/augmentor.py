"""Data augmentation with per-index deterministic randomness.

Each sample's randomness is expanded from (master_seed, sample index) only,
so augmenting the same dataset twice with the same config is byte-identical,
and the seed can be revealed after the fact to let anyone re-derive the
augmented set. Group and label fields pass through untouched; only the
feature block changes.

Two augmentations exist, each invoked independently with probability
invoke_prob * degree: additive noise per coordinate, and coordinate masking
to zero with probability mask_prob per coordinate. The noise is a quantised,
truncated normal: one 64-bit draw's top 12 bits pick one of 2**12 equally
likely standard-normal quantiles (normal_table.QUANTILES, |z| <= 3.67,
variance 0.9997), which is scaled by noise_sigma and rounded in integers.
No float operation and no C math library call is made, so the augmented
bytes are the same on every platform.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import fixedpoint as fx
from . import prg
from .fairness import micro_fraction, to_micro
from .model import _BATCH_BYTES, Dataset, Sample, _words
from .normal_table import QUANTILES
from .prg import threshold

_QUIET = len(QUANTILES)  # the index bit that reads a zero step
_SWAP = sys.byteorder != "little"  # records are little-endian on the wire

SEED_BYTES = 8
CONFIG_BYTES = 16  # without the seed


class MalformedConfigError(ValueError):
    pass


def _check_prob(name: str, value: Fraction) -> None:
    if not (0 <= value <= 1):
        raise ValueError(f"{name} must lie in [0, 1]")
    to_micro(value)


@dataclass(frozen=True)
class AugmentorConfig:
    master_seed: bytes
    noise_sigma: int = 0  # raw Q16.16, nonnegative
    mask_prob: Fraction = Fraction(0)
    invoke_prob: Fraction = Fraction(0)
    degree: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if len(self.master_seed) != SEED_BYTES:
            raise MalformedConfigError("master_seed must be 8 bytes")
        if not (0 <= self.noise_sigma <= fx.INT32_MAX):
            raise ValueError("noise_sigma must be a nonnegative 32-bit Q16.16 value")
        _check_prob("mask_prob", self.mask_prob)
        _check_prob("invoke_prob", self.invoke_prob)
        _check_prob("degree", self.degree)

    @property
    def effective_invoke_prob(self) -> Fraction:
        return self.invoke_prob * self.degree

    def is_identity(self) -> bool:
        return self.noise_sigma == 0 and self.mask_prob == 0

    def encode_public(self) -> bytes:
        """Everything except the seed: what the server learns in the request."""
        return struct.pack(
            "<IIII",
            self.noise_sigma,
            to_micro(self.mask_prob),
            to_micro(self.invoke_prob),
            to_micro(self.degree),
        )

    def encode(self) -> bytes:
        return self.master_seed + self.encode_public()

    @classmethod
    def decode_public(cls, data: bytes, master_seed: bytes) -> "AugmentorConfig":
        if len(data) != CONFIG_BYTES:
            raise MalformedConfigError("config block must be 16 bytes")
        sigma, mask, invoke, degree = struct.unpack("<IIII", data)
        return cls(
            master_seed=master_seed,
            noise_sigma=sigma,
            mask_prob=micro_fraction(mask),
            invoke_prob=micro_fraction(invoke),
            degree=micro_fraction(degree),
        )

    @classmethod
    def decode(cls, data: bytes) -> "AugmentorConfig":
        if len(data) != SEED_BYTES + CONFIG_BYTES:
            raise MalformedConfigError("config with seed must be 24 bytes")
        return cls.decode_public(data[SEED_BYTES:], data[:SEED_BYTES])


@lru_cache(maxsize=4)  # every augment() and augment_dataset() call asks for it
def _noise_steps(sigma: int) -> tuple[int, ...]:
    """The noise a draw word u adds at scale sigma, indexed by u >> 52, then
    4096 zeros: (QUANTILES[k] * sigma + 2**15) >> 16, the Q16.16 product
    rounded in integers. Setting bit 12 of the index (a sample that noise
    does not touch) reads a zero."""
    return tuple((q * sigma + (1 << 15)) >> 16 for q in QUANTILES) + (0,) * len(QUANTILES)


def _augment_records(
    config: AugmentorConfig, records: bytes | memoryview, dimension: int, first: int
) -> bytes | memoryview:
    """The augmented count x <HH{d}i> record block (model.Dataset's form);
    record i is transformed with sample index first + i, and the ids pass
    through.

    Sample i reads words i * (2 + 2d) onward of the master seed's PRG
    stream, in this fixed layout: its noise invocation word, its mask
    invocation word, d noise words, then d mask words, which are reserved
    (unread) when the mask probability is 0, so masking moves no noise
    word. A coordinate noised with word u gains the step
    _noise_steps(sigma)[u >> 52], saturated to int32; a coordinate masked
    with word u becomes 0 when u is below the mask threshold; noise comes
    first. The records are read as an int32 array and changed a column at
    a time, in batches whose words (one prg.batches) and records stay under
    _BATCH_BYTES. A config that can change nothing (invocation probability
    0, or neither noise nor masking) draws no word and returns the block.
    """
    invoke = threshold(config.effective_invoke_prob)
    if not invoke or config.is_identity():
        return records  # no draw could change a record, so none is made
    d, mask, seed = dimension, threshold(config.mask_prob), config.master_seed
    steps = _noise_steps(config.noise_sigma) if config.noise_sigma else None
    per, stride = 2 + 2 * d, 1 + d  # words a sample, ints a record
    count = len(records) // (4 * stride)
    batch = max(1, _BATCH_BYTES // (8 * per))
    chunks, runs = [], prg.batches(seed, first * per, count * per, batch * per)
    for lo in range(0, count, batch):
        n = min(batch, count - lo)
        words = _words(next(runs), "Q")
        ints = array("i")
        ints.frombytes(records[4 * stride * lo : 4 * stride * (lo + n)])
        if _SWAP:
            ints.byteswap()
        # Per sample: the index bit that turns its noise off, and its mask threshold.
        quiet = [0 if u < invoke else _QUIET for u in words[0::per]] if steps else None
        limits = [mask if u < invoke else 0 for u in words[1::per]] if mask else None
        for j in range(d):
            column = ints[1 + j :: stride]
            if quiet is not None:
                noise = words[2 + j :: per]
                column = [v + steps[(u >> 52) | q] for v, u, q in zip(column, noise, quiet)]
            if limits is not None:
                masks = words[2 + d + j :: per]
                column = [0 if u < t else v for v, u, t in zip(column, masks, limits)]
            try:
                ints[1 + j :: stride] = array("i", column)
            except OverflowError:  # noise took a value out of int32
                ints[1 + j :: stride] = array("i", map(fx.saturate, column))
        if _SWAP:
            ints.byteswap()
        chunks.append(ints.tobytes())
    return b"".join(chunks)


def augment(config: AugmentorConfig, sample: Sample, index: int) -> Sample:
    """Transform one sample; deterministic in (config, sample, index).
    Features must lie in int32, as in a Dataset."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    row = struct.Struct(f"<4x{len(sample.features)}i")
    out = _augment_records(config, row.pack(*sample.features), len(sample.features), index)
    return Sample(features=row.unpack(out), group=sample.group, label=sample.label)


def augment_dataset(config: AugmentorConfig, dataset: Dataset) -> Dataset:
    """Apply augment() positionally; index i transforms sample i, on the
    records: no Sample and no row is kept, and the ids pass through."""
    # Every augmented coordinate is saturated and the dimension is kept.
    records = _augment_records(config, dataset.records, dataset.dimension, 0)
    return Dataset._of_records(*dataset.header, records)
