"""Data augmentation with per-index deterministic randomness.

Each sample's randomness is expanded from (master_seed, sample index) only,
so augmenting the same dataset twice with the same config is byte-identical,
and the seed can be revealed after the fact to let anyone re-derive the
augmented set. Group and label fields pass through untouched; only the
feature block changes.

Two augmentations exist, each invoked independently with probability
invoke_prob * degree: additive Gaussian noise per coordinate (Box-Muller on
64-bit uniform draws, scaled by noise_sigma and rounded back to Q16.16), and
coordinate masking to zero with probability mask_prob per coordinate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from math import cos, log, pi, sin, sqrt

from . import fixedpoint as fx
from . import prg
from .fairness import micro_fraction, to_micro
from .model import Dataset, Sample
from .prg import threshold

_U64 = 1 << 64
_TWO_PI = 2.0 * pi
_INDEX = struct.Struct("<Q")

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
        """Everything except the seed; what is committed to before reveal."""
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


def _augment_records(
    config: AugmentorConfig, records: bytes | memoryview, dimension: int, first: int
) -> bytes | memoryview:
    """The augmented count x <HH{d}i> record block (model.Dataset's form);
    record i is transformed with sample index first + i. A record left alone
    is copied without being unpacked, and the ids pass through.

    Sample i reads the stream keyed by master_seed || u64le(i) (prg module):
    the noise and mask invocation draws, then, when noise applies, two
    draws per pair of coordinates (Box-Muller: cos for the first, sin for
    the second; an odd dimension leaves the last sin unused), then, when
    masking applies, one draw per coordinate. Block 0 is hashed first, and
    only the blocks those draws reach after it; a config that can change
    nothing (invocation probability 0, or neither noise nor masking) hashes
    no block and returns the block itself.
    """
    invoke = threshold(config.effective_invoke_prob)
    if not invoke or config.is_identity():
        return records  # no draw could change a record, so none is hashed
    sigma, mask = config.noise_sigma, threshold(config.mask_prob)
    seed, pack, saturate = config.master_seed, _INDEX.pack, fx.saturate
    d = dimension
    record = struct.Struct(f"<HH{d}i")
    out = []
    for index, (raw,) in enumerate(struct.iter_unpack(f"{record.size}s", records), first):
        key = seed + pack(index)
        words = prg.stream_words(key, 0, 1)
        noisy = sigma > 0 and words[0] < invoke
        masked = mask > 0 and words[1] < invoke
        if not (noisy or masked):
            out.append(raw)
            continue
        used = 2 + (d + d % 2 if noisy else 0) + (d if masked else 0)
        if used > prg.WORDS_PER_BLOCK:
            words += prg.stream_words(key, 1, (used - 1) // prg.WORDS_PER_BLOCK)
        group, label, *features = record.unpack(raw)
        at = 2
        if noisy:
            for i in range(0, d, 2):
                # As in CounterPrg.gauss, and in the same order (r * cos,
                # then * sigma): the bytes depend on the float rounding.
                r = sqrt(-2.0 * log((words[at] + 1) / _U64))  # (0, 1]: log stays finite
                angle = _TWO_PI * (words[at + 1] / _U64)
                at += 2
                features[i] = saturate(features[i] + round(r * cos(angle) * sigma))
                if i + 1 < d:
                    features[i + 1] = saturate(features[i + 1] + round(r * sin(angle) * sigma))
        if masked:
            for i, u in enumerate(words[at : at + d]):
                if u < mask:
                    features[i] = 0
        out.append(record.pack(group, label, *features))
    return b"".join(out)


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
    records: no Sample and no row is kept, and groups and labels are
    unchanged."""
    # Every augmented coordinate is saturated and the dimension is kept.
    records = _augment_records(config, dataset.records, dataset.dimension, 0)
    return Dataset._of_records(*dataset.header, dataset.groups, dataset.labels, records)
