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

from . import fixedpoint as fx
from .fairness import micro_fraction, to_micro
from .model import Dataset, Sample
from .prg import CounterPrg

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


def augment(config: AugmentorConfig, sample: Sample, index: int) -> Sample:
    """Transform one sample; deterministic in (config, sample, index)."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    stream = CounterPrg(config.master_seed + struct.pack("<Q", index))
    invoke = config.effective_invoke_prob
    apply_noise = stream.below(invoke)
    apply_mask = stream.below(invoke)
    features = list(sample.features)
    if apply_noise and config.noise_sigma > 0:
        for i, value in enumerate(features):
            offset = int(round(stream.gauss() * config.noise_sigma))
            features[i] = fx.saturate(value + offset)
    if apply_mask and config.mask_prob > 0:
        for i in range(len(features)):
            if stream.below(config.mask_prob):
                features[i] = 0
    return Sample(features=tuple(features), group=sample.group, label=sample.label)


def augment_dataset(config: AugmentorConfig, dataset: Dataset) -> Dataset:
    """Apply augment() positionally; index i transforms sample i. Works on
    the columns: no Sample outlives its own augmentation."""
    rows = [
        augment(config, Sample(row, g, y), i).features
        for i, (row, g, y) in enumerate(zip(dataset.features, dataset.groups, dataset.labels))
    ]
    # augment() saturates every coordinate and keeps the dimension.
    return Dataset.from_columns(
        dataset.dimension,
        dataset.num_groups,
        dataset.num_labels,
        rows,
        dataset.groups,
        dataset.labels,
    )
