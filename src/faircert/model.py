"""Reference models, labelled datasets, and the planted-bias generator.

Models are deterministic functions over Q16.16 feature vectors with a
canonical byte serialization, so the same bytes always produce the same
predictions whether evaluated here or inside the secure-compute circuits.
Three architectures exist: an argmax-of-affine-scores classifier, a lookup
table over the first feature's integer part, and a wrapper that flips the
inner model's prediction per group at a configured rate (the vehicle for
planting a known fairness gap).

A Dataset holds its samples as packed wire records, about 4 + 4d bytes per
sample, whether it was built, generated or decoded. The linear and lookup
kernels read only the feature columns their model uses, as strided slices
of an int32 view of the records; the augmentor unpacks rows as it reads
them. The planted generator writes its records a byte column at a time,
from the exact run of PRG blocks a set reads.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from operator import itemgetter, le, mul, rshift
from typing import Callable, Iterable, Sequence, Union

from . import fixedpoint as fx
from .fairness import IdOutOfRangeError, micro_fraction, to_micro
from .prg import batches, derive_key, threshold
from .prg import hash_u64  # noqa: F401  (defines the flip draw; bench/ traces it here)

MODEL_MAGIC = b"FAIRM1"
DATASET_MAGIC = b"FDAT1"

ARCH_LINEAR = 0
ARCH_LOOKUP = 1
ARCH_BIASED = 2

_FLIP_TAG = b"flip:"
# Byte 2 of a planted noise word to the high bytes of its value (see
# _planted_records): 0xff when bit 0, which is bit 16 of the word, is clear.
_SIGNS = bytes(0 if b & 1 else 0xFF for b in range(256))
# Bytes a planted batch's words or records take at most, unless one
# sample takes more. They then stay below the size at which the C allocator
# maps a buffer apart; freeing a mapped buffer raises that size for the rest
# of the process, which then grows its heap instead.
_BATCH_BYTES = 1 << 16


class DimensionMismatchError(ValueError):
    pass


class InvalidWeightsError(ValueError):
    pass


class MalformedModelError(ValueError):
    pass


class MalformedDatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Sample:
    """One labelled point: Q16.16 raw features, group id, true label."""

    features: tuple[int, ...]
    group: int
    label: int


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """A labelled test set: its packed wire records, the one store of its
    samples' ids and features; sample i is record i.

    `records` is the count x <HH{d}i> block that encode_dataset writes after
    its header: per sample its group and label (u16), then its d features
    (int32), little-endian on every host. That is about 4 + 4d bytes per
    sample, against about 224 for a row tuple at d = 4. Dataset(...) and
    from_columns pack each row once and check its length and int32 range;
    every other constructor passes a block. The kernels read feature columns
    out of the block and the augmentor unpacks rows as it reads them.
    `groups` and `labels` are tuples of the block's ids, read when the set
    is built; `features` and `samples` build tuples on first use. Two sets
    are equal when their headers and records are.
    """

    dimension: int
    num_groups: int
    num_labels: int
    records: bytes | memoryview = field(repr=False)

    def __init__(
        self, dimension: int, num_groups: int, num_labels: int, samples: Iterable[Sample]
    ) -> None:
        header, samples = (dimension, num_groups, num_labels), tuple(samples)
        ids = [s.group for s in samples], [s.label for s in samples]
        self._hold(*header, _pack(*header, [s.features for s in samples], *ids))

    @classmethod
    def from_columns(
        cls,
        dimension: int,
        num_groups: int,
        num_labels: int,
        features: Iterable[tuple[int, ...]],
        groups: Iterable[int],
        labels: Iterable[int],
    ) -> "Dataset":
        """Build from a feature, a group and a label column, checked as
        Dataset(...) checks its samples."""
        header = dimension, num_groups, num_labels
        block = _pack(*header, tuple(features), tuple(groups), tuple(labels))
        return cls._of_records(*header, block)

    @classmethod
    def _of_records(cls, dimension, num_groups, num_labels, records) -> "Dataset":
        """The set over a block of whole records, unchecked but for its ids,
        which are read out of the block and checked against the header."""
        dataset = cls.__new__(cls)
        dataset._hold(dimension, num_groups, num_labels, records)
        return dataset

    def _hold(self, dimension, num_groups, num_labels, records) -> None:
        if dimension < 1 or num_groups < 1 or num_labels < 1:
            raise ValueError("dimension, groups and labels must be positive")
        # A record is 2 + 2 * dimension u16 items, the first two its ids. A
        # u16 is never negative, so only a column's largest id can be out of range.
        ids, half = _words(records, "H"), 2 + 2 * dimension
        groups, labels = tuple(ids[::half]), tuple(ids[1::half])
        for name, column, bound in (("group", groups, num_groups), ("label", labels, num_labels)):
            if max(column, default=0) >= bound:
                raise IdOutOfRangeError(f"{name} {max(column)} outside [0, {bound})")
        names = ("dimension", "num_groups", "num_labels", "records", "groups", "labels")
        vars(self).update(zip(names, (dimension, num_groups, num_labels, records, groups, labels)))

    @functools.cached_property
    def features(self) -> tuple[tuple[int, ...], ...]:
        return tuple(struct.iter_unpack(f"<4x{self.dimension}i", self.records))

    @functools.cached_property
    def samples(self) -> tuple[Sample, ...]:
        return tuple(map(Sample, self.features, self.groups, self.labels))

    @property
    def header(self) -> tuple[int, int, int]:
        """(dimension, num_groups, num_labels)."""
        return self.dimension, self.num_groups, self.num_labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.header, self.records) == (other.header, other.records)

    def __hash__(self) -> int:
        return hash((self.header, self.records))

    def __reduce__(self):
        return decode_dataset, (encode_dataset(self),)


def _pack(dimension, num_groups, num_labels, rows, groups, labels) -> bytes:
    """The record block of these columns, each row packed once. A value
    that no record field holds is looked for only when packing fails."""
    if dimension < 1 or num_groups < 1 or num_labels < 1:
        raise ValueError("dimension, groups and labels must be positive")
    if not len(rows) == len(groups) == len(labels):
        raise ValueError("feature, group and label columns differ in length")
    record = struct.Struct(f"<HH{dimension}i").pack
    try:
        return b"".join([record(g, y, *row) for g, y, row in zip(groups, labels, rows)])
    except struct.error as exc:
        for name, column, bound in (("group", groups, num_groups), ("label", labels, num_labels)):
            low, high, bound = min(column), max(column), min(bound, 1 << 16)  # ids are u16
            if low < 0 or high >= bound:
                bad = low if low < 0 else high
                raise IdOutOfRangeError(f"{name} {bad} outside [0, {bound})") from None
        # The ids are in range, so the row is short, long or holds a value
        # that is not an int32.
        bad = next((row for row in rows if len(row) != dimension), None)
        if bad is not None:
            raise DimensionMismatchError(
                f"sample has {len(bad)} features, expected {dimension}"
            ) from None
        raise ValueError("feature outside the signed 32-bit range") from exc


def canonical_order(dataset: Dataset) -> Dataset:
    """Stable sort by group id; the public ordering used for certification.
    Whole records are moved as byte slices, none is unpacked. A set already
    in order is returned as it is."""
    groups = dataset.groups
    if all(map(le, groups, groups[1:])):
        return dataset
    # Out of order means at least two samples, so pick returns a tuple.
    pick = itemgetter(*sorted(range(len(groups)), key=groups.__getitem__))
    records = [r for (r,) in struct.iter_unpack(f"{4 + 4 * dataset.dimension}s", dataset.records)]
    return Dataset._of_records(*dataset.header, b"".join(pick(records)))


_DATASET_HEADER = struct.Struct("<IIII")  # dimension, groups, labels, count


def encode_dataset(dataset: Dataset) -> bytes:
    """Magic, header, then per sample: group and label (u16), features (i32)."""
    header = _DATASET_HEADER.pack(*dataset.header, len(dataset.groups))
    return DATASET_MAGIC + header + dataset.records


def decode_dataset(data: bytes | memoryview) -> Dataset:
    """The record block is kept as it is (a view when `data` is immutable
    bytes, else a copy); each record holds exactly dim int32 values, so only
    its ids need a range check."""
    if data[: len(DATASET_MAGIC)] != DATASET_MAGIC:
        raise MalformedDatasetError("bad dataset magic")
    offset = len(DATASET_MAGIC) + _DATASET_HEADER.size
    if len(data) < offset:
        raise MalformedDatasetError("truncated dataset")
    dim, groups, labels, count = _DATASET_HEADER.unpack_from(data, len(DATASET_MAGIC))
    # The declared count is checked against the payload before any parsing.
    stride = 4 + 4 * dim
    if count * stride > len(data) - offset:
        raise MalformedDatasetError("truncated dataset")
    if count * stride < len(data) - offset:
        raise MalformedDatasetError("trailing bytes after dataset")
    block = memoryview(data)[offset:]
    if not isinstance(block.obj, bytes):
        block = bytes(block)  # no view into a buffer the caller may change

    try:
        return Dataset._of_records(dim, groups, labels, block)
    except ValueError as exc:
        raise MalformedDatasetError(str(exc)) from exc


@dataclass(frozen=True)
class LinearModel:
    """argmax_y of <weights[y], x> + bias[y], lowest label wins ties."""

    dimension: int
    num_labels: int
    weights: tuple[tuple[int, ...], ...]
    biases: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1 or self.num_labels < 1:
            raise ValueError("dimension and num_labels must be positive")
        if len(self.weights) != self.num_labels or len(self.biases) != self.num_labels:
            raise MalformedModelError("one weight row and bias per label required")
        for row in self.weights:
            if len(row) != self.dimension:
                raise MalformedModelError("weight row length must equal the dimension")

    @functools.cached_property
    def _kernel(self) -> "Kernel":
        return _linear_kernel(self)


@dataclass(frozen=True)
class LookupModel:
    """Label read from a table at index int(feature[0]) mod table size."""

    dimension: int
    num_labels: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1 or self.num_labels < 1:
            raise ValueError("dimension and num_labels must be positive")
        if not self.table:
            raise MalformedModelError("lookup table must be nonempty")
        if any(not (0 <= v < self.num_labels) for v in self.table):
            raise MalformedModelError("table entries must be valid labels")

    @functools.cached_property
    def _kernel(self) -> "Kernel":
        return _lookup_kernel(self)


@dataclass(frozen=True)
class BiasedModel:
    """Flips the inner prediction per group at a configured rate.

    The flip draw is keyed by (seed, hash of the feature bytes), never by
    call order, so repeated evaluation of the same point is stable. Only a
    LinearModel inner is allowed: the byte layout carries no inner-length
    field, and the linear header is the only one that self-delimits.
    """

    inner: LinearModel
    flip_rates: tuple[Fraction, ...]
    seed: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.inner, LinearModel):
            raise MalformedModelError("wrapper requires a linear inner model")
        if not self.flip_rates:
            raise MalformedModelError("need at least one per-group flip rate")
        for r in self.flip_rates:
            if not (0 <= r < 1):
                raise InvalidWeightsError("flip rates must lie in [0, 1)")
            to_micro(r)
        if len(self.seed) != 8:
            raise MalformedModelError("seed must be 8 bytes")

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    @property
    def num_labels(self) -> int:
        return self.inner.num_labels

    @functools.cached_property
    def _kernel(self) -> "Kernel":
        return _biased_kernel(self)


ModelSpec = Union[LinearModel, LookupModel, BiasedModel]


# The prediction kernel. Each model object compiles itself once, on first
# use, into a function from a dataset's packed records (and its group ids)
# to labels; predict_record() is that kernel over one record, predict() over
# one packed sample, predict_batch() over a dataset. The linear and lookup
# kernels read the records as an int32 array (see _words): feature j of
# record i is item i * (d + 1) + 1 + j, so a feature column is one strided
# slice of it, and only the columns a model uses are read.

Records = Union[bytes, memoryview]
Kernel = Callable[[Records, Sequence[int]], list[int]]


def _words(block: Records, code: str) -> Sequence[int]:
    """The block as an array of little-endian items of type `code` ("H": u16,
    "i": int32), as the wire writes them: a view of the block on a
    little-endian host, a byteswapped copy on any other."""
    if sys.byteorder == "little":
        return memoryview(block).cast(code)
    words = array(code)
    words.frombytes(block)
    words.byteswap()
    return words


def _exact(terms: Sequence[int], bias: int, lo: int, hi: int) -> bool:
    """Whether bias + sum((w * x) >> 16) over the nonzero weights `terms`
    equals the saturating fx.dot for every feature vector in [lo, hi].

    With lo <= 0 <= hi, a term (w * x) >> 16 lies between its values at
    x = lo and x = hi, one end at most 0 and the other at least 0. If every
    term's range lies inside int32, and so do the bias plus the sum of the
    lower ends and the bias plus the sum of the upper ends, then no product
    and no prefix sum can saturate. Zero weights add no term: mul(0, x) is 0,
    and adding 0 to an accumulator that lies in int32 leaves it unchanged.
    """
    ends = [sorted((w * lo >> fx.FRACTION_BITS, w * hi >> fx.FRACTION_BITS)) for w in terms]
    low, high = sum(end[0] for end in ends), sum(end[1] for end in ends)
    in_range = all(fx.INT32_MIN <= down and up <= fx.INT32_MAX for down, up in ends)
    return in_range and fx.INT32_MIN <= bias + low and bias + high <= fx.INT32_MAX


def _span(columns: Iterable[Sequence[int]]) -> tuple[int, int]:
    """The least interval holding 0 and every value of the columns."""
    return (
        min([0, *(min(column, default=0) for column in columns)]),
        max([0, *(max(column, default=0) for column in columns)]),
    )


def _plain_scores(
    columns: Sequence[Sequence[int]], weights: Sequence[int], bias: int, count: int
) -> Iterable[int]:
    """bias + sum((w * x) >> 16) over the terms, for every row. A weight of
    ONE scores its column as it is, since (ONE * x) >> 16 is x."""
    shift = fx.FRACTION_BITS
    terms = [
        column if w == fx.ONE else map(rshift, map(mul, column, repeat(w)), repeat(shift))
        for column, w in zip(columns, weights)
    ]
    if bias or not terms:
        terms.append(repeat(bias, count))
    return terms[0] if len(terms) == 1 else map(sum, zip(*terms))


def _linear_kernel(model: LinearModel) -> Kernel:
    """Each label is scored from its nonzero (column, weight) terms, in
    column order. A label whose terms cannot saturate over all of int32 is
    always scored plainly; any other is checked again per batch over the
    span of the columns the model uses, and a batch that fails that too
    keeps the step-by-step saturating fx.dot. Every label of a row is scored
    in one pass over the used columns; index(max) picks the first highest,
    so the lowest label wins ties."""
    stride = model.dimension + 1  # int32 items per record: the ids, then the features
    labels = []
    for row, bias in zip(model.weights, model.biases):
        index, terms = tuple(compress(range(model.dimension), row)), tuple(filter(None, row))
        b = fx.saturate(bias)
        labels.append((index, terms, b, _exact(terms, b, fx.INT32_MIN, fx.INT32_MAX)))
    used = sorted(set().union(*(index for index, *_ in labels)))

    def run(records: Records, groups: Sequence[int]) -> list[int]:
        words = _words(records, "i")
        count = len(words) // stride
        columns = {j: words[1 + j :: stride] for j in used}
        span = functools.cache(lambda: _span(columns.values()))
        scores = []
        for index, terms, b, safe in labels:
            picked = [columns[j] for j in index]
            if safe or _exact(terms, b, *span()):
                scores.append(_plain_scores(picked, terms, b, count))
            else:
                scores.append(map(fx.dot, repeat(terms), zip(*picked), repeat(b)))
        return [s.index(max(s)) for s in zip(*scores)]

    return run


def _lookup_kernel(model: LookupModel) -> Kernel:
    table, size, stride = model.table, len(model.table), model.dimension + 1
    return lambda records, groups: [
        table[(x >> fx.FRACTION_BITS) % size] for x in _words(records, "i")[1::stride]
    ]


def _biased_kernel(model: BiasedModel) -> Kernel:
    inner = model.inner._kernel
    # The draw is hash_u64(_FLIP_TAG, seed, packed features), compared with
    # the rate's integer threshold. A zero rate never flips, unhashed, and a
    # model whose rates are all zero returns its inner labels as they are.
    # The packed features are each record's wire bytes after its ids, so
    # they are sliced from the block, not packed again.
    limits = tuple(map(threshold, model.flip_rates))
    flips = any(limits)
    prefix = _FLIP_TAG + model.seed
    keys = struct.Struct(f"<4x{4 * model.dimension}s").iter_unpack
    following = tuple((y + 1) % model.num_labels for y in range(model.num_labels))
    sha3, from_bytes = hashlib.sha3_256, int.from_bytes

    def run(records: Records, groups: Sequence[int]) -> list[int]:
        low, high = (min(groups), max(groups)) if groups else (0, 0)
        if low < 0 or high >= len(limits):
            bad = low if low < 0 else high
            raise IdOutOfRangeError(f"group {bad} has no flip rate (got {len(limits)})")
        labels = inner(records, groups)
        if not flips:
            return labels
        return [
            following[y]
            if limits[g] and from_bytes(sha3(prefix + key).digest()[:8], "little") < limits[g]
            else y
            for y, g, (key,) in zip(labels, groups, keys(records))
        ]

    return run


def predict_batch(model: ModelSpec, dataset: Dataset) -> list[int]:
    """Labels for every sample of a dataset, in order."""
    if dataset.dimension != model.dimension:
        raise DimensionMismatchError(
            f"dataset has {dataset.dimension} features, model wants {model.dimension}"
        )
    return model._kernel(dataset.records, dataset.groups)


def pack_record(head: int, features: Sequence[int]) -> bytes:
    """One record as the kernels read it: a u32 head they skip (a dataset
    record's two u16 ids, a query's dimension), then the features as
    int32s. A feature that is not an int32 raises ValueError."""
    try:
        return struct.pack(f"<I{len(features)}i", head, *features)
    except struct.error as exc:
        raise ValueError("feature outside the signed 32-bit range") from exc


def predict_record(model: ModelSpec, record: Records, group: int) -> int:
    """The label of one record of the model's dimension, in the given group."""
    return model._kernel(record, (group,))[0]


def predict(model: ModelSpec, sample: Sample) -> int:
    """Deterministic label for a sample; pure in (model bytes, sample).
    Features are raw Q16.16 values and must be int32s, as in a Dataset; the
    packer refuses any other value."""
    if len(sample.features) != model.dimension:
        raise DimensionMismatchError(
            f"sample has {len(sample.features)} features, model wants {model.dimension}"
        )
    return predict_record(model, pack_record(0, sample.features), sample.group)


def _header(arch: int, dimension: int, num_labels: int) -> bytes:
    return MODEL_MAGIC + struct.pack("<BII", arch, dimension, num_labels)


def serialize_model(model: ModelSpec) -> bytes:
    """Canonical byte form; the Merkle commitment is taken over these bytes."""
    if isinstance(model, LinearModel):
        params = [v for row in model.weights for v in row] + list(model.biases)
        return _header(ARCH_LINEAR, model.dimension, model.num_labels) + struct.pack(
            f"<{len(params)}i", *params
        )
    if isinstance(model, LookupModel):
        params = [v << fx.FRACTION_BITS for v in model.table]
        return _header(ARCH_LOOKUP, model.dimension, model.num_labels) + struct.pack(
            f"<{len(params)}i", *params
        )
    if isinstance(model, BiasedModel):
        rates = b"".join(struct.pack("<I", to_micro(r)) for r in model.flip_rates)
        return (
            _header(ARCH_BIASED, model.dimension, model.num_labels)
            + serialize_model(model.inner)
            + rates
            + model.seed
        )
    raise TypeError(f"unknown model type {type(model)!r}")


MODEL_HEADER_BYTES = len(MODEL_MAGIC) + 9  # magic, then <BII> arch, dimension, labels


def _parse_header(data: bytes, offset: int) -> tuple[int, int, int, int]:
    if data[offset : offset + len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise MalformedModelError("bad model magic")
    try:
        arch, dim, labels = struct.unpack_from("<BII", data, offset + len(MODEL_MAGIC))
    except struct.error as exc:
        raise MalformedModelError("truncated model header") from exc
    if dim < 1 or labels < 1:
        raise MalformedModelError("dimension and num_labels must be positive")
    return arch, dim, labels, offset + MODEL_HEADER_BYTES


def _read_params(data: bytes, offset: int, count: int) -> tuple[tuple[int, ...], int]:
    try:
        values = struct.unpack_from(f"<{count}i", data, offset)
    except struct.error as exc:
        raise MalformedModelError("truncated parameter block") from exc
    return values, offset + 4 * count


def deserialize_model(data: bytes) -> ModelSpec:
    if len(data) < MODEL_HEADER_BYTES:
        raise MalformedModelError("model bytes shorter than the header")
    arch, dim, labels, offset = _parse_header(data, 0)
    if arch == ARCH_LOOKUP:
        remaining = len(data) - offset
        if remaining < 4 or remaining % 4:
            raise MalformedModelError("lookup table block must be whole 32-bit entries")
        params, _ = _read_params(data, offset, remaining // 4)
        table = tuple(v >> fx.FRACTION_BITS for v in params)
        if any((v >> fx.FRACTION_BITS) << fx.FRACTION_BITS != v for v in params):
            raise MalformedModelError("lookup entries must encode whole labels")
        return LookupModel(dim, labels, table)
    if arch == ARCH_BIASED:
        inner_arch, inner_dim, inner_labels, offset = _parse_header(data, offset)
        if inner_arch != ARCH_LINEAR:
            raise MalformedModelError("wrapper requires a linear inner model")
        if (inner_dim, inner_labels) != (dim, labels):
            raise MalformedModelError("wrapper header must mirror the inner model")
    elif arch != ARCH_LINEAR:
        raise MalformedModelError(f"unknown architecture id {arch}")
    # The linear parameters: the whole model, or the wrapper's inner model.
    params, offset = _read_params(data, offset, labels * (dim + 1))
    weights = tuple(tuple(params[y * dim : (y + 1) * dim]) for y in range(labels))
    linear = LinearModel(dim, labels, weights, tuple(params[labels * dim :]))
    if arch == ARCH_LINEAR:
        if offset != len(data):
            raise MalformedModelError("trailing bytes after linear model")
        return linear
    tail = len(data) - offset
    if tail < 12 or (tail - 8) % 4:
        raise MalformedModelError("wrapper tail must be flip rates plus an 8-byte seed")
    rates = []
    for _ in range((tail - 8) // 4):
        (units,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if units >= 10**6:
            raise MalformedModelError("flip rate must be below 1")
        rates.append(micro_fraction(units))
    return BiasedModel(linear, tuple(rates), data[offset:])


def parameter_count(model: ModelSpec) -> int:
    """Number of 32-bit fixed-point parameters, for gate-cost estimates."""
    if isinstance(model, LinearModel):
        return model.num_labels * (model.dimension + 1)
    if isinstance(model, LookupModel):
        return len(model.table)
    if isinstance(model, BiasedModel):
        return parameter_count(model.inner) + len(model.flip_rates)
    raise TypeError(f"unknown model type {type(model)!r}")


@dataclass(frozen=True)
class TrueGapReport:
    """Analytic fairness gaps of a planted distribution, exact rationals."""

    ore: Fraction
    eo: Fraction
    dp: Fraction


@dataclass(frozen=True)
class PlantedConfig:
    """Mixture the planted generator draws from.

    cell_weights[g][y] is the exact probability of cell (g, y); they must sum
    to 1 and every group must carry positive mass. error_rates[g] is the
    wrapper's flip rate for group g, which is also the group's true risk
    since the inner model is exact on planted features.
    """

    cell_weights: tuple[tuple[Fraction, ...], ...]
    error_rates: tuple[Fraction, ...]
    seed: bytes
    noise_dims: int = 2

    def __post_init__(self) -> None:
        if not self.cell_weights or not self.cell_weights[0]:
            raise InvalidWeightsError("cell_weights must be a nonempty grid")
        cols = len(self.cell_weights[0])
        if any(len(row) != cols for row in self.cell_weights):
            raise InvalidWeightsError("cell_weights rows must have equal length")
        if any(w < 0 for row in self.cell_weights for w in row):
            raise InvalidWeightsError("weights must be nonnegative")
        if sum(w for row in self.cell_weights for w in row) != 1:
            raise InvalidWeightsError("weights must sum exactly to 1")
        if any(sum(row) == 0 for row in self.cell_weights):
            raise InvalidWeightsError("every group needs positive mass")
        if len(self.error_rates) != len(self.cell_weights):
            raise InvalidWeightsError("one error rate per group required")
        for r in self.error_rates:
            if not (0 <= r < 1):
                raise InvalidWeightsError("error rates must lie in [0, 1)")
            to_micro(r)
        if len(self.seed) != 8:
            raise ValueError("seed must be 8 bytes")
        if self.noise_dims < 0:
            raise ValueError("noise_dims must be nonnegative")

    @property
    def num_groups(self) -> int:
        return len(self.cell_weights)

    @property
    def num_labels(self) -> int:
        return len(self.cell_weights[0])

    @property
    def dimension(self) -> int:
        return self.num_labels + self.noise_dims

    def to_json(self) -> str:
        return json.dumps(
            {
                "cell_weights": [[str(w) for w in row] for row in self.cell_weights],
                "error_rates": [str(r) for r in self.error_rates],
                "seed": self.seed.hex(),
                "noise_dims": self.noise_dims,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "PlantedConfig":
        raw = json.loads(text)
        return cls(
            cell_weights=tuple(
                tuple(Fraction(w) for w in row) for row in raw["cell_weights"]
            ),
            error_rates=tuple(Fraction(r) for r in raw["error_rates"]),
            seed=bytes.fromhex(raw["seed"]),
            noise_dims=int(raw.get("noise_dims", 2)),
        )


def planted_model(config: PlantedConfig) -> BiasedModel:
    """Wrapper over an exact one-hot linear decoder of the planted features."""
    dim, labels = config.dimension, config.num_labels
    weights = tuple(
        tuple(fx.ONE if j == y else 0 for j in range(dim)) for y in range(labels)
    )
    inner = LinearModel(dim, labels, weights, biases=(0,) * labels)
    return BiasedModel(
        inner=inner,
        flip_rates=config.error_rates,
        seed=derive_key(config.seed, "flip"),
    )


def true_gaps(config: PlantedConfig) -> TrueGapReport:
    rates = config.error_rates
    groups, labels = config.num_groups, config.num_labels
    spread = Fraction(0)
    if groups >= 2:
        spread = max(rates) - min(rates)
    eo = spread if labels >= 2 else Fraction(0)
    dp = Fraction(0)
    if groups >= 2:
        cond = [
            [w / sum(row) for w in row] for row in config.cell_weights
        ]
        for y in range(labels):
            likes = [
                (1 - rates[g]) * cond[g][y] + rates[g] * cond[g][(y - 1) % labels]
                if labels >= 2
                else Fraction(1)
                for g in range(groups)
            ]
            span = max(likes) - min(likes)
            if span > dp:
                dp = span
    return TrueGapReport(ore=spread, eo=eo, dp=dp)


def generate_planted(
    config: PlantedConfig,
    m: int,
    *,
    group_counts: tuple[int, ...] | None = None,
) -> tuple[Dataset, BiasedModel, TrueGapReport]:
    """Draw a labelled test set and the matching planted model.

    By default m samples come i.i.d. from the cell mixture. group_counts
    instead fixes the per-group sizes exactly (labels still drawn from the
    group's conditional weights), group after group, which is how test sets
    of exactly the required size are produced.

    Sample i reads words i * (1 + noise_dims) onwards of the seed's "data"
    stream: one for its cell, then one per noise coordinate. The cell draw
    is compared with the integer thresholds of the cumulative weights
    (bisect finds the first bound above the draw; each last bound is
    2**64). A noise coordinate is u mod 2**17, less ONE: uniform in
    [-1, 1) at exact Q16.16 resolution. 2**17 divides 2**64, so no word is
    ever rejected, and a set of N samples reads exactly its first
    N * (1 + noise_dims) words. Features are a one-hot +/-ONE block that
    decodes the label, then the noise. Samples are drawn in batches whose
    words or records stay under _BATCH_BYTES, read through one prg.batches,
    which hashes each stream block once.
    """
    labels_count, per = config.num_labels, 1 + config.noise_dims
    if group_counts is None:
        if m < 0:
            raise ValueError("m must be nonnegative")
        limits = [threshold(acc) for acc in accumulate(chain.from_iterable(config.cell_weights))]
        spans = [(0, len(limits), m)]
    else:
        if len(group_counts) != config.num_groups:
            raise ValueError("one count per group required")
        if any(n < 0 for n in group_counts):
            raise ValueError("group counts must be nonnegative")
        limits = [
            threshold(acc / sum(row)) for row in config.cell_weights for acc in accumulate(row)
        ]
        spans = [(g * labels_count, (g + 1) * labels_count, n) for g, n in enumerate(group_counts)]
    # Cell c = g * labels + y is bisected in its own group's limits: all of
    # them on the i.i.d. path, group g's on the fixed-count path.
    lows = chain.from_iterable(repeat(low, n) for low, _, n in spans)
    highs = chain.from_iterable(repeat(high, n) for _, high, n in spans)
    count = sum(n for *_, n in spans)

    # A record starts with its cell's wire prefix: its ids, then its one-hot
    # block.
    pack = struct.Struct(f"<HH{labels_count}i").pack
    labels_range = range(labels_count)
    one_hot = [[fx.ONE if j == y else -fx.ONE for j in labels_range] for y in labels_range]
    prefixes = [pack(g, y, *one_hot[y]) for g in range(config.num_groups) for y in labels_range]
    sample_bytes = max(8 * per, 4 + 4 * config.dimension)  # its words, or its record
    batch = max(1, _BATCH_BYTES // sample_bytes)
    chunks = []
    for words in batches(derive_key(config.seed, "data"), 0, count * per, batch * per):
        draws = _words(words, "Q")[::per]
        n = len(draws)
        drawn = list(map(bisect_right, repeat(limits), draws, islice(lows, n), islice(highs, n)))
        chunks.append(_planted_records(prefixes, drawn, words, per))
    header = config.dimension, config.num_groups, labels_count
    return Dataset._of_records(*header, b"".join(chunks)), planted_model(config), true_gaps(config)


def _planted_records(
    prefixes: Sequence[bytes], cells: Sequence[int], stream: bytes, per: int
) -> bytes:
    """The records of samples drawn into these cells, whose words are
    `stream`, `per` words a sample: a cell word, then the noise words.

    Every record is written a byte column at a time, through extended
    slices. A noise value v = (u mod 2**17) - 2**16 has the low 16 bits of
    u, and its high 16 bits are all ones when bit 16 of u is clear (v < 0),
    all zeros when it is set. So every word's little-endian value is four
    byte moves away, with no int built: bytes 0 and 1 of the word are
    copied, and byte 2 (whose bit 0 is bit 16 of u) sets bytes 2 and 3. The
    noise values are then copied into the records a byte column at a time,
    or a row at a time when that takes fewer copies.
    """
    count, head = len(cells), len(prefixes[0])
    size, row = head + 4 * (per - 1), 4 * per  # bytes per record, value bytes per sample
    heads = b"".join(map(prefixes.__getitem__, cells))
    if per == 1:
        return heads
    values = bytearray(row * count)  # the cell word's value too, never read
    values[0::4], values[1::4] = stream[0::8], stream[1::8]
    values[2::4] = values[3::4] = stream[2::8].translate(_SIGNS)

    records = bytearray(size * count)
    for j in range(head):
        records[j::size] = heads[j::head]
    if size - head <= count:
        for j in range(head, size):
            records[j::size] = values[j - head + 4 :: row]
    else:
        for i in range(count):
            records[i * size + head : (i + 1) * size] = values[i * row + 4 : (i + 1) * row]
    return bytes(records)
