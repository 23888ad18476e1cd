"""The batch prediction kernel against a plain reference loop.

The reference scores every label with fixedpoint.dot over all weights,
zeros included, and draws flips with prg.hash_u64, exactly as the model
definitions read. The kernel skips zero weights, drops saturation on rows
whose weights prove it cannot fire (over int32, or over the batch's feature
span), and hashes inline; it must agree on every input, at every dimension
from 1 to 784, on a dataset built from rows and on the same dataset decoded
from its wire records.
"""

import struct
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from faircert import fixedpoint as fx
from faircert.model import (
    BiasedModel,
    Dataset,
    LinearModel,
    LookupModel,
    Sample,
    decode_dataset,
    encode_dataset,
    predict,
    predict_batch,
)
from faircert.prg import hash_u64

ONE = fx.ONE


def both_forms(dataset):
    """The dataset as packed from its rows, and as decoded from its encoding."""
    return dataset, decode_dataset(encode_dataset(dataset))


def reference_predict(model, features, group):
    if isinstance(model, LinearModel):
        scores = [fx.dot(w, features, b) for w, b in zip(model.weights, model.biases)]
        best = 0
        for y in range(1, len(scores)):
            if scores[y] > scores[best]:
                best = y
        return best
    if isinstance(model, LookupModel):
        return model.table[(features[0] >> fx.FRACTION_BITS) % len(model.table)]
    label = reference_predict(model.inner, features, group)
    rate = model.flip_rates[group]
    draw = hash_u64(b"flip:", model.seed, struct.pack(f"<{len(features)}i", *features))
    if draw * rate.denominator < rate.numerator * 2**64:
        return (label + 1) % model.num_labels
    return label


def _value(rnd, near_limits):
    """Zero, small, one, or (when asked) close to the int32 limits."""
    kind = rnd.randrange(6 if near_limits else 4)
    if kind == 0:
        return 0
    if kind == 1:
        return rnd.randrange(-4 * ONE, 4 * ONE)
    if kind == 2:
        return rnd.choice((ONE, -ONE))
    if kind == 3:
        return rnd.randrange(fx.INT32_MIN >> 8, fx.INT32_MAX >> 8)
    if kind == 4:
        return fx.INT32_MAX - rnd.randrange(4)
    return fx.INT32_MIN + rnd.randrange(4)


@st.composite
def cases(draw):
    """A model of any architecture and a dataset it can evaluate."""
    rnd = draw(st.randoms(use_true_random=False))
    dim = draw(st.one_of(st.integers(1, 8), st.integers(9, 784)))
    labels = draw(st.integers(1, 5))
    groups = draw(st.integers(1, 3))
    sparsity = draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    near_limits = draw(st.booleans())
    # Small features let rows whose weights alone cannot rule out saturation
    # take the plain path through the batch's feature span.
    large_features = draw(st.booleans())

    def weight():
        return 0 if rnd.random() < sparsity else _value(rnd, near_limits)

    linear = LinearModel(
        dim,
        labels,
        tuple(tuple(weight() for _ in range(dim)) for _ in range(labels)),
        tuple(_value(rnd, near_limits) for _ in range(labels)),
    )
    arch = draw(st.sampled_from(("linear", "lookup", "biased")))
    if arch == "linear":
        model = linear
    elif arch == "lookup":
        table = tuple(rnd.randrange(labels) for _ in range(draw(st.integers(1, 9))))
        model = LookupModel(dim, labels, table)
    else:
        rates = tuple(
            Fraction(draw(st.integers(0, 10**6 - 1)), 10**6) for _ in range(groups)
        )
        model = BiasedModel(linear, rates, rnd.randbytes(8))
    count = draw(st.integers(1, 12))
    samples = tuple(
        Sample(
            tuple(_value(rnd, large_features) for _ in range(dim)),
            rnd.randrange(groups),
            rnd.randrange(labels),
        )
        for _ in range(count)
    )
    return model, Dataset(dim, groups, labels, samples)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_batch_kernel_matches_reference_loop(case):
    model, dataset = case
    expected = [reference_predict(model, s.features, s.group) for s in dataset.samples]
    for form in both_forms(dataset):
        assert predict_batch(model, form) == expected
    assert [predict(model, s) for s in dataset.samples] == expected


def test_unsaturated_rows_at_the_int32_edges():
    # weight ONE with bias 0 reaches exactly INT32_MAX and INT32_MIN, so the
    # row takes the plain path; with bias +-1 it must saturate instead.
    edges = ((fx.INT32_MAX,), (fx.INT32_MIN,), (0,), (-1,), (1,))
    for weight in (ONE, -ONE, 2 * ONE, ONE // 2):
        for bias in (0, 1, -1, fx.INT32_MAX, fx.INT32_MIN):
            model = LinearModel(1, 2, ((weight,), (0,)), (bias, 0))
            dataset = Dataset(1, 1, 2, tuple(Sample(x, 0, 0) for x in edges))
            expected = [reference_predict(model, x, 0) for x in edges]
            for form in both_forms(dataset):
                assert predict_batch(model, form) == expected, (weight, bias)


def test_feature_span_decides_the_plain_path():
    # Weights near 2**31 can saturate over int32 features, but not over
    # features in [-ONE, ONE]; one large feature in the batch brings the
    # saturating loop back for the whole batch.
    big = fx.INT32_MAX >> 2
    model = LinearModel(3, 2, ((big, -big, big), (2 * big, 0, 0)), (ONE, -ONE))
    small = tuple(Sample((a, b, -a), 0, 0) for a in (-ONE, 0, 5, ONE) for b in (-ONE, 7, ONE))
    # Both labels saturate at INT32_MAX on the large row and label 0 wins;
    # unsaturated, label 1 would score higher.
    large = Sample((fx.INT32_MAX, 0, 0), 0, 0)
    for rows in (small, small + (large,)):
        expected = [reference_predict(model, s.features, 0) for s in rows]
        for form in both_forms(Dataset(3, 1, 2, rows)):
            assert predict_batch(model, form) == expected


def test_zero_rate_group_is_never_flipped():
    inner = LinearModel(2, 2, ((ONE, 0), (0, ONE)), (0, 0))
    model = BiasedModel(inner, (Fraction(0), Fraction(999_999, 10**6)), b"\x01" * 8)
    rows = tuple(Sample((k * ONE, 0), g, 0) for k in range(50) for g in (0, 1))
    for form in both_forms(Dataset(2, 2, 2, rows)):
        labels = predict_batch(model, form)
        assert labels[0::2] == [predict(inner, s) for s in rows[0::2]]
        assert labels[1::2] != labels[0::2]
