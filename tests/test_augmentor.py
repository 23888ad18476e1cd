import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from conftest import restated_words
from hypothesis import strategies as st

from faircert import augmentor as augmentor_module
from faircert import fixedpoint as fx
from faircert import prg as prg_module
from faircert.augmentor import (
    AugmentorConfig,
    MalformedConfigError,
    augment,
    augment_dataset,
)
from faircert.model import Dataset, Sample
from faircert.normal_table import QUANTILES

SEED = b"\xaa" * 8


def config_of(sigma=0, mask="0", invoke="1", degree="1", seed=SEED):
    return AugmentorConfig(
        master_seed=seed,
        noise_sigma=sigma,
        mask_prob=Fraction(mask),
        invoke_prob=Fraction(invoke),
        degree=Fraction(degree),
    )


def sample_of(*features, group=0, label=0):
    return Sample(tuple(features), group, label)


def test_identity_config_is_noop():
    cfg = config_of()
    assert cfg.is_identity()
    s = sample_of(123, -456, 789)
    assert augment(cfg, s, 0) == s
    assert augment(cfg, s, 17) == s


def test_zero_invoke_prob_is_noop():
    cfg = config_of(sigma=fx.ONE, mask="1", invoke="0")
    s = sample_of(1000, 2000)
    for idx in range(20):
        assert augment(cfg, s, idx) == s


def test_degree_zero_disables_augmentation():
    cfg = config_of(sigma=fx.ONE, mask="1", invoke="1", degree="0")
    assert cfg.effective_invoke_prob == 0
    s = sample_of(1000, 2000)
    for idx in range(20):
        assert augment(cfg, s, idx) == s


def test_full_mask_zeroes_features():
    cfg = config_of(mask="1")
    s = sample_of(123, -999, 2**20)
    out = augment(cfg, s, 0)
    assert out.features == (0, 0, 0)


def test_group_and_label_preserved():
    cfg = config_of(sigma=3 * fx.ONE, mask="0.5", invoke="1")
    s = sample_of(5, 6, 7, group=1, label=1)
    out = augment(cfg, s, 4)
    assert (out.group, out.label) == (1, 1)
    assert len(out.features) == 3


def test_determinism_in_config_sample_index():
    cfg = config_of(sigma=fx.ONE, mask="0.25")
    s = sample_of(fx.ONE, -fx.ONE, 0)
    assert augment(cfg, s, 9) == augment(cfg, s, 9)


def test_indices_get_fresh_randomness():
    cfg = config_of(sigma=fx.ONE)
    s = sample_of(0, 0, 0, 0)
    outs = {augment(cfg, s, i).features for i in range(40)}
    assert len(outs) > 35  # noise draws almost never collide across indices


def test_distinct_seeds_diverge():
    base = sample_of(0, 0, 0, 0)
    a = augment(config_of(sigma=fx.ONE, seed=b"\x01" * 8), base, 0)
    outs = [
        augment(config_of(sigma=fx.ONE, seed=bytes([k]) * 8), base, 0)
        for k in range(2, 102)
    ]
    same = sum(out.features == a.features for out in outs)
    assert same <= 1


def test_noise_is_centered_and_scaled():
    sigma = 2 * fx.ONE
    cfg = config_of(sigma=sigma)
    s = sample_of(0)
    offsets = [augment(cfg, s, i).features[0] for i in range(4000)]
    mean = sum(offsets) / len(offsets)
    var = sum((o - mean) ** 2 for o in offsets) / len(offsets)
    assert abs(mean) < 4 * sigma / len(offsets) ** 0.5
    assert 0.9 < var / sigma**2 < 1.1


def test_mask_rate_matches_probability():
    cfg = config_of(mask="0.25")
    s = sample_of(*([fx.ONE] * 10))
    zeroed = 0
    total = 0
    for i in range(2000):
        out = augment(cfg, s, i)
        zeroed += sum(1 for v in out.features if v == 0)
        total += 10
    rate = zeroed / total
    assert abs(rate - 0.25) < 0.01


def test_invoke_prob_gates_noise():
    cfg = config_of(sigma=fx.ONE, invoke="0.5")
    s = sample_of(0, 0, 0, 0, 0, 0)
    untouched = sum(
        augment(cfg, s, i).features == s.features for i in range(2000)
    )
    # a skipped invocation leaves all six zeros; a taken one almost never does
    assert abs(untouched / 2000 - 0.5) < 0.05


def test_saturating_addition():
    cfg = config_of(sigma=fx.INT32_MAX)
    s = sample_of(fx.INT32_MAX - 5, fx.INT32_MIN + 5)
    for i in range(10):
        out = augment(cfg, s, i)
        for v in out.features:
            assert fx.INT32_MIN <= v <= fx.INT32_MAX


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        augment(config_of(), sample_of(0), -1)


def test_augment_dataset_positional():
    cfg = config_of(sigma=fx.ONE)
    samples = tuple(sample_of(0, 0, group=0, label=0) for _ in range(5))
    dataset = Dataset(2, 1, 1, samples)
    out = augment_dataset(cfg, dataset)
    for i, s in enumerate(dataset.samples):
        assert out.samples[i] == augment(cfg, s, i)


def test_config_codec_round_trip():
    cfg = config_of(sigma=12345, mask="0.125", invoke="0.75", degree="0.5")
    assert AugmentorConfig.decode(cfg.encode()) == cfg
    assert AugmentorConfig.decode_public(cfg.encode_public(), SEED) == cfg
    assert len(cfg.encode_public()) == 16
    assert len(cfg.encode()) == 24


def test_config_codec_rejects_bad_lengths():
    with pytest.raises(MalformedConfigError):
        AugmentorConfig.decode(b"\x00" * 23)
    with pytest.raises(MalformedConfigError):
        AugmentorConfig.decode_public(b"\x00" * 15, SEED)
    with pytest.raises(MalformedConfigError):
        AugmentorConfig(master_seed=b"\x00" * 7)


def test_config_validation():
    with pytest.raises(ValueError):
        config_of(sigma=-1)
    with pytest.raises(ValueError):
        config_of(mask="2")
    with pytest.raises(ValueError):
        AugmentorConfig(master_seed=SEED, invoke_prob=Fraction(1, 3))


@given(
    st.binary(min_size=8, max_size=8),
    st.integers(min_value=0, max_value=fx.INT32_MAX),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_codec_round_trip_property(seed, sigma, mask, invoke, degree):
    cfg = AugmentorConfig(
        master_seed=seed,
        noise_sigma=sigma,
        mask_prob=Fraction(mask, 10**6),
        invoke_prob=Fraction(invoke, 10**6),
        degree=Fraction(degree, 10**6),
    )
    assert AugmentorConfig.decode(cfg.encode()) == cfg


@settings(max_examples=60)
@given(
    st.lists(
        st.integers(min_value=fx.INT32_MIN, max_value=fx.INT32_MAX),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
)
def test_shape_laws_property(features, index, group, label):
    cfg = config_of(sigma=fx.ONE // 2, mask="0.5", invoke="0.5")
    s = Sample(tuple(features), group, label)
    out = augment(cfg, s, index)
    assert len(out.features) == len(s.features)
    assert out.group == group and out.label == label
    assert all(fx.INT32_MIN <= v <= fx.INT32_MAX for v in out.features)


# --- augment_dataset against a per-sample reference loop --------------------------


def _reference_augment(cfg, features, index):
    """One sample by the definition: its 2 + 2d words from word
    index * (2 + 2d) on of the seed's stream (restated with hashlib), exact
    Fraction comparisons, a table lookup rounded in integers, then
    saturation."""
    d = len(features)
    words = restated_words(cfg.master_seed, index * (2 + 2 * d), 2 + 2 * d)
    invoke = cfg.invoke_prob * cfg.degree
    out = list(features)
    if cfg.noise_sigma > 0 and Fraction(words[0], 2**64) < invoke:
        steps = [(QUANTILES[u >> 52] * cfg.noise_sigma + 2**15) // 2**16 for u in words[2 : 2 + d]]
        out = [fx.saturate(v + step) for v, step in zip(out, steps)]
    if cfg.mask_prob > 0 and Fraction(words[1], 2**64) < invoke:
        out = [0 if Fraction(u, 2**64) < cfg.mask_prob else v for v, u in zip(out, words[2 + d :])]
    return tuple(out)


micro = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(min_value=0, max_value=10**6).map(lambda k: Fraction(k, 10**6)),
)


@st.composite
def feature_rows(draw):
    dim = draw(st.integers(min_value=1, max_value=9))
    value = st.one_of(
        st.integers(min_value=-4 * fx.ONE, max_value=4 * fx.ONE),
        st.integers(min_value=fx.INT32_MIN, max_value=fx.INT32_MAX),
    )
    rows = draw(st.lists(st.tuples(*[value] * dim), min_size=1, max_size=12))
    return dim, rows


@settings(max_examples=150, deadline=None)
@given(
    st.binary(min_size=8, max_size=8),
    st.one_of(
        st.sampled_from([0, 1, fx.ONE, fx.INT32_MAX]),
        st.integers(min_value=0, max_value=4 * fx.ONE),
        st.integers(min_value=0, max_value=fx.INT32_MAX),
    ),
    micro,
    micro,
    micro,
    feature_rows(),
    st.sampled_from((32, 512, augmentor_module._BATCH_BYTES)),
)
def test_augment_dataset_matches_the_reference_loop(
    seed, sigma, mask, invoke, degree, shape, batch_bytes
):
    # Small batches put batch edges between the rows, so later batches start
    # at a nonzero sample index.
    dim, rows = shape
    cfg = AugmentorConfig(seed, sigma, mask, invoke, degree)
    dataset = Dataset.from_columns(dim, 1, 1, rows, [0] * len(rows), [0] * len(rows))
    expected = [_reference_augment(cfg, row, i) for i, row in enumerate(rows)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(augmentor_module, "_BATCH_BYTES", batch_bytes)
        assert list(augment_dataset(cfg, dataset).features) == expected
    assert augment(cfg, Sample(rows[-1], 0, 0), len(rows) - 1).features == expected[-1]
    far = 2**40 + len(rows)  # past every batch of any set that fits in memory
    assert augment(cfg, Sample(rows[0], 0, 0), far).features == _reference_augment(cfg, rows[0], far)


def test_augmentation_calls_no_math_function(monkeypatch):
    # The noise must not depend on how a platform's C library rounds: every
    # math function a Gaussian sampler could use raises, wherever it is bound.
    def refuse(*args):
        raise AssertionError("the augmentor called a math function")

    for module in (math, augmentor_module, prg_module, fx):
        for name in ("log", "sqrt", "sin", "cos", "exp"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    cfg = config_of(sigma=3 * fx.ONE, mask="1/4", invoke="3/4")
    rows = [(v, -v, 7 * v) for v in range(-300, 300)]
    dataset = Dataset.from_columns(3, 1, 1, rows, [0] * len(rows), [0] * len(rows))
    expected = [_reference_augment(cfg, row, i) for i, row in enumerate(rows)]
    assert list(augment_dataset(cfg, dataset).features) == expected
    assert sum(out != row for out, row in zip(expected, rows)) > 400


@pytest.mark.parametrize("batch_bytes", [8, 100, 600, 4096, 5000])
def test_batch_size_moves_no_byte(batch_bytes):
    # 400 samples of 22 words span 17 stream blocks, so these batch sizes put
    # batch edges on, next to and inside blocks.
    cfg = config_of(sigma=fx.ONE // 3, mask="1/5", invoke="3/4")
    rows = [(v, -v, 3 * v, 0, 7, -v // 2, v, v % 5, -9, 2 * v) for v in range(-200, 200)]
    dataset = Dataset.from_columns(10, 1, 1, rows, [0] * len(rows), [0] * len(rows))
    expected = augment_dataset(cfg, dataset).records
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(augmentor_module, "_BATCH_BYTES", batch_bytes)
        assert augment_dataset(cfg, dataset).records == expected
    assert [augment(cfg, Sample(rows[i], 0, 0), i).features for i in (0, 233, 399)] == [
        _reference_augment(cfg, rows[i], i) for i in (0, 233, 399)
    ]


def test_masking_moves_no_noise_word():
    # A sample's mask words are reserved whether or not masking is on, so the
    # masked output is the unmasked one with some coordinates zeroed.
    rows = [(v + 1, 5 - v, 7 * v + 3) for v in range(0, 3000, 7)]
    dataset = Dataset.from_columns(3, 1, 1, rows, [0] * len(rows), [0] * len(rows))
    noised = augment_dataset(config_of(sigma=2 * fx.ONE, invoke="1/2"), dataset).features
    masked = augment_dataset(config_of(sigma=2 * fx.ONE, mask="1/4", invoke="1/2"), dataset)
    pairs = [(a, b) for row_a, row_b in zip(noised, masked.features) for a, b in zip(row_a, row_b)]
    assert all(b in (a, 0) for a, b in pairs)
    assert sum(a != b for a, b in pairs) > 50  # masking did happen
    assert sum(a == b != row for (a, b), row in zip(pairs, (v for r in rows for v in r))) > 200


# --- the pinned quantile table ----------------------------------------------------


def _rebuild_quantiles(bins=4096, digits=40):
    """round(2**16 * Phi^-1((k + 1/2) / bins)) for the upper half of the bins,
    by Newton's method on Phi(z) - 1/2 = phi(z) * sum z**(2n+1) / (2n+1)!!,
    in decimal arithmetic: exp and square root are correctly rounded in
    software, and pi comes from a series, so no C math library is involved."""
    with localcontext() as ctx:
        ctx.prec = digits + 2
        # pi by the series of the decimal module's documentation recipe
        last, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = t * n / d
            s += t
        root_two_pi = (2 * s).sqrt()
        tiny = Decimal(10) ** -(digits - 8)
        z, upper = Decimal(0), []
        for k in range(bins // 2):
            target = Decimal(2 * k + 1) / (2 * bins)
            while True:
                z2, term, total, n = z * z, z, z, 1
                while term and abs(term) > tiny * abs(total):
                    term = term * z2 / (2 * n + 1)
                    total += term
                    n += 1
                phi = (-z2 / 2).exp() / root_two_pi
                step = total - target / phi
                z -= step
                if abs(step) < tiny:
                    break
            scaled = z * 2**16
            nearest = scaled.to_integral_value(ROUND_HALF_EVEN)
            assert abs(abs(scaled - nearest) - Decimal(1) / 2) > Decimal(10) ** -20  # no tie
            upper.append(int(nearest))
    return upper


def test_quantile_table_matches_its_decimal_rebuild():
    upper = _rebuild_quantiles()
    assert list(QUANTILES[2048:]) == upper
    assert all(QUANTILES[4095 - k] == -QUANTILES[k] for k in range(4096))
    assert all(a < b for a, b in zip(QUANTILES, QUANTILES[1:]))
    assert QUANTILES[-1] == 240408  # z = 3.6683: the truncation
    variance = Fraction(sum(q * q for q in QUANTILES), 4096 * 2**32)
    assert Fraction(999, 1000) <= variance <= 1
