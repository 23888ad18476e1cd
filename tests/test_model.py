import copy
import math
import pickle
import struct
from dataclasses import fields, replace
from fractions import Fraction
from itertools import accumulate, chain

import pytest
from conftest import mutated, returns_or_raises
from hypothesis import given, settings
from hypothesis import strategies as st

from faircert import fixedpoint as fx
from faircert import model as model_module
from faircert.augmentor import AugmentorConfig, augment_dataset
from faircert.model import (
    DATASET_MAGIC,
    BiasedModel,
    Dataset,
    DimensionMismatchError,
    IdOutOfRangeError,
    InvalidWeightsError,
    LinearModel,
    LookupModel,
    MalformedDatasetError,
    MalformedModelError,
    PlantedConfig,
    Sample,
    canonical_order,
    decode_dataset,
    deserialize_model,
    encode_dataset,
    generate_planted,
    parameter_count,
    predict,
    serialize_model,
    true_gaps,
)
from faircert.prg import CounterPrg, derive_key, threshold

ONE = fx.ONE

# Frozen canonical bytes of a 2x2 identity-ish classifier; any layout change
# must be caught loudly because certificates bind to these bytes.
GOLDEN_LINEAR_HEX = (
    "464149524d310002000000020000000000010000000000000000000000010000"
    "00000000800000"
)


def golden_linear():
    return LinearModel(2, 2, ((ONE, 0), (0, ONE)), (0, 32768))


def test_golden_linear_bytes_frozen():
    assert serialize_model(golden_linear()).hex() == GOLDEN_LINEAR_HEX


def test_linear_predict_argmax():
    model = golden_linear()
    assert predict(model, Sample((ONE, 0), 0, 0)) == 0
    assert predict(model, Sample((0, ONE), 0, 0)) == 1
    # bias 0.5 on label 1 wins when features tie
    assert predict(model, Sample((ONE, ONE), 0, 0)) == 1


def test_predict_refuses_a_feature_that_is_not_an_int32():
    linear = golden_linear()
    biased = BiasedModel(linear, (Fraction(1, 2),), b"\x01" * 8)
    for model in (linear, biased):
        for bad in (2**31, -(2**31) - 1, 0.5):
            with pytest.raises(ValueError, match="feature outside the signed 32-bit range"):
                predict(model, Sample((0, bad), 0, 0))
        assert predict(model, Sample((fx.INT32_MAX, fx.INT32_MIN), 0, 0)) in (0, 1)


def test_linear_tie_breaks_to_lowest_label():
    flat = LinearModel(2, 3, ((0, 0), (0, 0), (0, 0)), (5, 5, 5))
    assert predict(flat, Sample((ONE, ONE), 0, 0)) == 0


def test_lookup_predict_uses_integer_part():
    model = LookupModel(1, 3, (0, 1, 2))
    assert predict(model, Sample((0,), 0, 0)) == 0
    assert predict(model, Sample((ONE,), 0, 0)) == 1
    assert predict(model, Sample((2 * ONE + 123,), 0, 0)) == 2
    assert predict(model, Sample((3 * ONE,), 0, 0)) == 0  # wraps mod table size
    assert predict(model, Sample((-ONE,), 0, 0)) == 2  # floor division semantics


def test_predict_dimension_check():
    with pytest.raises(DimensionMismatchError):
        predict(golden_linear(), Sample((ONE,), 0, 0))


def test_biased_flip_is_pure_in_features():
    model = BiasedModel(golden_linear(), (Fraction(1, 2), Fraction(1, 2)), b"\x01" * 8)
    a = Sample((ONE, 0), 0, 0)
    b = Sample((0, ONE), 0, 1)
    first = predict(model, a)
    predict(model, b)
    assert predict(model, a) == first


def test_biased_flip_rate_zero_is_identity():
    model = BiasedModel(golden_linear(), (Fraction(0), Fraction(0)), b"\x02" * 8)
    for k in range(50):
        sample = Sample((k * 1000, -k * 777), 0, 0)
        assert predict(model, sample) == predict(model.inner, sample)


def test_biased_flip_cycles_labels():
    always = BiasedModel(
        LinearModel(1, 3, ((0,), (0,), (0,)), (ONE, 0, 0)),
        (Fraction(999999, 10**6),),
        b"\x03" * 8,
    )
    # rate just below 1: nearly every draw flips 0 -> 1
    flipped = sum(
        predict(always, Sample((k * ONE,), 0, 0)) == 1 for k in range(200)
    )
    assert flipped >= 198


def test_biased_group_without_rate_rejected():
    model = BiasedModel(golden_linear(), (Fraction(0),), b"\x04" * 8)
    with pytest.raises(IdOutOfRangeError):
        predict(model, Sample((0, 0), 1, 0))


def test_biased_validation():
    with pytest.raises(MalformedModelError):
        BiasedModel(LookupModel(1, 2, (0, 1)), (Fraction(0),), b"\x00" * 8)
    with pytest.raises(InvalidWeightsError):
        BiasedModel(golden_linear(), (Fraction(1),), b"\x00" * 8)
    with pytest.raises(MalformedModelError):
        BiasedModel(golden_linear(), (Fraction(0),), b"\x00" * 7)


def test_parameter_count():
    assert parameter_count(golden_linear()) == 6
    assert parameter_count(LookupModel(1, 2, (0, 1, 1))) == 3
    wrapped = BiasedModel(golden_linear(), (Fraction(0), Fraction(0)), b"\x00" * 8)
    assert parameter_count(wrapped) == 8


# --- serialization ----------------------------------------------------------

raw32 = st.integers(min_value=fx.INT32_MIN, max_value=fx.INT32_MAX)
micro_rate = st.integers(min_value=0, max_value=10**6 - 1).map(
    lambda u: Fraction(u, 10**6)
)


@st.composite
def linear_models(draw):
    dim = draw(st.integers(1, 4))
    labels = draw(st.integers(1, 4))
    weights = tuple(
        tuple(draw(raw32) for _ in range(dim)) for _ in range(labels)
    )
    biases = tuple(draw(raw32) for _ in range(labels))
    return LinearModel(dim, labels, weights, biases)


@st.composite
def lookup_models(draw):
    labels = draw(st.integers(1, 4))
    table = tuple(draw(st.lists(st.integers(0, labels - 1), min_size=1, max_size=8)))
    return LookupModel(draw(st.integers(1, 3)), labels, table)


@st.composite
def biased_models(draw):
    inner = draw(linear_models())
    rates = tuple(
        draw(micro_rate) for _ in range(draw(st.integers(1, 3)))
    )
    return BiasedModel(inner, rates, draw(st.binary(min_size=8, max_size=8)))


@given(st.one_of(linear_models(), lookup_models(), biased_models()))
def test_model_round_trip(model):
    assert deserialize_model(serialize_model(model)) == model


@given(st.one_of(linear_models(), lookup_models(), biased_models()), st.binary(max_size=80),
       st.data())
def test_deserialize_raises_only_malformed_model(model, noise, data):
    blob = serialize_model(model)
    returns_or_raises(deserialize_model, (noise, mutated(data, blob)), MalformedModelError)


def test_deserialize_rejects_malformed():
    good = serialize_model(golden_linear())
    with pytest.raises(MalformedModelError):
        deserialize_model(b"")
    with pytest.raises(MalformedModelError):
        deserialize_model(b"NOTMAGIC" + good[8:])
    with pytest.raises(MalformedModelError):
        deserialize_model(good[:-1])  # truncated params
    with pytest.raises(MalformedModelError):
        deserialize_model(good + b"\x00")  # trailing byte
    bad_arch = bytearray(good)
    bad_arch[6] = 9
    with pytest.raises(MalformedModelError):
        deserialize_model(bytes(bad_arch))


def test_deserialize_rejects_bad_lookup_entries():
    model = LookupModel(1, 2, (0, 1))
    data = bytearray(serialize_model(model))
    data[-4:] = (12345).to_bytes(4, "little")  # not label << 16
    with pytest.raises(MalformedModelError):
        deserialize_model(bytes(data))


def test_deserialize_rejects_flip_rate_of_one():
    model = BiasedModel(golden_linear(), (Fraction(0), Fraction(0)), b"\x00" * 8)
    data = bytearray(serialize_model(model))
    # first rate field sits right after the inner linear block
    offset = len(data) - 8 - 8
    data[offset : offset + 4] = (10**6).to_bytes(4, "little")
    with pytest.raises(MalformedModelError):
        deserialize_model(bytes(data))


# --- datasets ---------------------------------------------------------------


@st.composite
def datasets(draw):
    dim = draw(st.integers(1, 3))
    groups = draw(st.integers(1, 3))
    labels = draw(st.integers(1, 3))
    samples = tuple(
        Sample(
            tuple(draw(raw32) for _ in range(dim)),
            draw(st.integers(0, groups - 1)),
            draw(st.integers(0, labels - 1)),
        )
        for _ in range(draw(st.integers(0, 6)))
    )
    return Dataset(dim, groups, labels, samples)


@given(datasets())
def test_dataset_round_trip(dataset):
    blob = encode_dataset(dataset)
    decoded = decode_dataset(blob)
    assert encode_dataset(decoded) == blob
    assert decoded == dataset and dataset == decoded
    assert hash(decoded) == hash(dataset)
    assert canonical_order(decoded) == canonical_order(dataset)
    assert decoded.features == dataset.features
    assert decoded.samples == dataset.samples


def test_decoded_datasets_compare_by_their_features():
    rows = ((5, 6), (7, 8))
    base = Dataset.from_columns(2, 1, 1, rows, (0, 0), (0, 0))
    other = Dataset.from_columns(2, 1, 1, ((5, 6), (7, 9)), (0, 0), (0, 0))
    decoded = decode_dataset(encode_dataset(base))
    assert decoded == decode_dataset(encode_dataset(base))
    assert decoded != other and other != decoded
    assert decoded != decode_dataset(encode_dataset(other))
    assert "features" not in vars(decoded)  # compared without building rows


def test_decoded_dataset_keeps_no_view_of_a_mutable_buffer():
    dataset = Dataset(2, 1, 1, (Sample((5, 6), 0, 0),))
    buffer = bytearray(encode_dataset(dataset))
    decoded = decode_dataset(memoryview(buffer))
    buffer[-1] ^= 1
    buffer.clear()  # no export pins the buffer
    assert decoded == dataset
    assert pickle.loads(pickle.dumps(decoded)) == dataset
    assert copy.deepcopy(decoded) == dataset


def test_dataset_decode_rejects_malformed():
    data = encode_dataset(
        Dataset(1, 1, 1, (Sample((5,), 0, 0),))
    )
    with pytest.raises(MalformedDatasetError):
        decode_dataset(data[:-1])
    with pytest.raises(MalformedDatasetError):
        decode_dataset(data + b"\x00")
    with pytest.raises(MalformedDatasetError):
        decode_dataset(b"XXXXX" + data[5:])


@given(st.binary(max_size=120))
def test_dataset_decode_arbitrary_bytes(data):
    returns_or_raises(decode_dataset, (DATASET_MAGIC + data, data), MalformedDatasetError)


@given(datasets(), st.integers(0, 2**32 - 1), st.data())
def test_dataset_decode_mutated_bytes(dataset, count, data):
    blob = encode_dataset(dataset)
    recounted = blob[:17] + count.to_bytes(4, "little") + blob[21:]
    blobs = (mutated(data, blob), recounted, mutated(data, recounted))
    returns_or_raises(decode_dataset, blobs, MalformedDatasetError)


def test_dataset_decode_checks_count_before_parsing():
    # A header that declares 2**32 - 1 records of 2**32 - 1 features each
    # over an empty payload is refused from the header alone.
    header = DATASET_MAGIC + struct.pack("<IIII", 2**32 - 1, 1, 1, 2**32 - 1)
    with pytest.raises(MalformedDatasetError, match="truncated"):
        decode_dataset(header)
    one = encode_dataset(Dataset(2, 1, 1, (Sample((5, 6), 0, 0),)))
    with pytest.raises(MalformedDatasetError, match="truncated"):
        decode_dataset(one[:17] + struct.pack("<I", 2) + one[21:])
    with pytest.raises(MalformedDatasetError, match="trailing"):
        decode_dataset(one[:17] + struct.pack("<I", 0) + one[21:])


def test_dataset_decode_checks_group_and_label_ranges():
    good = encode_dataset(Dataset(1, 2, 3, (Sample((7,), 1, 2), Sample((8,), 0, 0))))
    record = len(good) - 8  # offset of the second record
    for field, value in ((0, 2), (2, 3)):
        bad = bytearray(good)
        bad[record + field : record + field + 2] = struct.pack("<H", value)
        with pytest.raises(MalformedDatasetError, match="outside"):
            decode_dataset(bytes(bad))


def test_dataset_columns_and_samples_agree():
    samples = (Sample((1, 2), 1, 0), Sample((3, 4), 0, 1))
    built = Dataset(2, 2, 2, samples)
    assert built.features == ((1, 2), (3, 4))
    assert built.groups == (1, 0)
    assert built.labels == (0, 1)
    from_columns = Dataset.from_columns(2, 2, 2, built.features, built.groups, built.labels)
    assert from_columns == built
    assert from_columns.samples == samples
    assert hash(from_columns) == hash(built)
    with pytest.raises(ValueError):
        Dataset.from_columns(2, 2, 2, built.features, built.groups, (0,))


def ids_in_records(dataset):
    """The u16 group and label ids at bytes 0 and 2 of every record."""
    heads = struct.iter_unpack(f"<HH{4 * dataset.dimension}x", dataset.records)
    return tuple(zip(*heads))


def test_ids_are_read_from_the_record_block():
    samples = (Sample((1, 2), 1, 0), Sample((3, 4), 0, 2), Sample((5, 6), 1, 1))
    built = Dataset(2, 2, 3, samples)
    config = replace(quarter_config(), noise_dims=3)
    aug = AugmentorConfig(b"\x05" * 8, ONE // 4, Fraction(1, 5), Fraction(1, 2))
    ordered = canonical_order(built)
    sets = (
        built,
        Dataset.from_columns(2, 2, 3, built.features, built.groups, built.labels),
        decode_dataset(encode_dataset(built)),
        generate_planted(config, 50)[0],
        generate_planted(config, 0, group_counts=(20, 30))[0],
        ordered,
        augment_dataset(aug, generate_planted(config, 40)[0]),
    )
    assert [f.name for f in fields(Dataset)] == ["dimension", "num_groups", "num_labels", "records"]
    assert ordered.groups == (0, 1, 1)
    for dataset in sets:
        assert (dataset.groups, dataset.labels) == ids_in_records(dataset)


def test_dataset_validation():
    with pytest.raises(IdOutOfRangeError):
        Dataset(1, 1, 1, (Sample((0,), 1, 0),))
    with pytest.raises(IdOutOfRangeError):
        Dataset(1, 1, 1, (Sample((0,), 0, 1),))
    with pytest.raises(DimensionMismatchError):
        Dataset(2, 1, 1, (Sample((0,), 0, 0),))
    with pytest.raises(ValueError):
        Dataset(1, 1, 1, (Sample((2**31,), 0, 0),))
    # Each bad sample is refused by both constructors with its documented
    # error, before any encoding: ids must fit the wire's u16 fields even
    # when the declared count of groups or labels is larger.
    wire = r"65536 outside \[0, 65536\)"
    int32 = "feature outside the signed 32-bit range"
    cases = (
        (IdOutOfRangeError, "group " + wire, (1, 70000, 1), Sample((0,), 65536, 0)),
        (IdOutOfRangeError, "label " + wire, (1, 1, 70000), Sample((0,), 0, 65536)),
        (DimensionMismatchError, "sample has 1 features, expected 2", (2, 1, 1), Sample((0,), 0, 0)),
        (DimensionMismatchError, "has 3 features, expected 2", (2, 1, 1), Sample((0,) * 3, 0, 0)),
        (ValueError, int32, (1, 1, 1), Sample((2**31,), 0, 0)),
        (ValueError, int32, (2, 1, 1), Sample((0, -(2**31) - 1), 0, 0)),
    )
    for error, message, (dim, groups, labels), bad in cases:
        good = Sample((0,) * dim, 0, 0)
        with pytest.raises(error, match=message):
            Dataset(dim, groups, labels, (good, bad))
        with pytest.raises(error, match=message):
            Dataset.from_columns(
                dim, groups, labels, (good.features, bad.features), (0, bad.group), (0, bad.label)
            )
    wide = Dataset(1, 70000, 1, (Sample((0,), 65535, 0),))
    assert decode_dataset(encode_dataset(wide)) == wide


@given(datasets())
def test_canonical_order_matches_a_stable_sort_of_the_samples(dataset):
    ordered = canonical_order(dataset)
    reference = Dataset(
        dataset.dimension,
        dataset.num_groups,
        dataset.num_labels,
        sorted(dataset.samples, key=lambda s: s.group),
    )
    assert ordered == reference
    assert encode_dataset(ordered) == encode_dataset(reference)
    assert canonical_order(decode_dataset(encode_dataset(dataset))) == reference


def test_canonical_order_stable_by_group():
    d = Dataset(
        1,
        2,
        2,
        (
            Sample((1,), 1, 0),
            Sample((2,), 0, 1),
            Sample((3,), 1, 1),
            Sample((4,), 0, 0),
        ),
    )
    ordered = canonical_order(d).samples
    assert [s.group for s in ordered] == [0, 0, 1, 1]
    assert [s.features[0] for s in ordered] == [2, 4, 1, 3]  # stable within group


# --- planted generator -------------------------------------------------------


def quarter_config(rates=(Fraction(0), Fraction(1, 5)), seed=b"\x11" * 8):
    return PlantedConfig(
        cell_weights=(
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 4)),
        ),
        error_rates=rates,
        seed=seed,
    )


def test_planted_config_validation():
    with pytest.raises(InvalidWeightsError):
        PlantedConfig(
            cell_weights=((Fraction(1, 2), Fraction(1, 4)),),
            error_rates=(Fraction(0),),
            seed=b"\x00" * 8,
        )
    with pytest.raises(InvalidWeightsError):
        PlantedConfig(
            cell_weights=((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(0))),
            error_rates=(Fraction(0), Fraction(0)),
            seed=b"\x00" * 8,
        )
    with pytest.raises(InvalidWeightsError):
        PlantedConfig(
            cell_weights=((Fraction(1, 2), Fraction(1, 2)),),
            error_rates=(Fraction(1),),
            seed=b"\x00" * 8,
        )


def test_planted_config_json_round_trip():
    cfg = quarter_config()
    assert PlantedConfig.from_json(cfg.to_json()) == cfg


def test_true_gaps_balanced_labels():
    gaps = true_gaps(quarter_config())
    assert gaps.ore == Fraction(1, 5)
    assert gaps.eo == Fraction(1, 5)
    assert gaps.dp == Fraction(0)  # balanced labels hide the flips from DP


def test_true_gaps_asymmetric():
    cfg = PlantedConfig(
        cell_weights=(
            (Fraction(1, 2), Fraction(1, 4)),
            (Fraction(1, 8), Fraction(1, 8)),
        ),
        error_rates=(Fraction(0), Fraction(1, 4)),
        seed=b"\x00" * 8,
    )
    gaps = true_gaps(cfg)
    assert gaps.ore == Fraction(1, 4)
    assert gaps.eo == Fraction(1, 4)
    assert gaps.dp == Fraction(1, 6)


def test_planted_inner_decodes_exactly():
    cfg = quarter_config(rates=(Fraction(0), Fraction(0)))
    dataset, model, _ = generate_planted(cfg, 500)
    for sample in dataset.samples:
        assert predict(model.inner, sample) == sample.label
        assert predict(model, sample) == sample.label  # zero rates: no flips


def test_generate_planted_deterministic():
    a = generate_planted(quarter_config(), 200)[0]
    b = generate_planted(quarter_config(), 200)[0]
    assert a == b


def test_generate_planted_distinct_seeds_differ():
    a = generate_planted(quarter_config(seed=b"\x01" * 8), 50)[0]
    b = generate_planted(quarter_config(seed=b"\x02" * 8), 50)[0]
    assert a != b


def test_group_counts_exact():
    dataset, _, _ = generate_planted(quarter_config(), 0, group_counts=(137, 61))
    per_group = [0, 0]
    for s in dataset.samples:
        per_group[s.group] += 1
    assert per_group == [137, 61]


def test_generate_rejects_bad_group_counts():
    with pytest.raises(ValueError):
        generate_planted(quarter_config(), 0, group_counts=(10,))


def test_generate_refuses_a_negative_size_before_hashing(monkeypatch):
    def no_stream(*args):
        raise AssertionError("the stream was hashed")

    monkeypatch.setattr(model_module, "batches", no_stream)
    with pytest.raises(ValueError, match="m must be nonnegative"):
        generate_planted(quarter_config(), -1)
    with pytest.raises(ValueError, match="group counts must be nonnegative"):
        generate_planted(quarter_config(), 0, group_counts=(-5, 10))


def reference_planted(config, m, group_counts):
    """generate_planted as a per-sample loop over CounterPrg: one u64 for the
    cell, compared with the integer thresholds of the cumulative weights,
    then noise_dims draws, each u % 2**17 - ONE."""
    prg = CounterPrg(derive_key(config.seed, "data"))
    labels = config.num_labels

    def sample(cumulative, group_of):
        u = prg.u64()
        cell = next(c for c, acc in enumerate(cumulative) if u < threshold(acc))
        group, label = group_of(cell)
        one_hot = tuple(ONE if j == label else -ONE for j in range(labels))
        noise = tuple(prg.u64() % (2 * ONE) - ONE for _ in range(config.noise_dims))
        return Sample(one_hot + noise, group, label)

    if group_counts is None:
        cumulative = list(accumulate(chain.from_iterable(config.cell_weights)))
        samples = [sample(cumulative, lambda c: divmod(c, labels)) for _ in range(m)]
    else:
        samples = []
        for g, count in enumerate(group_counts):
            row = config.cell_weights[g]
            cumulative = [acc / sum(row) for acc in accumulate(row)]
            samples += [sample(cumulative, lambda c: (g, c)) for _ in range(count)]
    return Dataset(config.dimension, config.num_groups, labels, samples)


@st.composite
def planted_cases(draw):
    """A config with 1-4 groups x 1-4 labels, zero-weight cells allowed, and
    either an i.i.d. size or per-group counts that may be zero."""
    groups, labels = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = st.lists(st.integers(0, 3), min_size=labels, max_size=labels)
    grid = [draw(weights) for _ in range(groups)]
    for row in grid:
        row[draw(st.integers(0, labels - 1))] += 1  # every group carries mass
    total = sum(map(sum, grid))
    config = PlantedConfig(
        cell_weights=tuple(tuple(Fraction(w, total) for w in row) for row in grid),
        error_rates=(Fraction(0),) * groups,
        seed=draw(st.binary(min_size=8, max_size=8)),
        noise_dims=draw(st.sampled_from((0, 1, 5, 774))),
    )
    if draw(st.booleans()):
        return config, draw(st.integers(0, 40)), None
    counts = draw(st.lists(st.integers(0, 15), min_size=groups, max_size=groups))
    return config, 0, tuple(counts)


@settings(max_examples=80, deadline=None)
@given(planted_cases(), st.sampled_from((32, 512, model_module._BATCH_BYTES)))
def test_generate_planted_matches_a_per_sample_loop(case, batch_bytes):
    # Small batches put batch edges inside groups, and make the noise go
    # through both the column and the row copy.
    config, m, group_counts = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "_BATCH_BYTES", batch_bytes)
        dataset = generate_planted(config, m, group_counts=group_counts)[0]
    expected = reference_planted(config, m, group_counts)
    assert (dataset.groups, dataset.labels) == (expected.groups, expected.labels)
    assert dataset.records == expected.records


@pytest.mark.parametrize("batch_bytes", [16, 100, 3000, 4096])
def test_planted_batch_edges_inside_stream_blocks(batch_bytes):
    # 700 samples of 4 words span 5.5 stream blocks of 512 words; these batch
    # sizes put batch edges on, next to and inside blocks.
    config = replace(quarter_config(seed=b"\x3c" * 8), noise_dims=3)
    expected = reference_planted(config, 700, None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "_BATCH_BYTES", batch_bytes)
        dataset = generate_planted(config, 700)[0]
    assert (dataset.groups, dataset.records) == (expected.groups, expected.records)


def test_planted_cell_frequencies_chi_squared():
    cfg = PlantedConfig(
        cell_weights=(
            (Fraction(1, 8), Fraction(3, 8)),
            (Fraction(3, 8), Fraction(1, 8)),
        ),
        error_rates=(Fraction(0), Fraction(0)),
        seed=b"\x21" * 8,
    )
    m = 8000
    dataset, _, _ = generate_planted(cfg, m)
    observed = [[0, 0], [0, 0]]
    for s in dataset.samples:
        observed[s.group][s.label] += 1
    expected = [[m / 8, 3 * m / 8], [3 * m / 8, m / 8]]
    chi2 = sum(
        (observed[g][y] - expected[g][y]) ** 2 / expected[g][y]
        for g in range(2)
        for y in range(2)
    )
    # 99.9th percentile of chi-squared with 3 degrees of freedom
    assert chi2 < 16.27


def test_planted_flip_rate_converges():
    cfg = quarter_config(rates=(Fraction(0), Fraction(1, 5)), seed=b"\x31" * 8)
    dataset, model, _ = generate_planted(cfg, 0, group_counts=(2000, 2000))
    errors = [0, 0]
    totals = [0, 0]
    for s in dataset.samples:
        totals[s.group] += 1
        if predict(model, s) != s.label:
            errors[s.group] += 1
    assert errors[0] == 0
    rate = errors[1] / totals[1]
    sigma = math.sqrt(0.2 * 0.8 / totals[1])
    assert abs(rate - 0.2) < 3 * sigma


def test_noise_coordinates_stay_in_range():
    dataset, _, _ = generate_planted(quarter_config(), 300)
    for s in dataset.samples:
        for v in s.features[2:]:
            assert -ONE <= v < ONE
