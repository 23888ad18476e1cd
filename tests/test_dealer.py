import hashlib
import random
import struct
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import mutated, restated_rule, returns_or_raises
from hypothesis import given, settings
from hypothesis import strategies as st

from faircert import dealer
from faircert import fixedpoint as fx
from faircert.augmentor import AugmentorConfig, augment_dataset
from faircert.crypto import merkle_root
from faircert.dealer import (
    ABORT_CIRCUIT_MISMATCH,
    ABORT_DIMENSION_MISMATCH,
    ABORT_EMPTY_CELL,
    ABORT_GROUP_MISMATCH,
    ABORT_LABEL_MISMATCH,
    ABORT_MALFORMED_MODEL,
    ABORT_SIZE_MISMATCH,
    CIRCUIT_CERT,
    CIRCUIT_INFER,
    PARTY_CHECKER,
    PARTY_SERVER,
    FscSession,
    certification_decision,
    decode_test_bundle,
    encode_query,
    encode_test_bundle,
    estimate_gates,
    estimate_gates_for_model,
    query_dimension,
)
from faircert.fairness import (
    REASON_GAP_TOO_LARGE,
    REASON_INSUFFICIENT_SAMPLES,
    EmptyCellError,
    FairnessMetric,
    FairnessSpec,
    build_risk_table,
    decide,
    empirical_gap,
    micro_fraction,
)
from faircert.model import (
    BiasedModel,
    Dataset,
    MalformedDatasetError,
    LinearModel,
    LookupModel,
    PlantedConfig,
    Sample,
    generate_planted,
    predict,
    serialize_model,
)

CHEAP_SPEC = FairnessSpec(
    metric=FairnessMetric.ORE, epsilon=Fraction(1, 2), delta=Fraction(1, 5)
)
# smallest passing per-group size for CHEAP_SPEC at gap 0: ceil(8 ln 40)
CHEAP_REQUIRED = 30


def fair_config(seed=b"\x41" * 8):
    return PlantedConfig(
        cell_weights=(
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 4)),
        ),
        error_rates=(Fraction(0), Fraction(0)),
        seed=seed,
    )


def planted_inputs(group_counts=(CHEAP_REQUIRED, CHEAP_REQUIRED), aug=None):
    """With aug, the bundle's spec is augmented at alpha = epsilon."""
    spec = CHEAP_SPEC if aug is None else replace(CHEAP_SPEC, alpha=CHEAP_SPEC.epsilon)
    dataset, model, _ = generate_planted(fair_config(), 0, group_counts=group_counts)
    return serialize_model(model), encode_test_bundle(spec, dataset, aug), dataset, model


def run_cert(model_bytes, bundle):
    session = FscSession()
    session.input(PARTY_SERVER, model_bytes)
    session.input(PARTY_CHECKER, bundle)
    session.compute(PARTY_SERVER, CIRCUIT_CERT)
    session.compute(PARTY_CHECKER, CIRCUIT_CERT)
    return session


# --- bundle and query codecs -------------------------------------------------


def test_bundle_round_trip_private():
    _, bundle, dataset, _ = planted_inputs()
    spec, decoded, aug = decode_test_bundle(bundle)
    assert spec == CHEAP_SPEC
    assert decoded == dataset
    assert aug is None


def test_bundle_round_trip_augmented():
    aug = AugmentorConfig(
        master_seed=b"\x55" * 8,
        noise_sigma=fx.ONE // 4,
        mask_prob=Fraction(1, 10),
        invoke_prob=Fraction(1),
    )
    _, bundle, dataset, _ = planted_inputs(aug=aug)
    spec, decoded, got = decode_test_bundle(bundle)
    assert got == aug
    assert decoded == dataset


def test_bundle_refuses_a_block_that_disagrees_with_its_spec():
    from faircert.crypto import encode_fairness_spec
    from faircert.model import MalformedDatasetError, encode_dataset

    with pytest.raises(MalformedDatasetError):
        decode_test_bundle(encode_fairness_spec(CHEAP_SPEC))
    model_bytes, _, dataset, _ = planted_inputs()
    # A config block after a private spec, and none after an augmented one:
    # each is read as a dataset that does not parse, and the session aborts.
    aug = AugmentorConfig(master_seed=b"\x55" * 8)
    augmented = replace(CHEAP_SPEC, alpha=CHEAP_SPEC.epsilon)
    for spec, block in ((CHEAP_SPEC, aug.encode()), (augmented, b"")):
        mismatched = encode_fairness_spec(spec) + block + encode_dataset(dataset)
        with pytest.raises(MalformedDatasetError):
            decode_test_bundle(mismatched)
        assert abort_reason_of(model_bytes, mismatched) == ABORT_SIZE_MISMATCH
    # The encoder refuses a config that disagrees with the spec, either way round.
    with pytest.raises(ValueError, match="takes no augmentor config"):
        encode_test_bundle(CHEAP_SPEC, dataset, aug)
    with pytest.raises(ValueError, match="needs an augmentor config"):
        encode_test_bundle(augmented, dataset)


@st.composite
def bundles(draw):
    spec = FairnessSpec(
        metric=draw(st.sampled_from(list(FairnessMetric))),
        epsilon=Fraction(1, 2),
        delta=Fraction(1, 5),
        alpha=draw(st.sampled_from((None, Fraction(1, 4)))),
    )
    aug = None
    if spec.augmented:
        aug = AugmentorConfig(master_seed=draw(st.binary(min_size=8, max_size=8)))
    dim = draw(st.integers(1, 3))
    groups, labels = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    samples = draw(
        st.lists(
            st.builds(
                Sample,
                st.tuples(*[st.integers(fx.INT32_MIN, fx.INT32_MAX)] * dim),
                st.integers(0, groups - 1),
                st.integers(0, labels - 1),
            ),
            max_size=5,
        )
    )
    return encode_test_bundle(spec, Dataset(dim, groups, labels, samples), aug)


@given(st.binary(max_size=200))
def test_bundle_decode_arbitrary_bytes(data):
    returns_or_raises(decode_test_bundle, (data,), MalformedDatasetError)


@given(bundles(), st.data())
def test_bundle_decode_mutated_bytes(bundle, data):
    returns_or_raises(decode_test_bundle, (mutated(data, bundle),), MalformedDatasetError)


def unpack_query(data):
    """The features a well-formed query carries."""
    return struct.unpack_from(f"<{query_dimension(data)}i", data, 4)


def test_query_round_trip():
    features = (0, fx.ONE, -fx.ONE, 2**30)
    assert unpack_query(encode_query(features)) == features
    with pytest.raises(ValueError):
        query_dimension(b"\x01")
    with pytest.raises(ValueError):
        query_dimension(encode_query(features) + b"\x00")


@given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=8), st.binary(max_size=40),
       st.data())
def test_query_decode_raises_only_value_error(features, noise, data):
    blob = encode_query(tuple(features))
    returns_or_raises(query_dimension, (noise, mutated(data, blob)), ValueError)


# --- the certification rule ------------------------------------------------------


@st.composite
def random_tables(draw):
    """Tables over 2 or 3 groups in which any cell may be empty."""
    num_groups = draw(st.integers(2, 3))
    num_labels = draw(st.integers(1, 3))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, num_groups - 1), st.integers(0, num_labels - 1)),
            max_size=16,
        )
    )
    preds = draw(
        st.lists(st.integers(0, num_labels - 1), min_size=len(cells), max_size=len(cells))
    )
    dataset = Dataset(
        1, num_groups, num_labels, tuple(Sample((0,), g, y) for g, y in cells)
    )
    return build_risk_table(dataset, preds)


threshold_micro = st.integers(min_value=1, max_value=999_999).map(micro_fraction)


def outcome(fn, *args):
    """fn's result, or EmptyCellError when it raises that."""
    try:
        return fn(*args)
    except EmptyCellError:
        return EmptyCellError


@settings(max_examples=300)
@given(random_tables(), threshold_micro)
def test_circuit_decision_agrees_with_host_decide(table, threshold):
    # Both give the restated rule's verdict, at fixed tolerances and at one
    # drawn anywhere on the micro grid.
    for metric in FairnessMetric:
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 4), threshold):
            spec = FairnessSpec(metric=metric, epsilon=eps, delta=Fraction(1, 5))
            expected = outcome(restated_rule, spec, table)
            host = outcome(decide, spec, table)
            assert (host if host is EmptyCellError else host.failure_reason) == expected
            passed = expected if expected is EmptyCellError else expected is None
            assert outcome(certification_decision, spec, table) == passed


def test_decide_gap_boundary_unequal_group_sizes():
    # rates 1/3 vs 1/4: gap 1/12; thresholds straddling it, micro-grid exact
    dataset = Dataset(
        1,
        2,
        2,
        tuple(Sample((0,), 0, 0) for _ in range(3))
        + tuple(Sample((0,), 1, 0) for _ in range(4)),
    )
    preds = [1, 0, 0] + [1, 0, 0, 0]
    table = build_risk_table(dataset, preds)
    assert empirical_gap(table, FairnessMetric.ORE) == Fraction(1, 12)
    expected = {83_333: REASON_GAP_TOO_LARGE, 83_334: REASON_INSUFFICIENT_SAMPLES}
    for units, reason in expected.items():
        spec = FairnessSpec(FairnessMetric.ORE, micro_fraction(units), Fraction(1, 5))
        assert decide(spec, table).failure_reason == reason == restated_rule(spec, table)


# --- session -------------------------------------------------------------------


def test_honest_cert_session_outputs():
    model_bytes, bundle, dataset, model = planted_inputs()
    session = run_cert(model_bytes, bundle)
    assert session.abort_reason is None
    assert session.output[0:1] == b"\x01"
    assert session.output[1:] == merkle_root(model_bytes)
    # The checker alone receives an output; the model holder receives nothing.
    assert [(e.party, e.kind) for e in session.transcript[4:]] == [("P2", "output")]

    host = decide(CHEAP_SPEC, build_risk_table(dataset, [predict(model, s) for s in dataset.samples]))
    assert host.passed


def test_session_keeps_views_of_bytes_and_copies_other_buffers():
    model_bytes, bundle, _, _ = planted_inputs()
    reference = run_cert(model_bytes, bundle)
    expected = (reference.output, reference.transcript_lines())

    view = memoryview(bundle)[0:]
    session = run_cert(model_bytes, view)
    assert session._inputs[PARTY_CHECKER] is view  # held as given, not copied
    assert (session.output, session.transcript_lines()) == expected

    model_buffer, bundle_buffer = bytearray(model_bytes), bytearray(bundle)
    session = FscSession()
    session.input(PARTY_SERVER, model_buffer)
    session.input(PARTY_CHECKER, memoryview(bundle_buffer))
    model_buffer[:] = bytes(len(model_buffer))  # the caller's changes do not reach it
    bundle_buffer[:] = bytes(len(bundle_buffer))
    session.compute(PARTY_SERVER, CIRCUIT_CERT)
    session.compute(PARTY_CHECKER, CIRCUIT_CERT)
    assert (session.output, session.transcript_lines()) == expected


def test_cert_bit_zero_when_undersampled():
    model_bytes, bundle, _, _ = planted_inputs(
        group_counts=(CHEAP_REQUIRED - 1, CHEAP_REQUIRED)
    )
    session = run_cert(model_bytes, bundle)
    assert session.output[0:1] == b"\x00"


def test_leakage_log_names_exactly_the_delivered_parts():
    model_bytes, bundle, _, _ = planted_inputs()
    session = run_cert(model_bytes, bundle)
    assert [(e.party, e.name, e.length) for e in session.leakage_log] == [
        ("P2", "fair_bit", 1),
        ("P2", "model_digest", 32),
    ]


def test_inference_session_matches_host_predict():
    model = LinearModel(3, 2, ((fx.ONE, 0, 0), (0, fx.ONE, 0)), (0, 0))
    model_bytes = serialize_model(model)
    features = (fx.ONE // 2, 2 * fx.ONE, -fx.ONE)
    session = FscSession()
    session.input(PARTY_SERVER, model_bytes)
    session.input(PARTY_CHECKER, encode_query(features))
    session.compute(PARTY_SERVER, CIRCUIT_INFER)
    session.compute(PARTY_CHECKER, CIRCUIT_INFER)
    label = int.from_bytes(session.output[:2], "little")
    assert label == predict(model, Sample(features, 0, 0)) == 1
    assert session.output[2:] == merkle_root(model_bytes)
    assert [(e.party, e.name) for e in session.leakage_log] == [
        ("P2", "prediction"),
        ("P2", "model_digest"),
    ]


def test_compute_requires_matching_circuits():
    # A circuit the other party did not name, or no circuit at all, aborts
    # before the request is recorded; the session's last entry is the abort.
    model_bytes, bundle, _, _ = planted_inputs()
    for requests in (
        ((PARTY_SERVER, CIRCUIT_CERT), (PARTY_CHECKER, CIRCUIT_INFER)),
        ((PARTY_SERVER, CIRCUIT_CERT), (PARTY_CHECKER, 42)),
        ((PARTY_SERVER, 7),),
        ((PARTY_SERVER, None),),  # a frame that names no circuit
    ):
        session = FscSession()
        session.input(PARTY_SERVER, model_bytes)
        session.input(PARTY_CHECKER, bundle)
        for party, circuit_id in requests:
            session.compute(party, circuit_id)
        assert session.abort_reason == ABORT_CIRCUIT_MISMATCH
        kinds = [(e.party, e.kind) for e in session.transcript]
        assert kinds[2:] == [("P1", "compute")] * (len(requests) - 1) + [("F", "abort")]
        assert session.output is None
        assert session.leakage_log == []


# --- abort paths -----------------------------------------------------------------


def abort_reason_of(model_bytes, checker_payload, circuit=CIRCUIT_CERT):
    session = FscSession()
    session.input(PARTY_SERVER, model_bytes)
    session.input(PARTY_CHECKER, checker_payload)
    session.compute(PARTY_SERVER, circuit)
    session.compute(PARTY_CHECKER, circuit)
    assert session.output is None
    assert session.leakage_log == []
    return session.abort_reason


def test_abort_short_model():
    _, bundle, _, _ = planted_inputs()
    assert abort_reason_of(b"tiny", bundle) == ABORT_SIZE_MISMATCH


def test_abort_garbage_bundle():
    model_bytes, _, _, _ = planted_inputs()
    assert abort_reason_of(model_bytes, b"\xff" * 40) == ABORT_SIZE_MISMATCH


def test_abort_empty_dataset():
    model_bytes, _, _, _ = planted_inputs()
    empty = encode_test_bundle(CHEAP_SPEC, Dataset(4, 2, 2, ()))
    assert abort_reason_of(model_bytes, empty) == ABORT_SIZE_MISMATCH


def test_abort_malformed_model():
    _, bundle, _, _ = planted_inputs()
    junk = b"NOTRIGHT" + bytes(32)
    assert abort_reason_of(junk, bundle) == ABORT_MALFORMED_MODEL


def test_abort_dimension_mismatch():
    _, bundle, _, _ = planted_inputs()
    narrow = serialize_model(LinearModel(2, 2, ((1, 2), (3, 4)), (0, 0)))
    assert abort_reason_of(narrow, bundle) == ABORT_DIMENSION_MISMATCH


def test_abort_wrapper_with_fewer_flip_rates_than_groups():
    _, bundle, dataset, model = planted_inputs()
    one_rate = BiasedModel(model.inner, (Fraction(1, 10),), model.seed)
    assert dataset.num_groups == 2
    assert abort_reason_of(serialize_model(one_rate), bundle) == ABORT_GROUP_MISMATCH


def test_abort_model_with_more_labels_than_the_bundle():
    _, bundle, dataset, _ = planted_inputs()
    assert dataset.num_labels == 2
    three = LinearModel(dataset.dimension, 3, ((0,) * dataset.dimension,) * 3, (0, 0, 1))
    assert abort_reason_of(serialize_model(three), bundle) == ABORT_LABEL_MISMATCH


def test_abort_empty_cell():
    model_bytes, _, dataset, _ = planted_inputs()
    lopsided = Dataset(
        dataset.dimension,
        2,
        dataset.num_labels,
        tuple(s for s in dataset.samples if s.group == 0),
    )
    bundle = encode_test_bundle(CHEAP_SPEC, lopsided)
    assert abort_reason_of(model_bytes, bundle) == ABORT_EMPTY_CELL


@pytest.mark.parametrize("counts", ((60, 60, 0), (0, 60, 60)), ids=("last", "first"))
def test_abort_empty_cell_in_any_group_order(counts):
    # Group 1 errs at rate 1/2 and the others never, so the two nonempty
    # groups fail the gap test whether or not the empty group comes first.
    config = PlantedConfig(
        cell_weights=((Fraction(1, 6),) * 2,) * 3,
        error_rates=(Fraction(0), Fraction(1, 2), Fraction(0)),
        seed=b"\x42" * 8,
    )
    dataset, model, _ = generate_planted(config, 0, group_counts=counts)
    spec = FairnessSpec(metric=FairnessMetric.ORE, epsilon=Fraction(1, 10), delta=Fraction(1, 5))
    bundle = encode_test_bundle(spec, dataset)
    assert abort_reason_of(serialize_model(model), bundle) == ABORT_EMPTY_CELL


def test_abort_infer_dimension():
    model_bytes, _, _, _ = planted_inputs()
    assert (
        abort_reason_of(model_bytes, encode_query((fx.ONE,)), circuit=CIRCUIT_INFER)
        == ABORT_DIMENSION_MISMATCH
    )


INT32_EDGES = (
    fx.INT32_MIN, fx.INT32_MIN + 1, -fx.ONE, -1, 0, 1, fx.ONE, fx.INT32_MAX - 1, fx.INT32_MAX
)


@st.composite
def served_queries(draw):
    """(model, query): a linear, lookup or biased model of dimension 1-784
    and a query for it, with weights and features often at the int32 edges."""
    dimension = draw(st.integers(1, 784))
    # A seeded generator: drawing each weight from the test data would exceed
    # Hypothesis's entropy limit at large dimensions (a data_too_large failure).
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))

    def value():
        if rng.random() < 0.3:
            return rng.choice(INT32_EDGES)
        return rng.randint(fx.INT32_MIN, fx.INT32_MAX)

    def sparse():
        return tuple(value() if rng.random() < 0.05 else 0 for _ in range(dimension))

    num_labels = draw(st.integers(1, 3))
    linear = LinearModel(
        dimension,
        num_labels,
        tuple(sparse() for _ in range(num_labels)),
        tuple(value() for _ in range(num_labels)),
    )
    arch = draw(st.sampled_from(("linear", "lookup", "biased")))
    if arch == "lookup":
        size = draw(st.integers(1, 9))
        table = tuple(rng.randrange(num_labels) for _ in range(size))
        model = LookupModel(dimension, num_labels, table)
    elif arch == "biased":
        rates = tuple(Fraction(rng.randrange(4), 4) for _ in range(draw(st.integers(1, 3))))
        model = BiasedModel(linear, rates, rng.randbytes(8))
    else:
        model = linear
    return model, encode_query(tuple(value() for _ in range(dimension)))


@settings(max_examples=40, deadline=None)
@given(served_queries())
def test_infer_scores_the_query_bytes_as_predict_scores_the_decoded_query(case):
    model, query = case
    model_bytes = serialize_model(model)
    parts = dict(dealer._infer(model_bytes, query))
    label = predict(model, Sample(unpack_query(query), 0, 0))
    assert parts["prediction"] == struct.pack("<H", label)
    assert parts["model_digest"] == merkle_root(model_bytes)


@pytest.mark.parametrize(
    "query, reason",
    [
        (b"", ABORT_SIZE_MISMATCH),
        (b"\x03\x00\x00", ABORT_SIZE_MISMATCH),  # shorter than the dimension field
        (encode_query((0, fx.ONE, 0))[:-1], ABORT_SIZE_MISMATCH),  # length mismatch
        (encode_query((0, fx.ONE, 0)) + bytes(4), ABORT_SIZE_MISMATCH),
        (struct.pack("<I", 2**32 - 1), ABORT_SIZE_MISMATCH),
        (struct.pack("<I", 0), ABORT_DIMENSION_MISMATCH),  # dimension 0
        (encode_query((fx.ONE,)), ABORT_DIMENSION_MISMATCH),  # wrong dimension
        (encode_query((0,) * 4), ABORT_DIMENSION_MISMATCH),
    ],
)
def test_malformed_queries_abort(query, reason):
    model_bytes = serialize_model(LinearModel(3, 2, ((fx.ONE, 0, 0), (0, fx.ONE, 0)), (0, 0)))
    assert abort_reason_of(model_bytes, query, circuit=CIRCUIT_INFER) == reason
    # The query is checked before the model, as the reasons show.
    if reason == ABORT_SIZE_MISMATCH:
        assert abort_reason_of(b"NOTRIGHT" + bytes(32), query, circuit=CIRCUIT_INFER) == reason


def test_abort_recorded_in_transcript():
    _, bundle, _, _ = planted_inputs()
    session = FscSession()
    session.input(PARTY_SERVER, b"tiny")
    session.input(PARTY_CHECKER, bundle)
    session.compute(PARTY_SERVER, CIRCUIT_CERT)
    session.compute(PARTY_CHECKER, CIRCUIT_CERT)
    last = session.transcript[-1]
    assert (last.party, last.kind) == ("F", "abort")
    assert session.abort_reason == ABORT_SIZE_MISMATCH


# --- in-circuit augmentation ------------------------------------------------------


def test_circuit_augments_before_evaluating():
    aug = AugmentorConfig(
        master_seed=b"\x66" * 8,
        noise_sigma=0,
        mask_prob=Fraction(1),  # zero out every feature
        invoke_prob=Fraction(1),
    )
    augmented_spec = FairnessSpec(
        metric=FairnessMetric.ORE,
        epsilon=Fraction(1, 2),
        delta=Fraction(1, 5),
        alpha=Fraction(1, 2),
    )
    dataset, model, _ = generate_planted(
        fair_config(), 0, group_counts=(CHEAP_REQUIRED, CHEAP_REQUIRED)
    )
    model_bytes = serialize_model(model)
    session = run_cert(model_bytes, encode_test_bundle(augmented_spec, dataset, aug))
    bit = session.output[0:1]

    mangled = augment_dataset(aug, dataset)
    host = decide(
        augmented_spec,
        build_risk_table(mangled, [predict(model, s) for s in mangled.samples]),
    )
    assert bit == (b"\x01" if host.passed else b"\x00")
    # zeroing every feature forces one constant prediction, so the observed
    # gap jumps and the bit flips relative to the untouched bundle
    plain = run_cert(model_bytes, encode_test_bundle(CHEAP_SPEC, dataset))
    assert plain.output[0:1] == b"\x01"
    assert bit == b"\x00"


@pytest.mark.parametrize(
    "aug",
    (None, AugmentorConfig(b"\x77" * 8, fx.ONE // 8, Fraction(1, 10), Fraction(1, 2))),
    ids=("private", "augmented"),
)
def test_certification_streams_the_decoded_rows(aug, monkeypatch):
    # The circuit reads the feature rows of the decoded bundle as it
    # unpacks them: after evaluation the decoded set has built no rows.
    model_bytes, bundle, dataset, _ = planted_inputs(aug=aug)
    decoded = []

    def keep(data):
        parts = decode_test_bundle(data)
        decoded.append(parts[1])
        return parts

    monkeypatch.setattr(dealer, "decode_test_bundle", keep)
    session = run_cert(model_bytes, bundle)
    assert session.output[:1] == b"\x01"
    (kept,) = decoded
    assert "features" not in vars(kept)
    assert "samples" not in vars(kept)
    assert kept == dataset


# --- transcripts ------------------------------------------------------------------


def test_transcript_deterministic_between_runs():
    model_bytes, bundle, _, _ = planted_inputs()
    a = run_cert(model_bytes, bundle)
    b = run_cert(model_bytes, bundle)
    assert a.transcript_lines() == b.transcript_lines()


def test_transcript_line_format():
    model_bytes, bundle, _, _ = planted_inputs()
    lines = run_cert(model_bytes, bundle).transcript_lines()
    assert lines[0].startswith(f"0 P1 input {len(model_bytes)} ")
    assert lines[1].startswith(f"1 P2 input {len(bundle)} ")
    circuit = hashlib.sha3_256(bytes([CIRCUIT_CERT])).hexdigest()
    assert lines[2] == f"2 P1 compute 1 {circuit}"
    assert lines[3] == f"3 P2 compute 1 {circuit}"
    assert lines[4].startswith("4 P2 output 33 ")
    assert len(lines) == 5


# --- gate-cost model --------------------------------------------------------------


def test_gate_rates_frozen():
    report = estimate_gates(model_byte_count=1000, weight_bit_count=8000)
    assert report.hash_and_gates_per_input_bit == 24
    assert report.merkle_and_gates_per_input_bit == 48
    assert report.inference_and_gates_per_weight_bit == 191
    assert report.merkle_total_and_gates == 48 * 8000
    assert report.total_inference_gates == 191 * 8000
    assert report.overhead_ratio == pytest.approx(48 / 191, rel=1e-12)


def test_gate_report_handles_zero_weight_bits():
    report = estimate_gates(model_byte_count=64, weight_bit_count=0)
    assert report.overhead_ratio is None
    assert report.to_lines()[-1].endswith("n/a")


def test_gate_estimate_validation():
    with pytest.raises(ValueError):
        estimate_gates(0, 8)
    with pytest.raises(ValueError):
        estimate_gates(8, -1)


def test_gate_estimate_for_model_counts_parameters():
    model = LinearModel(3, 2, ((1, 2, 3), (4, 5, 6)), (7, 8))
    report = estimate_gates_for_model(model)
    assert report.total_inference_gates == 191 * 32 * 8
    assert report.merkle_total_and_gates == 48 * 8 * len(serialize_model(model))
