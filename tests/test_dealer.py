import hashlib
from fractions import Fraction

import pytest
from conftest import mutated, returns_or_raises
from hypothesis import given, settings
from hypothesis import strategies as st

from faircert import dealer
from faircert import fixedpoint as fx
from faircert.augmentor import AugmentorConfig, augment_dataset
from faircert.crypto import merkle_root
from faircert.dealer import (
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
    STATE_ABORTED,
    STATE_AWAITING_INPUT,
    STATE_COMPUTED,
    STATE_DELIVERED,
    CircuitMismatchError,
    FscSession,
    SessionAbort,
    WrongStateError,
    certification_decision,
    decode_query,
    decode_test_bundle,
    encode_query,
    encode_test_bundle,
    estimate_gates,
    estimate_gates_for_model,
    integer_gap_strictly_below,
)
from faircert.fairness import (
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
    dataset, model, _ = generate_planted(fair_config(), 0, group_counts=group_counts)
    return serialize_model(model), encode_test_bundle(CHEAP_SPEC, dataset, aug), dataset, model


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


def test_bundle_rejects_missing_mode_and_unknown_mode():
    from faircert.crypto import encode_fairness_spec
    from faircert.model import MalformedDatasetError

    with pytest.raises(MalformedDatasetError):
        decode_test_bundle(encode_fairness_spec(CHEAP_SPEC))
    _, bundle, _, _ = planted_inputs()
    broken = bytearray(bundle)
    broken[len(bundle) - len(bundle) + bundle.index(b"FDAT1") - 1] = 9
    with pytest.raises(MalformedDatasetError):
        decode_test_bundle(bytes(broken))


@st.composite
def bundles(draw):
    aug = None
    if draw(st.booleans()):
        aug = AugmentorConfig(master_seed=draw(st.binary(min_size=8, max_size=8)))
    spec = FairnessSpec(
        metric=draw(st.sampled_from(list(FairnessMetric))),
        epsilon=Fraction(1, 2),
        delta=Fraction(1, 5),
        alpha=Fraction(1, 4) if aug is not None else None,
    )
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


def test_query_round_trip():
    features = (0, fx.ONE, -fx.ONE, 2**30)
    assert decode_query(encode_query(features)) == features
    with pytest.raises(ValueError):
        decode_query(b"\x01")
    with pytest.raises(ValueError):
        decode_query(encode_query(features) + b"\x00")


@given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=8), st.binary(max_size=40),
       st.data())
def test_query_decode_raises_only_value_error(features, noise, data):
    blob = encode_query(tuple(features))
    returns_or_raises(decode_query, (noise, mutated(data, blob)), ValueError)


# --- division-free decision route ---------------------------------------------


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
def test_integer_route_agrees_with_rationals(table, threshold):
    for metric in FairnessMetric:
        gap = outcome(empirical_gap, table, metric)
        exact = gap if gap is EmptyCellError else gap < threshold
        assert outcome(integer_gap_strictly_below, table, metric, threshold) == exact


@settings(max_examples=200)
@given(random_tables())
def test_circuit_decision_agrees_with_host_decide(table):
    for metric in FairnessMetric:
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 4)):
            spec = FairnessSpec(metric=metric, epsilon=eps, delta=Fraction(1, 5))
            host = outcome(decide, spec, table)
            expected = host if host is EmptyCellError else host.passed
            assert outcome(certification_decision, spec, table) == expected


def test_integer_route_unequal_group_sizes():
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
    assert integer_gap_strictly_below(table, FairnessMetric.ORE, Fraction(83_334, 10**6))
    assert not integer_gap_strictly_below(table, FairnessMetric.ORE, Fraction(83_333, 10**6))


# --- session state machine -----------------------------------------------------


def test_honest_cert_session_outputs():
    model_bytes, bundle, dataset, model = planted_inputs()
    session = run_cert(model_bytes, bundle)
    assert session.state == STATE_COMPUTED

    server_out = session.output(PARTY_SERVER)
    checker_out = session.output(PARTY_CHECKER)
    assert server_out == b""
    assert checker_out[0:1] == b"\x01"
    assert checker_out[1:] == merkle_root(model_bytes)
    assert session.state == STATE_DELIVERED

    host = decide(CHEAP_SPEC, build_risk_table(dataset, [predict(model, s) for s in dataset.samples]))
    assert host.passed


def test_cert_bit_zero_when_undersampled():
    model_bytes, bundle, _, _ = planted_inputs(
        group_counts=(CHEAP_REQUIRED - 1, CHEAP_REQUIRED)
    )
    session = run_cert(model_bytes, bundle)
    assert session.output(PARTY_CHECKER)[0:1] == b"\x00"


def test_leakage_log_names_exactly_the_delivered_parts():
    model_bytes, bundle, _, _ = planted_inputs()
    session = run_cert(model_bytes, bundle)
    session.output(PARTY_SERVER)
    session.output(PARTY_CHECKER)
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
    out = session.output(PARTY_CHECKER)
    label = int.from_bytes(out[:2], "little")
    assert label == predict(model, Sample(features, 0, 0)) == 1
    assert out[2:] == merkle_root(model_bytes)
    assert session.output(PARTY_SERVER) == b""
    assert [(e.party, e.name) for e in session.leakage_log] == [
        ("P2", "prediction"),
        ("P2", "model_digest"),
    ]


def test_input_state_errors():
    session = FscSession()
    assert session.state == STATE_AWAITING_INPUT
    with pytest.raises(WrongStateError):
        session.compute(PARTY_SERVER, CIRCUIT_CERT)
    with pytest.raises(WrongStateError):
        session.output(PARTY_SERVER)
    session.input(PARTY_SERVER, b"x")
    with pytest.raises(WrongStateError):
        session.input(PARTY_SERVER, b"again")
    with pytest.raises(ValueError):
        session.input(7, b"x")


def test_compute_requires_matching_circuits():
    model_bytes, bundle, _, _ = planted_inputs()
    session = FscSession()
    session.input(PARTY_SERVER, model_bytes)
    session.input(PARTY_CHECKER, bundle)
    session.compute(PARTY_SERVER, CIRCUIT_CERT)
    with pytest.raises(CircuitMismatchError):
        session.compute(PARTY_CHECKER, CIRCUIT_INFER)
    with pytest.raises(CircuitMismatchError):
        session.compute(PARTY_CHECKER, 42)


def test_output_delivered_once():
    model_bytes, bundle, _, _ = planted_inputs()
    session = run_cert(model_bytes, bundle)
    session.output(PARTY_CHECKER)
    with pytest.raises(WrongStateError):
        session.output(PARTY_CHECKER)
    session.output(PARTY_SERVER)  # the other party is unaffected


# --- abort paths -----------------------------------------------------------------


def abort_reason_of(model_bytes, checker_payload, circuit=CIRCUIT_CERT):
    session = FscSession()
    session.input(PARTY_SERVER, model_bytes)
    session.input(PARTY_CHECKER, checker_payload)
    session.compute(PARTY_SERVER, circuit)
    session.compute(PARTY_CHECKER, circuit)
    assert session.state == STATE_ABORTED
    with pytest.raises(SessionAbort) as exc_info:
        session.output(PARTY_CHECKER)
    return exc_info.value.reason


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
    bit = session.output(PARTY_CHECKER)[0:1]

    mangled = augment_dataset(aug, dataset)
    host = decide(
        augmented_spec,
        build_risk_table(mangled, [predict(model, s) for s in mangled.samples]),
    )
    assert bit == (b"\x01" if host.passed else b"\x00")
    # zeroing every feature forces one constant prediction, so the observed
    # gap jumps and the bit flips relative to the untouched bundle
    plain = run_cert(model_bytes, encode_test_bundle(CHEAP_SPEC, dataset))
    assert plain.output(PARTY_CHECKER)[0:1] == b"\x01"
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
    assert session.output(PARTY_CHECKER)[:1] == b"\x01"
    (kept,) = decoded
    assert "features" not in vars(kept)
    assert "samples" not in vars(kept)
    assert kept == dataset


# --- transcripts ------------------------------------------------------------------


def test_transcript_deterministic_between_runs():
    model_bytes, bundle, _, _ = planted_inputs()
    a = run_cert(model_bytes, bundle)
    b = run_cert(model_bytes, bundle)
    a.output(PARTY_SERVER)
    a.output(PARTY_CHECKER)
    b.output(PARTY_SERVER)
    b.output(PARTY_CHECKER)
    assert a.transcript_lines() == b.transcript_lines()


def test_transcript_line_format():
    model_bytes, bundle, _, _ = planted_inputs()
    session = run_cert(model_bytes, bundle)
    session.output(PARTY_CHECKER)
    lines = session.transcript_lines()
    assert lines[0].startswith(f"0 P1 input {len(model_bytes)} ")
    assert lines[1].startswith(f"1 P2 input {len(bundle)} ")
    circuit = hashlib.sha3_256(bytes([CIRCUIT_CERT])).hexdigest()
    assert lines[2] == f"2 P1 compute 1 {circuit}"
    assert lines[3] == f"3 P2 compute 1 {circuit}"


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
