import socket
import struct
import threading
import time
from fractions import Fraction

import pytest
from conftest import (
    AUG,
    AUG_SPEC,
    CHEAP_REQUIRED,
    CHEAP_SPEC,
    KEY_SEED,
    LINKS,
    NO_CIRCUIT,
    FrameRewriter,
    certification_setup,
    mutated,
    naming_circuit,
    quarter_config,
    returns_or_raises,
    rewriting_dealer_input,
    specs,
    tcp_link,
)
from hypothesis import given
from hypothesis import strategies as st

from faircert import fixedpoint as fx
from faircert.augmentor import AugmentorConfig
from faircert.crypto import (
    Certificate,
    issue_certificate,
    keygen,
    merkle_root,
    verify_certificate,
)
from faircert.dealer import CIRCUIT_CERT, CIRCUIT_INFER, encode_query
from faircert.fairness import FairnessMetric, FairnessSpec
from faircert import dealer, protocol
from faircert.model import (
    BiasedModel,
    LinearModel,
    Sample,
    generate_planted,
    predict,
    serialize_model,
)
from faircert.protocol import (
    FRAME_ABORT,
    FRAME_CERTIFICATE,
    FRAME_COMPUTE_INPUT,
    FRAME_HELLO,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    REASON_FSC_ABORT,
    REASON_NOT_FAIR,
    REASON_PRECHECK_FAILED,
    REASON_SIG_INVALID,
    REASON_SPEC_MISMATCH,
    ROLE_DEALER,
    ROLE_REGULATOR,
    ROLE_SERVER,
    AcceptedPrediction,
    CertFailure,
    ChannelClosed,
    Client,
    Frame,
    ProtocolError,
    Regulator,
    Reject,
    Server,
    SocketChannel,
    channel_pair,
    decode_cert_request,
    decode_frame,
    encode_cert_request,
    exchange_hello,
    parse_endpoint,
    run_certification_local,
    run_inference_local,
    serve_dealer,
)

FRAMES_IN_USE = tuple(
    getattr(protocol, name) for name in dir(protocol) if name.startswith("FRAME_")
)


# --- framing -----------------------------------------------------------------


@given(st.sampled_from(FRAMES_IN_USE), st.binary(max_size=200))
def test_frame_round_trip(ftype, payload):
    frame = Frame(ftype, payload)
    assert decode_frame(frame.encode()) == frame


def test_frame_rejects_malformed():
    with pytest.raises(ProtocolError):
        decode_frame(b"\x00\x00")
    for unknown in (0x02, 0x07, 0x7F):  # 0x02 and 0x07 are retired types
        with pytest.raises(ProtocolError):
            decode_frame(Frame(unknown, b"").encode())
    good = Frame(FRAME_HELLO, b"abc").encode()
    with pytest.raises(ProtocolError):
        decode_frame(good + b"\x00")  # length field now wrong


@given(st.sampled_from(FRAMES_IN_USE), st.binary(max_size=60), st.data())
def test_frame_decode_raises_only_protocol_error(ftype, payload, data):
    # the payload alone doubles as random bytes
    blob = Frame(ftype, payload).encode()
    returns_or_raises(decode_frame, (payload, mutated(data, blob)), ProtocolError)


def test_oversized_frame_refused_alike_on_both_transports():
    # 16 MiB + 10 bytes on the wire: a length field of MAX_FRAME_BYTES + 6.
    big = Frame(FRAME_HELLO, bytes(MAX_FRAME_BYTES + 5))
    small = Frame(FRAME_HELLO, b"after")
    queue_a, queue_b = channel_pair(timeout=1.0)
    sock_a, sock_b = socket.socketpair()
    socket_a, socket_b = SocketChannel(sock_a, 1.0), SocketChannel(sock_b, 1.0)
    try:
        messages = []
        for sender, receiver in ((queue_a, queue_b), (socket_a, socket_b)):
            with pytest.raises(ProtocolError) as refused:
                sender.send_frame(big)
            messages.append(str(refused.value))
            sender.send_frame(small)  # nothing of the refused frame went out
            assert receiver.recv_frame() == small
        expected = f"frame length {MAX_FRAME_BYTES + 6} exceeds {MAX_FRAME_BYTES}"
        assert messages == [expected, expected]
    finally:
        socket_a.close()
        socket_b.close()


def test_socket_channel_frame_reads():
    # A 2 MB frame arrives whole and byte-identical; a silent peer, a drop
    # inside a frame and a clean close each raise their documented error.
    big = Frame(FRAME_COMPUTE_INPUT, bytes(range(256)) * 8000)
    sock_a, sock_b = socket.socketpair()
    sender, receiver = SocketChannel(sock_a, 5.0), SocketChannel(sock_b, 0.2)
    try:
        thread = threading.Thread(target=sender.send_frame, args=(big,))
        thread.start()
        got = receiver.recv_frame()
        thread.join()
        assert got == big and type(got.payload) is bytes
        with pytest.raises(ProtocolError, match="timed out"):
            receiver.recv_frame()
        sock_a.sendall(big.encode()[:1000])
        sock_a.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError, match="mid-frame"):
            receiver.recv_frame()
        with pytest.raises(ChannelClosed):
            receiver.recv_frame()
    finally:
        sender.close()
        receiver.close()


def test_parse_endpoint():
    assert parse_endpoint("10.0.0.1:9000") == ("10.0.0.1", 9000)
    assert parse_endpoint(":80") == ("127.0.0.1", 80)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")
    assert parse_endpoint("h:65535") == ("h", 65535)
    with pytest.raises(ValueError):
        parse_endpoint("127.0.0.1:70000")


# --- channels ------------------------------------------------------------------


def test_queue_channel_close_semantics():
    a, b = channel_pair(timeout=0.2)
    a.send_frame(Frame(FRAME_HELLO, b"x"))
    assert b.recv_frame().payload == b"x"
    a.close()
    with pytest.raises(ChannelClosed):
        b.recv_frame()
    with pytest.raises(ChannelClosed):
        a.send_frame(Frame(FRAME_HELLO, b""))


def test_queue_channel_timeout():
    a, _ = channel_pair(timeout=0.05)
    with pytest.raises(ProtocolError):
        a.recv_frame()


# --- hello and key announcements --------------------------------------------------


def test_hello_exchange():
    a, b = channel_pair(timeout=1.0)
    b.send_frame(Frame(FRAME_HELLO, struct.pack("<BH", ROLE_SERVER, PROTOCOL_VERSION)))
    assert exchange_hello(a, ROLE_REGULATOR) == ROLE_SERVER
    echoed = b.recv_frame()
    assert echoed.type == FRAME_HELLO
    assert struct.unpack("<BH", echoed.payload) == (ROLE_REGULATOR, PROTOCOL_VERSION)


def test_hello_version_mismatch_aborts():
    a, b = channel_pair(timeout=1.0)
    b.send_frame(Frame(FRAME_HELLO, struct.pack("<BH", ROLE_SERVER, 99)))
    with pytest.raises(ProtocolError):
        exchange_hello(a, ROLE_REGULATOR)
    assert b.recv_frame().type == FRAME_HELLO  # a's own hello went out first
    assert b.recv_frame().type == FRAME_ABORT


# --- certification request codec ----------------------------------------------------


def test_cert_request_round_trip_private():
    payload = encode_cert_request(CHEAP_SPEC, 1234, None)
    spec, total, aug = decode_cert_request(payload)
    assert (spec, total, aug) == (CHEAP_SPEC, 1234, None)


def test_cert_request_round_trip_augmented():
    cfg = AugmentorConfig(
        master_seed=b"\x00" * 8, noise_sigma=100, invoke_prob=Fraction(1)
    )
    payload = encode_cert_request(AUG_SPEC, 60, cfg.encode_public())
    spec, total, block = decode_cert_request(payload)
    assert spec == AUG_SPEC
    assert block == cfg.encode_public()
    assert total == 60


def test_cert_request_rejects_malformed():
    payload = encode_cert_request(CHEAP_SPEC, 1, None)
    with pytest.raises(ProtocolError):
        decode_cert_request(payload + b"\x00")
    with pytest.raises(ProtocolError):
        decode_cert_request(payload[:-2])
    bad_mode = payload[:-1] + b"\x07"
    with pytest.raises(ProtocolError):
        decode_cert_request(bad_mode)
    # a mode byte that disagrees with the spec, either way round
    for mismatched in (
        encode_cert_request(CHEAP_SPEC, 1, AUG.encode_public()),
        encode_cert_request(AUG_SPEC, 1, None),
    ):
        with pytest.raises(ProtocolError, match="disagrees with its spec"):
            decode_cert_request(mismatched)


@given(specs(), st.integers(0, 2**32 - 1), st.booleans(), st.binary(max_size=60), st.data())
def test_cert_request_decode_raises_only_protocol_error(spec, total, augmented, noise, data):
    blob = encode_cert_request(spec, total, bytes(range(16)) if augmented else None)
    returns_or_raises(decode_cert_request, (noise, mutated(data, blob)), ProtocolError)


# --- regulator construction ------------------------------------------------------------


def test_regulator_mode_config_consistency():
    _, _, dataset, _ = certification_setup()
    with pytest.raises(ValueError):
        Regulator(keygen(KEY_SEED), dataset, AUG_SPEC, None)
    with pytest.raises(ValueError):
        Regulator(
            keygen(KEY_SEED),
            dataset,
            CHEAP_SPEC,
            AugmentorConfig(master_seed=b"\x00" * 8),
        )


def test_required_counts_eo_uses_cells():
    spec = FairnessSpec(
        metric=FairnessMetric.EO, epsilon=Fraction(1, 2), delta=Fraction(1, 5)
    )
    regulator, _, dataset, _ = certification_setup(spec=spec)
    needed, observed = regulator.required_counts()
    assert len(observed) == dataset.num_groups * dataset.num_labels
    assert sum(observed) == len(dataset.samples)
    assert needed == CHEAP_REQUIRED  # same cardinalities, so the same bound


def test_required_counts_are_counted_once(monkeypatch):
    regulator, _, _, _ = certification_setup()
    first = regulator.required_counts()
    monkeypatch.setattr(protocol, "build_risk_table", None)  # a second count would fail
    assert regulator.precheck()
    assert regulator.required_counts() is first


@pytest.mark.parametrize("metric", tuple(FairnessMetric), ids=lambda m: m.name)
def test_required_counts_count_each_metric_cells(metric, monkeypatch):
    spec = FairnessSpec(metric=metric, epsilon=Fraction(1, 2), delta=Fraction(1, 5))
    regulator, _, dataset, _ = certification_setup(spec=spec)
    pairs = list(zip(dataset.groups, dataset.labels))
    if metric is FairnessMetric.EO:
        expected = tuple(pairs.count((g, y)) for g in range(2) for y in range(2))
    else:
        expected = tuple(dataset.groups.count(g) for g in range(2))
    needed, observed = regulator.required_counts()
    assert observed == expected
    monkeypatch.setattr(protocol, "build_risk_table", None)  # a second count would fail
    assert regulator.precheck() == (min(expected) >= needed)


@pytest.mark.parametrize(
    ("spec", "aug"), ((CHEAP_SPEC, None), (AUG_SPEC, AUG)), ids=("private", "augmented")
)
def test_regulator_certifies_without_building_rows(spec, aug):
    # The regulator orders, counts and encodes its set on the records: an
    # honest certification leaves it with no row or Sample tuples. The
    # i.i.d. draw is not in group order, so the regulator reorders it.
    dataset, model, _ = generate_planted(quarter_config(), 4 * CHEAP_REQUIRED)
    assert list(dataset.groups) != sorted(dataset.groups)
    regulator = Regulator(keygen(KEY_SEED), dataset, spec, aug)
    result = run_certification_local(regulator, Server(model)).regulator_result
    assert isinstance(result, Certificate)
    assert "features" not in vars(regulator.dataset)
    assert "samples" not in vars(regulator.dataset)


# --- in-process certification flows ------------------------------------------------------


def _honest_certification(link):
    regulator, server, _, model = certification_setup()
    run = run_certification_local(regulator, server, link=link)
    cert = run.regulator_result
    assert isinstance(cert, Certificate)
    assert run.server_result == cert
    assert server.certificate == cert
    assert cert.model_digest == merkle_root(serialize_model(model))
    assert verify_certificate(regulator.keypair.verification_key, cert)
    assert run.session is not None and run.session.abort_reason is None


def test_honest_certification_issues_certificate():
    _honest_certification(channel_pair)


def test_certification_over_tcp():
    _honest_certification(tcp_link)


def test_unfair_model_rejected():
    regulator, server, _, _ = certification_setup(
        group_counts=(200, 200),
        rates=(Fraction(0), Fraction(9, 20)),
        spec=FairnessSpec(
            metric=FairnessMetric.ORE, epsilon=Fraction(1, 5), delta=Fraction(1, 5)
        ),
    )
    run = run_certification_local(regulator, server)
    assert run.regulator_result == CertFailure(REASON_NOT_FAIR)
    assert run.server_result == CertFailure(REASON_NOT_FAIR)
    assert server.certificate is None


OTHER_SPEC = FairnessSpec(metric=FairnessMetric.ORE, epsilon=Fraction(1, 4), delta=Fraction(1, 5))

# What a deviating regulator sends in place of the certificate it issued,
# and the server's outcome for it.
FORGED_CERTIFICATES = {
    "truncated": (lambda cert: b"FCRT1trunc", REASON_SIG_INVALID),
    "empty": (lambda cert: b"", REASON_SIG_INVALID),
    "other-root": (
        lambda cert: issue_certificate(keygen(KEY_SEED), bytes(32), cert.spec).to_bytes(),
        REASON_SIG_INVALID,
    ),
    "other-spec": (
        lambda cert: issue_certificate(keygen(KEY_SEED), cert.model_digest, OTHER_SPEC).to_bytes(),
        REASON_SPEC_MISMATCH,
    ),
}


@pytest.mark.parametrize("forge, reason", FORGED_CERTIFICATES.values(),
                         ids=FORGED_CERTIFICATES.keys())
def test_server_stores_no_certificate_it_was_not_owed(monkeypatch, forge, reason):
    def forged(frame):
        return Frame(FRAME_CERTIFICATE, forge(Certificate.from_bytes(frame.payload)))

    certify = Regulator.certify
    monkeypatch.setattr(
        Regulator,
        "certify",
        lambda self, server, dealer: certify(
            self, lambda: FrameRewriter(server(), FRAME_CERTIFICATE, forged), dealer
        ),
    )
    regulator, server, _, _ = certification_setup()
    for link in LINKS:
        run = run_certification_local(regulator, server, link=link)
        assert isinstance(run.regulator_result, Certificate)
        assert run.server_result == CertFailure(reason)
        assert server.certificate is None


def test_precheck_failure_never_contacts_server():
    regulator, server, _, _ = certification_setup(group_counts=(10, 10))
    run = run_certification_local(regulator, server)
    assert run.regulator_result == CertFailure(REASON_PRECHECK_FAILED)
    assert run.server_result is None  # server saw only its channel closing
    assert run.recorders["reg_to_server"].sent == []
    assert run.recorders["reg_to_dealer"].sent == []


def test_dimension_mismatch_aborts_via_dealer():
    regulator, _, _, _ = certification_setup()
    wrong_shape = Server(LinearModel(2, 2, ((1, 2), (3, 4)), (0, 0)))
    run = run_certification_local(regulator, wrong_shape)
    assert run.regulator_result == CertFailure(REASON_FSC_ABORT)
    assert run.server_result == CertFailure(REASON_FSC_ABORT)
    assert run.session.abort_reason == "DIMENSION_MISMATCH"


def test_wrapper_with_too_few_flip_rates_aborts_both_parties():
    regulator, _, _, model = certification_setup()
    one_rate = Server(BiasedModel(model.inner, (Fraction(1, 10),), model.seed))
    for link in LINKS:
        run = run_certification_local(regulator, one_rate, link=link)
        assert run.regulator_result == run.server_result == CertFailure(REASON_FSC_ABORT)
        assert run.session.abort_reason == "GROUP_MISMATCH"


def test_model_with_more_labels_than_the_bundle_aborts_both_parties():
    regulator, _, _, model = certification_setup()
    dim = model.dimension
    three_labels = Server(LinearModel(dim, 3, ((0,) * dim,) * 3, (0, 0, 1)))
    for link in LINKS:
        run = run_certification_local(regulator, three_labels, link=link)
        assert run.regulator_result == run.server_result == CertFailure(REASON_FSC_ABORT)
        assert run.session.abort_reason == "LABEL_MISMATCH"


def test_a_wrong_circuit_byte_aborts_both_parties(monkeypatch):
    # An unknown circuit, or the other one, named by the server in a
    # certification or by the client in an inference.
    regulator, server, _, _ = certification_setup()
    serving, _, pair = linear_server()
    client = Client((0, fx.ONE, 0), pair.verification_key, CHEAP_SPEC)
    for link in LINKS:
        for circuit_id in (7, CIRCUIT_INFER):
            with monkeypatch.context() as patch:
                naming_circuit(patch, Server, "serve_certification", circuit_id)
                run = run_certification_local(regulator, server, link=link)
            assert run.regulator_result == run.server_result == CertFailure(REASON_FSC_ABORT)
            assert run.session.abort_reason == "CIRCUIT_MISMATCH"
        for circuit_id in (7, CIRCUIT_CERT):
            with monkeypatch.context() as patch:
                naming_circuit(patch, Client, "infer", circuit_id)
                run = run_inference_local(client, serving, link=link)
            assert run.client_result == run.server_result == Reject(REASON_FSC_ABORT)
            assert run.session.abort_reason == "CIRCUIT_MISMATCH"


@pytest.mark.parametrize("rewrite", NO_CIRCUIT.values(), ids=NO_CIRCUIT.keys())
def test_a_dealer_frame_that_names_no_circuit_aborts_both_parties(monkeypatch, rewrite):
    # From the server or the checker, in a certification or an inference.
    regulator, server, _, _ = certification_setup()
    serving, _, pair = linear_server()
    client = Client((0, fx.ONE, 0), pair.verification_key, CHEAP_SPEC)
    certify = (run_certification_local, regulator, server, "regulator_result", CertFailure)
    infer = (run_inference_local, client, serving, "client_result", Reject)
    deviators = (
        (certify, Server, "serve_certification"),
        (certify, Regulator, "certify"),
        (infer, Server, "serve_inference"),
        (infer, Client, "infer"),
    )
    for link in LINKS:
        for (run_local, checker, held, checker_result, failure), role_class, method in deviators:
            dealer._served.cache_clear()
            with monkeypatch.context() as patch:
                rewriting_dealer_input(patch, role_class, method, rewrite)
                run = run_local(checker, held, link=link)
            assert run.server_result == getattr(run, checker_result) == failure(REASON_FSC_ABORT)
            assert run.session.abort_reason == "CIRCUIT_MISMATCH"
            assert run.session.output is None
            last = run.session.transcript[-1]
            assert (last.party, last.kind) == ("F", "abort")
            # An empty server input takes no slot in the dealer's memo.
            assert dealer._served.cache_info().currsize == (role_class is not Server)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_bundle_encoded_once_and_each_model_parsed_once(monkeypatch):
    encodes = _count_calls(monkeypatch, protocol, "encode_test_bundle")
    decodes = _count_calls(monkeypatch, dealer, "decode_test_bundle")
    parses = _count_calls(monkeypatch, dealer, "deserialize_model")
    regulator, server, _, model = certification_setup()
    other = Server(BiasedModel(model.inner, model.flip_rates, b"\x02" * 8))
    for _ in range(2):
        for each in (server, other):
            run = run_certification_local(regulator, each)
            assert isinstance(run.regulator_result, Certificate)
    assert (len(encodes), len(decodes)) == (1, 4)
    assert parses == [(server.model_bytes,), (other.model_bytes,)]


@pytest.mark.parametrize(
    ("spec", "aug"), ((CHEAP_SPEC, None), (AUG_SPEC, AUG)), ids=("private", "augmented")
)
def test_server_sends_the_regulator_only_its_hello(spec, aug):
    # In either mode the server's model goes to the dealer in one input
    # frame, and the regulator hears nothing from the server but its hello.
    regulator, server, _, model = certification_setup(spec=spec, aug=aug)
    run = run_certification_local(regulator, server)
    cert = run.regulator_result
    assert isinstance(cert, Certificate)
    assert cert.spec == spec
    (hello,) = run.recorders["server_to_reg"].sent
    assert decode_frame(hello).type == FRAME_HELLO
    expected = Frame(
        FRAME_COMPUTE_INPUT, bytes([CIRCUIT_CERT]) + serialize_model(model)
    ).encode()
    assert run.recorders["server_to_dealer"].sent[1] == expected


def test_model_bytes_never_reach_the_regulator():
    regulator, server, _, model = certification_setup()
    run = run_certification_local(regulator, server)
    assert isinstance(run.regulator_result, Certificate)
    model_bytes = serialize_model(model)
    regulator_saw = b"".join(
        run.recorders["reg_to_server"].received
        + run.recorders["reg_to_dealer"].received
        + run.recorders["server_to_reg"].sent
    )
    assert model_bytes not in regulator_saw
    dealer_leg = b"".join(run.recorders["server_to_dealer"].sent)
    assert model_bytes in dealer_leg  # it went to the dealer and nowhere else


def _wire_and_session_transcripts(links):
    wires, lines = [], []
    for link in links:
        regulator, server, _, _ = certification_setup()
        run = run_certification_local(regulator, server, link=link)
        assert isinstance(run.regulator_result, Certificate)
        wires.append({k: b"".join(rec.sent) for k, rec in run.recorders.items()})
        lines.append(run.session.transcript_lines())
    assert len(wires[0]["reg_to_dealer"]) > 0
    return wires, lines


def test_certification_wire_determinism():
    wires, lines = _wire_and_session_transcripts((channel_pair, channel_pair))
    assert wires[0] == wires[1]
    assert lines[0] == lines[1]


def test_tcp_and_local_transcripts_match():
    wires, lines = _wire_and_session_transcripts((channel_pair, tcp_link))
    assert wires[0] == wires[1]
    assert lines[0] == lines[1]


def test_completeness_across_seeds():
    certified = 0
    for k in range(100):
        regulator, server, _, _ = certification_setup(seed=bytes([k + 1]) * 8)
        run = run_certification_local(regulator, server)
        if isinstance(run.regulator_result, Certificate):
            certified += 1
    assert certified == 100  # zero-gap plants at the exact bound always pass


# --- in-process inference flows -----------------------------------------------------------


def linear_server(certify_with=None, spec=CHEAP_SPEC):
    model = LinearModel(
        3, 2, ((fx.ONE, 0, 0), (0, fx.ONE, 0)), (0, 0)
    )
    server = Server(model)
    pair = keygen(KEY_SEED)
    digest_source = certify_with if certify_with is not None else server.model_bytes
    server.certificate = issue_certificate(pair, merkle_root(digest_source), spec)
    return server, model, pair


def _honest_inference(link):
    server, model, pair = linear_server()
    features = (fx.ONE // 4, 2 * fx.ONE, -3 * fx.ONE)
    client = Client(features, pair.verification_key, CHEAP_SPEC)
    run = run_inference_local(client, server, link=link)
    result = run.client_result
    assert isinstance(result, AcceptedPrediction)
    assert result.label == predict(model, Sample(features, 0, 0)) == 1
    assert result.model_digest == merkle_root(server.model_bytes)
    assert run.server_result is None  # clean close, no rejection


def test_honest_inference_accepts():
    _honest_inference(channel_pair)


def test_inference_over_tcp():
    _honest_inference(tcp_link)


def test_tampered_weights_detected():
    # certificate covers a different model than the one actually served
    other = serialize_model(LinearModel(3, 2, ((1, 1, 1), (2, 2, 2)), (0, 0)))
    server, _, pair = linear_server(certify_with=other)
    client = Client((0, 0, 0), pair.verification_key, CHEAP_SPEC)
    run = run_inference_local(client, server)
    assert run.client_result == Reject(REASON_SIG_INVALID)
    assert run.server_result == Reject(REASON_SIG_INVALID)


def test_wrong_key_detected():
    server, _, _ = linear_server()
    stranger = keygen(bytes(reversed(KEY_SEED)))
    client = Client((0, 0, 0), stranger.verification_key, CHEAP_SPEC)
    run = run_inference_local(client, server)
    assert run.client_result == Reject(REASON_SIG_INVALID)


def test_spec_mismatch_detected_before_signature():
    server, _, pair = linear_server()
    demanded = FairnessSpec(
        metric=FairnessMetric.ORE, epsilon=Fraction(1, 10), delta=Fraction(1, 5)
    )
    client = Client((0, 0, 0), pair.verification_key, demanded)
    run = run_inference_local(client, server)
    assert run.client_result == Reject(REASON_SPEC_MISMATCH)
    assert run.server_result == Reject(REASON_SPEC_MISMATCH)


def test_inference_without_certificate_refused_locally():
    server = Server(LinearModel(1, 2, ((1,), (2,)), (0, 0)))
    with pytest.raises(ValueError):
        server.serve_inference(None, lambda: None)


def test_query_never_reaches_the_server():
    server, _, pair = linear_server()
    features = (12345, -67890, fx.ONE)
    client = Client(features, pair.verification_key, CHEAP_SPEC)
    run = run_inference_local(client, server)
    assert isinstance(run.client_result, AcceptedPrediction)
    query = encode_query(features)
    server_saw = b"".join(
        run.recorders["server_to_client"].received
        + run.recorders["server_to_dealer"].received
        + run.recorders["client_to_server"].sent
    )
    assert query not in server_saw
    assert query in b"".join(run.recorders["client_to_dealer"].sent)
    # and the model stayed on its dealer leg, invisible to the client
    client_saw = b"".join(
        run.recorders["client_to_server"].received
        + run.recorders["client_to_dealer"].received
    )
    assert server.model_bytes not in client_saw


@pytest.mark.parametrize("bad", (2**31, -(2**31) - 1, 0.5))
def test_client_refuses_a_feature_outside_int32_before_any_channel(bad):
    server, _, pair = linear_server()
    opened = []

    def factory():
        opened.append(True)
        raise AssertionError("no channel may open")

    with pytest.raises(ValueError, match="feature outside the signed 32-bit range"):
        Client((0, bad, 0), pair.verification_key, CHEAP_SPEC).infer(factory, factory)
    assert opened == []
    # The int32 edges themselves are served.
    client = Client((fx.INT32_MIN, fx.INT32_MAX, 0), pair.verification_key, CHEAP_SPEC)
    assert isinstance(run_inference_local(client, server).client_result, AcceptedPrediction)


def test_inference_parses_each_model_once_across_sessions(monkeypatch):
    parses = _count_calls(monkeypatch, dealer, "deserialize_model")
    server, _, pair = linear_server()
    other = _certified(Server(LinearModel(3, 2, ((1, 1, 1), (2, 2, 2)), (0, 0))), pair)
    client = Client((0, fx.ONE, 0), pair.verification_key, CHEAP_SPEC)
    for _ in range(3):
        for each in (server, other):
            result = run_inference_local(client, each).client_result
            assert isinstance(result, AcceptedPrediction)
    assert parses == [(server.model_bytes,), (other.model_bytes,)]


def _certified(server, pair):
    server.certificate = issue_certificate(pair, merkle_root(server.model_bytes), CHEAP_SPEC)
    return server


def test_inference_roots_each_model_once_keyed_by_its_exact_bytes(monkeypatch):
    roots = _count_calls(monkeypatch, dealer, "merkle_root")
    pair = keygen(KEY_SEED)
    weights = ((fx.ONE, 0, 0), (0, fx.ONE, 0))
    base, one_byte_off, other = (
        _certified(Server(model), pair)
        for model in (
            LinearModel(3, 2, weights, (0, 0)),
            LinearModel(3, 2, weights, (0, 1)),
            LinearModel(3, 2, ((1, 1, 1), (2, 2, 2)), (0, 0)),
        )
    )
    assert len(one_byte_off.model_bytes) == len(base.model_bytes)
    assert sum(a != b for a, b in zip(base.model_bytes, one_byte_off.model_bytes)) == 1
    client = Client((0, fx.ONE, 0), pair.verification_key, CHEAP_SPEC)
    for link in LINKS:
        dealer._served.cache_clear()
        roots.clear()
        for _ in range(3):
            for server in (base, other, one_byte_off):
                result = run_inference_local(client, server, link=link).client_result
                assert isinstance(result, AcceptedPrediction)
                assert result.model_digest == merkle_root(server.model_bytes)
        assert len(roots) == 3  # one per model; every later session hits the memo


def test_malformed_model_aborts_every_time():
    pair = keygen(KEY_SEED)
    server = Server(LinearModel(3, 2, ((1, 1, 1), (2, 2, 2)), (0, 0)))
    server.model_bytes = b"NOTRIGHT" + bytes(32)
    _certified(server, pair)
    client = Client((0, 0, 0), pair.verification_key, CHEAP_SPEC)
    for link in LINKS:
        for _ in range(2):
            run = run_inference_local(client, server, link=link)
            assert run.client_result == Reject(REASON_FSC_ABORT)
            assert run.session.abort_reason == "MALFORMED_MODEL"


def test_inference_aborts_propagate():
    server, _, pair = linear_server()
    client = Client((fx.ONE,), pair.verification_key, CHEAP_SPEC)  # wrong dim
    run = run_inference_local(client, server)
    assert run.client_result == Reject(REASON_FSC_ABORT)
    assert run.server_result == Reject(REASON_FSC_ABORT)
    assert run.session.abort_reason == "DIMENSION_MISMATCH"


class _PartyFault(RuntimeError):
    pass


def _fail(*args):
    raise _PartyFault("party fault")


def _raises_promptly(run):
    """With the default 30 s timeout, the harness raises the failing party's
    own exception on both links, well before any peer could time out."""
    for link in LINKS:
        start = time.monotonic()
        with pytest.raises(_PartyFault):
            run(link)
        assert time.monotonic() - start < 2.0


def test_certification_harness_reraises_the_dealer_failure(monkeypatch):
    monkeypatch.setattr(dealer, "augment_dataset", _fail)
    regulator, server, _, _ = certification_setup(spec=AUG_SPEC, aug=AUG)
    _raises_promptly(lambda link: run_certification_local(regulator, server, link=link))


def test_inference_harness_reraises_the_dealer_failure(monkeypatch):
    monkeypatch.setattr(dealer, "deserialize_model", _fail)
    server, _, pair = linear_server()
    client = Client((0, fx.ONE, 0), pair.verification_key, CHEAP_SPEC)
    _raises_promptly(lambda link: run_inference_local(client, server, link=link))


def test_harness_reraises_the_server_failure(monkeypatch):
    monkeypatch.setattr(protocol, "decode_cert_request", _fail)
    regulator, server, _, _ = certification_setup()
    _raises_promptly(lambda link: run_certification_local(regulator, server, link=link))


# --- the dealer endpoint -----------------------------------------------------------------


def test_serve_dealer_takes_the_checker_channel_first(monkeypatch):
    def swapped(server_end, checker_end):
        return serve_dealer(checker_end, server_end)

    monkeypatch.setattr(protocol, "serve_dealer", swapped)
    for link in LINKS:
        _honest_certification(link)
        _honest_inference(link)


def test_serve_dealer_refuses_two_channels_of_one_party():
    (first, dealer_a), (second, dealer_b) = channel_pair(1.0), channel_pair(1.0)
    hello = Frame(FRAME_HELLO, struct.pack("<BH", ROLE_SERVER, PROTOCOL_VERSION))
    first.send_frame(hello)
    second.send_frame(hello)
    with pytest.raises(ProtocolError):
        serve_dealer(dealer_a, dealer_b)


@pytest.mark.parametrize("role", (ROLE_DEALER, 200))
def test_serve_dealer_refuses_a_role_no_party_holds(role):
    # The peer sends a query as a client would, but only a regulator, a
    # server or a client may feed a circuit: it gets no output.
    server, _, _ = linear_server()
    query = Frame(FRAME_COMPUTE_INPUT, bytes([CIRCUIT_INFER]) + encode_query((0, fx.ONE, 0)))
    model = Frame(FRAME_COMPUTE_INPUT, bytes([CIRCUIT_INFER]) + server.model_bytes)
    for link in LINKS:
        (peer, dealer_peer), (srv, dealer_srv) = link(1.0), link(1.0)
        peer.send_frame(Frame(FRAME_HELLO, struct.pack("<BH", role, PROTOCOL_VERSION)))
        peer.send_frame(query)
        srv.send_frame(Frame(FRAME_HELLO, struct.pack("<BH", ROLE_SERVER, PROTOCOL_VERSION)))
        srv.send_frame(model)
        with pytest.raises(ProtocolError, match=f"role {role} cannot"):
            serve_dealer(dealer_peer, dealer_srv)
        dealer_peer.close()
        assert peer.recv_frame().type == FRAME_HELLO  # the dealer's own hello
        with pytest.raises(ChannelClosed):
            peer.recv_frame()
        for end in (peer, srv, dealer_srv):
            end.close()


# --- TCP transport ---------------------------------------------------------------------


def test_tcp_sessions_keep_every_frame_ahead_of_the_close():
    # Each party closes its sockets once its own call returns, so a frame
    # lost to an early close would show here as a None outcome or a timeout.
    regulator, fair, _, _ = certification_setup()
    undersampled, _, _, _ = certification_setup(group_counts=(10, 10))
    wrong_shape = Server(LinearModel(2, 2, ((1, 2), (3, 4)), (0, 0)))
    server, _, pair = linear_server()
    query = Client((0, fx.ONE, 0), pair.verification_key, CHEAP_SPEC)
    wrong_dim = Client((fx.ONE,), pair.verification_key, CHEAP_SPEC)
    abort = CertFailure(REASON_FSC_ABORT)
    for _ in range(50):
        run = run_certification_local(regulator, fair, link=tcp_link)
        assert isinstance(run.regulator_result, Certificate)
        assert run.server_result == run.regulator_result
        run = run_certification_local(regulator, wrong_shape, link=tcp_link)
        assert run.regulator_result == run.server_result == abort
        run = run_certification_local(undersampled, fair, link=tcp_link)
        assert run.regulator_result == CertFailure(REASON_PRECHECK_FAILED)
        assert run.server_result is None and run.session is None
        run = run_inference_local(query, server, link=tcp_link)
        assert isinstance(run.client_result, AcceptedPrediction)
        assert run.server_result is None
        run = run_inference_local(wrong_dim, server, link=tcp_link)
        assert run.client_result == run.server_result == Reject(REASON_FSC_ABORT)
