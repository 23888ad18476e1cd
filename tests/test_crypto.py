import hashlib
import struct
from fractions import Fraction

import pytest
from conftest import mutated, returns_or_raises, specs
from hypothesis import given, settings
from hypothesis import strategies as st

from faircert import crypto
from faircert.crypto import (
    CHUNK_BYTES,
    Certificate,
    EmptyInputError,
    MalformedCertificateError,
    MalformedKeyError,
    decode_fairness_spec,
    encode_fairness_spec,
    issue_certificate,
    key_id,
    keygen,
    length_trailer_chunk,
    merkle_root,
    sign,
    verify,
    verify_certificate,
)
from faircert.dealer import decode_test_bundle, encode_test_bundle
from faircert.fairness import FairnessMetric, FairnessSpec
from faircert.model import Dataset, LinearModel, MalformedDatasetError, serialize_model
from faircert.protocol import ProtocolError, decode_cert_request, encode_cert_request

SEED = bytes(range(32))


def sha3(data):
    return hashlib.sha3_256(data).digest()


def spec_of(eps="0.1", delta="0.05", alpha=None, metric=FairnessMetric.ORE):
    return FairnessSpec(
        metric=metric,
        epsilon=Fraction(eps),
        delta=Fraction(delta),
        alpha=None if alpha is None else Fraction(alpha),
    )


# --- Merkle commitment -------------------------------------------------------


def reference_root(data):
    """Independent re-derivation used to cross-check merkle_root."""
    chunks = [data[i : i + 64].ljust(64, b"\x00") for i in range(0, len(data), 64)]
    chunks.append(struct.pack("<Q", len(data)).ljust(64, b"\x00"))
    nodes = [sha3(b"\x00" + c) for c in chunks]
    while len(nodes) > 1:
        paired = [
            sha3(b"\x01" + nodes[i] + nodes[i + 1])
            for i in range(0, len(nodes) - 1, 2)
        ]
        if len(nodes) % 2:
            paired.append(nodes[-1])
        nodes = paired
    return nodes[0]


def test_two_leaf_literal_oracle():
    data = b"hello"
    leaf0 = sha3(b"\x00" + data.ljust(64, b"\x00"))
    leaf1 = sha3(b"\x00" + (5).to_bytes(8, "little").ljust(64, b"\x00"))
    assert merkle_root(data) == sha3(b"\x01" + leaf0 + leaf1)


def test_trailer_chunk_layout():
    chunk = length_trailer_chunk(300)
    assert len(chunk) == CHUNK_BYTES
    assert chunk[:8] == (300).to_bytes(8, "little")
    assert chunk[8:] == bytes(56)


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        merkle_root(b"")


@settings(max_examples=200)
@given(st.binary(min_size=1, max_size=400))
def test_matches_reference_implementation(data):
    assert merkle_root(data) == reference_root(data)


def test_length_binding():
    # same chunk content, different length: padding vs explicit zeros
    assert merkle_root(b"a") != merkle_root(b"a\x00")
    assert merkle_root(b"x" * 64) != merkle_root(b"x" * 64 + b"\x00" * 64)


def test_avalanche_sample():
    base = bytearray(serialize_model(LinearModel(3, 2, ((1, 2, 3), (4, 5, 6)), (7, 8))))
    root = merkle_root(bytes(base))
    seen = {root}
    for bit in range(0, len(base) * 8, 7):
        mutated = bytearray(base)
        mutated[bit // 8] ^= 1 << (bit % 8)
        seen.add(merkle_root(bytes(mutated)))
    assert len(seen) == 1 + len(range(0, len(base) * 8, 7))


def test_binding_over_random_inputs():
    import random

    rng = random.Random(1234)
    inputs = {rng.randbytes(rng.randint(1, 200)) for _ in range(3000)}
    roots = {merkle_root(d) for d in inputs}
    assert len(roots) == len(inputs)


# --- signatures ---------------------------------------------------------------


def test_keygen_deterministic():
    a = keygen(SEED)
    b = keygen(SEED)
    assert a == b
    assert len(a.verification_key) == 32
    assert a.signing_key == SEED


def test_sign_verify_round_trip():
    pair = keygen(SEED)
    message = b"attest: model is within tolerance"
    signature = sign(pair.signing_key, message)
    assert len(signature) == 64
    assert verify(pair.verification_key, message, signature)


def test_verify_rejects_tampering():
    pair = keygen(SEED)
    message = b"some message"
    signature = sign(pair.signing_key, message)
    assert not verify(pair.verification_key, message + b"!", signature)
    assert not verify(pair.verification_key, message, bytes(64))
    assert not verify(pair.verification_key, message, signature[:-1])
    other = keygen(bytes(reversed(SEED)))
    assert not verify(other.verification_key, message, signature)


def test_key_length_validation():
    with pytest.raises(MalformedKeyError):
        keygen(b"short")
    with pytest.raises(MalformedKeyError):
        sign(b"short", b"m")
    with pytest.raises(MalformedKeyError):
        verify(b"short", b"m", bytes(64))
    with pytest.raises(MalformedKeyError):
        key_id(b"short")


@given(st.sampled_from(("key", "message", "signature")), st.data())
def test_verify_memo_answers_only_the_exact_bytes(part, data):
    # A success is kept; a one-byte change to any of the three strings is
    # another key of the memo, and answers False as a fresh check does.
    pair = keygen(SEED)
    parts = {"key": pair.verification_key, "message": b"certified model digest"}
    parts["signature"] = sign(pair.signing_key, parts["message"])
    for _ in range(2):
        assert verify(parts["key"], parts["message"], parts["signature"]) is True
    changed = bytearray(parts[part])
    changed[data.draw(st.integers(0, len(changed) - 1))] ^= data.draw(st.integers(1, 255))
    parts[part] = bytes(changed)
    for _ in range(2):
        assert verify(parts["key"], parts["message"], parts["signature"]) is False


def test_verify_memo_keeps_answers_from_earlier_checks():
    pair = keygen(SEED)
    message = b"m"
    signature = sign(pair.signing_key, message)
    crypto._verified.cache_clear()
    for _ in range(3):
        assert verify(pair.verification_key, message, signature)
        assert not verify(pair.verification_key, message + b"!", signature)
    info = crypto._verified.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_verify_refuses_a_short_key_every_time():
    pair = keygen(SEED)
    message = b"m"
    signature = sign(pair.signing_key, message)
    assert verify(pair.verification_key, message, signature)
    for _ in range(3):
        with pytest.raises(MalformedKeyError):
            verify(pair.verification_key[:31], message, signature)


def test_key_id_is_hash_of_key():
    pair = keygen(SEED)
    assert key_id(pair.verification_key) == sha3(pair.verification_key)


# --- spec encoding --------------------------------------------------------------


def test_spec_encoding_layout():
    enc = encode_fairness_spec(spec_of())
    metric_id, eps, delta, alpha = struct.unpack_from("<BIII", enc)
    assert (metric_id, eps, delta, alpha) == (0, 100_000, 50_000, 0xFFFFFFFF)
    (fs_len,) = struct.unpack_from("<H", enc, 13)
    assert enc[15 : 15 + fs_len] == b"ore-private"
    assert len(enc) == 15 + fs_len


def test_spec_round_trip_private_and_augmented():
    for spec in (
        spec_of(),
        spec_of(metric=FairnessMetric.EO, alpha="0.2"),
        spec_of(metric=FairnessMetric.DP, eps="0.999999", delta="0.000001"),
    ):
        decoded, offset = decode_fairness_spec(encode_fairness_spec(spec))
        assert decoded == spec
        assert offset == len(encode_fairness_spec(spec))


def test_spec_decode_rejects_malformed():
    enc = encode_fairness_spec(spec_of())
    with pytest.raises(MalformedCertificateError):
        decode_fairness_spec(enc[:10])
    with pytest.raises(MalformedCertificateError):
        decode_fairness_spec(enc[:-3])
    bad_metric = bytearray(enc)
    bad_metric[0] = 7
    with pytest.raises(MalformedCertificateError):
        decode_fairness_spec(bytes(bad_metric))


def foreign_tag_spec(metric_id, alpha, tag):
    """A spec encoding whose fields are all in range but whose tag is not
    the one its metric and mode name."""
    return struct.pack("<BIIIH", metric_id, 100_000, 50_000, alpha, len(tag)) + tag


FOREIGN_TAGS = (
    foreign_tag_spec(0, 0xFFFFFFFF, b"eo-private"),  # ORE id, EO tag
    foreign_tag_spec(0, 200_000, b"ore-private"),  # alpha present, private tag
    foreign_tag_spec(0, 0xFFFFFFFF, b"\xff\xfeore"),  # not UTF-8
)


@pytest.mark.parametrize("enc", FOREIGN_TAGS)
def test_spec_decode_rejects_a_foreign_tag(enc):
    with pytest.raises(MalformedCertificateError):
        decode_fairness_spec(enc)
    good = issue_certificate(keygen(SEED), model_digest(), spec_of()).to_bytes()
    spec_len = len(encode_fairness_spec(spec_of()))
    head = len(crypto.CERT_MAGIC) + crypto.DIGEST_BYTES
    with pytest.raises(MalformedCertificateError):
        Certificate.from_bytes(good[:head] + enc + good[head + spec_len :])


@pytest.mark.parametrize("enc", FOREIGN_TAGS)
def test_a_foreign_tag_is_refused_inside_a_request_and_a_bundle(enc):
    spec_len = len(encode_fairness_spec(spec_of()))
    request = encode_cert_request(spec_of(), 100, None)
    with pytest.raises(ProtocolError):
        decode_cert_request(enc + request[spec_len:])
    dataset = Dataset.from_columns(2, 2, 2, ((1, 2), (3, 4)), (0, 1), (1, 0))
    bundle = encode_test_bundle(spec_of(), dataset)
    with pytest.raises(MalformedDatasetError):
        decode_test_bundle(enc + bundle[spec_len:])


# --- certificates ----------------------------------------------------------------


def model_digest():
    return merkle_root(serialize_model(LinearModel(2, 2, ((1, 0), (0, 1)), (0, 0))))


def test_issue_and_verify():
    pair = keygen(SEED)
    cert = issue_certificate(pair, model_digest(), spec_of())
    assert verify_certificate(pair.verification_key, cert)
    assert cert.regulator_key_id == key_id(pair.verification_key)


def test_certificate_round_trip():
    pair = keygen(SEED)
    cert = issue_certificate(pair, model_digest(), spec_of(alpha="0.25"))
    assert Certificate.from_bytes(cert.to_bytes()) == cert


def test_certificate_binds_model_digest():
    pair = keygen(SEED)
    cert = issue_certificate(pair, model_digest(), spec_of())
    other_digest = merkle_root(b"some other model bytes")
    forged = Certificate(other_digest, cert.spec, cert.regulator_key_id, cert.signature)
    assert not verify_certificate(pair.verification_key, forged)


def test_certificate_binds_spec_parameters():
    pair = keygen(SEED)
    cert = issue_certificate(pair, model_digest(), spec_of(eps="0.05"))
    # eps nudged by one micro-step: 0.05 -> 0.051
    forged = Certificate(
        cert.model_digest,
        spec_of(eps="0.051"),
        cert.regulator_key_id,
        cert.signature,
    )
    assert not verify_certificate(pair.verification_key, forged)
    relabeled = Certificate(
        cert.model_digest,
        spec_of(eps="0.05", metric=FairnessMetric.EO),
        cert.regulator_key_id,
        cert.signature,
    )
    assert not verify_certificate(pair.verification_key, relabeled)


def test_certificate_rejects_wrong_key():
    pair = keygen(SEED)
    other = keygen(bytes(reversed(SEED)))
    cert = issue_certificate(pair, model_digest(), spec_of())
    assert not verify_certificate(other.verification_key, cert)
    # even with a matching key id, the signature must check out
    relabeled = Certificate(
        cert.model_digest, cert.spec, key_id(other.verification_key), cert.signature
    )
    assert not verify_certificate(other.verification_key, relabeled)


def test_certificate_from_bytes_rejects_malformed():
    pair = keygen(SEED)
    data = issue_certificate(pair, model_digest(), spec_of()).to_bytes()
    with pytest.raises(MalformedCertificateError):
        Certificate.from_bytes(data[:-1])
    with pytest.raises(MalformedCertificateError):
        Certificate.from_bytes(data + b"\x00")
    with pytest.raises(MalformedCertificateError):
        Certificate.from_bytes(b"WRONG" + data[5:])


@given(specs(), st.binary(min_size=32, max_size=32), st.binary(max_size=80), st.data())
def test_certificate_from_bytes_raises_only_malformed_certificate(spec, digest, noise, data):
    blob = Certificate(digest, spec, digest, bytes(64)).to_bytes()
    blobs = (noise, mutated(data, blob))
    returns_or_raises(Certificate.from_bytes, blobs, MalformedCertificateError)


def test_tampered_signature_bit_fails():
    pair = keygen(SEED)
    cert = issue_certificate(pair, model_digest(), spec_of())
    sig = bytearray(cert.signature)
    sig[10] ^= 0x04
    tampered = Certificate(cert.model_digest, cert.spec, cert.regulator_key_id, bytes(sig))
    assert not verify_certificate(pair.verification_key, tampered)
