"""Commitments and certificates.

A model is committed to by a Merkle root over its canonical bytes: 64-byte
chunks, the last one zero-padded, plus one trailer chunk carrying the true
byte length (8-byte little-endian, zero-padded to a full chunk). Leaves and
interior nodes are domain-separated SHA3-256; an odd node is promoted to the
next level unchanged.

Certificates are Ed25519 signatures over a fixed message layout binding the
model digest to the fairness parameters it was certified for. Signing is
deterministic, so certificate bytes are reproducible from the same key.

Verification is a pure function of its three byte strings, and a client
querying one server checks the same signature over the same message every
time, so the last few answers are kept in an LRU keyed by those exact
bytes: a repeated check returns what a fresh one would, without the curve
arithmetic.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

from .fairness import FairnessMetric, FairnessSpec, micro_fraction, to_micro

CHUNK_BYTES = 64
DIGEST_BYTES = 32
KEY_BYTES = 32
SIGNATURE_BYTES = 64
_SIGNATURES_KEPT = 16  # (key, message, signature) answers verify keeps
CERT_MAGIC = b"FCRT1"

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
_ALPHA_ABSENT = 0xFFFFFFFF

_METRIC_IDS = {FairnessMetric.ORE: 0, FairnessMetric.EO: 1, FairnessMetric.DP: 2}
_METRIC_BY_ID = {v: k for k, v in _METRIC_IDS.items()}


class EmptyInputError(ValueError):
    pass


class MalformedKeyError(ValueError):
    pass


class MalformedCertificateError(ValueError):
    pass


def _sha3(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def length_trailer_chunk(length: int) -> bytes:
    return struct.pack("<Q", length).ljust(CHUNK_BYTES, b"\x00")


def merkle_root(data: bytes) -> bytes:
    """Commitment digest over arbitrary nonempty bytes."""
    if not data:
        raise EmptyInputError("cannot commit to empty input")
    chunks = [data[i : i + CHUNK_BYTES] for i in range(0, len(data), CHUNK_BYTES)]
    chunks[-1] = chunks[-1].ljust(CHUNK_BYTES, b"\x00")
    chunks.append(length_trailer_chunk(len(data)))
    level = [_sha3(_LEAF_PREFIX + c) for c in chunks]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(_sha3(_NODE_PREFIX + level[i] + level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


@dataclass(frozen=True)
class KeyPair:
    signing_key: bytes
    verification_key: bytes


def keygen(seed: bytes) -> KeyPair:
    """Derive a deterministic Ed25519 key pair from a 32-byte seed."""
    if len(seed) != KEY_BYTES:
        raise MalformedKeyError("signing seed must be 32 bytes")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    return KeyPair(signing_key=seed, verification_key=public)


def sign(signing_key: bytes, message: bytes) -> bytes:
    if len(signing_key) != KEY_BYTES:
        raise MalformedKeyError("signing key must be 32 bytes")
    return Ed25519PrivateKey.from_private_bytes(signing_key).sign(message)


def verify(verification_key: bytes, message: bytes, signature: bytes) -> bool:
    if len(verification_key) != KEY_BYTES:
        raise MalformedKeyError("verification key must be 32 bytes")
    if len(signature) != SIGNATURE_BYTES:
        return False
    return _verified(bytes(verification_key), bytes(message), bytes(signature))


@functools.lru_cache(maxsize=_SIGNATURES_KEPT)
def _verified(verification_key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(verification_key).verify(signature, message)
        return True
    except InvalidSignature:
        return False


def key_id(verification_key: bytes) -> bytes:
    """Published identifier of a regulator key: SHA3-256 of the raw key."""
    if len(verification_key) != KEY_BYTES:
        raise MalformedKeyError("verification key must be 32 bytes")
    return _sha3(verification_key)


def encode_fairness_spec(spec: FairnessSpec) -> bytes:
    """Wire form shared by certificates and certification requests."""
    alpha = _ALPHA_ABSENT if spec.alpha is None else to_micro(spec.alpha)
    fs = spec.fairness_string.encode("utf-8")
    return (
        struct.pack(
            "<BIII",
            _METRIC_IDS[spec.metric],
            to_micro(spec.epsilon),
            to_micro(spec.delta),
            alpha,
        )
        + struct.pack("<H", len(fs))
        + fs
    )


def decode_fairness_spec(
    data: bytes | memoryview, offset: int = 0
) -> tuple[FairnessSpec, int]:
    """Parse a spec encoding; returns (spec, offset past it)."""
    try:
        metric_id, eps, delta, alpha = struct.unpack_from("<BIII", data, offset)
        offset += 13
        (fs_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
    except struct.error as exc:
        raise MalformedCertificateError("truncated spec encoding") from exc
    fs = data[offset : offset + fs_len]
    if len(fs) != fs_len:
        raise MalformedCertificateError("truncated fairness string")
    offset += fs_len
    if metric_id not in _METRIC_BY_ID:
        raise MalformedCertificateError(f"unknown metric id {metric_id}")
    try:
        spec = FairnessSpec(
            metric=_METRIC_BY_ID[metric_id],
            epsilon=micro_fraction(eps),
            delta=micro_fraction(delta),
            alpha=None if alpha == _ALPHA_ABSENT else micro_fraction(alpha),
        )
    except ValueError as exc:
        raise MalformedCertificateError(str(exc)) from exc
    if fs != spec.fairness_string.encode("utf-8"):
        raise MalformedCertificateError(
            f"fairness string {bytes(fs)!r} does not match the metric/mode "
            f"({spec.fairness_string!r})"
        )
    return spec, offset


def certificate_message(model_digest: bytes, spec: FairnessSpec) -> bytes:
    """Exact byte string the regulator signs."""
    if len(model_digest) != DIGEST_BYTES:
        raise ValueError("model digest must be 32 bytes")
    return CERT_MAGIC + model_digest + encode_fairness_spec(spec)


@dataclass(frozen=True)
class Certificate:
    model_digest: bytes
    spec: FairnessSpec
    regulator_key_id: bytes
    signature: bytes

    def message(self) -> bytes:
        return certificate_message(self.model_digest, self.spec)

    def to_bytes(self) -> bytes:
        return self.message() + self.regulator_key_id + self.signature

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        if data[: len(CERT_MAGIC)] != CERT_MAGIC:
            raise MalformedCertificateError("bad certificate magic")
        offset = len(CERT_MAGIC)
        digest = data[offset : offset + DIGEST_BYTES]
        if len(digest) != DIGEST_BYTES:
            raise MalformedCertificateError("truncated model digest")
        offset += DIGEST_BYTES
        spec, offset = decode_fairness_spec(data, offset)
        rest = data[offset:]
        if len(rest) != DIGEST_BYTES + SIGNATURE_BYTES:
            raise MalformedCertificateError("bad certificate trailer length")
        return cls(
            model_digest=digest,
            spec=spec,
            regulator_key_id=rest[:DIGEST_BYTES],
            signature=rest[DIGEST_BYTES:],
        )


def issue_certificate(
    keypair: KeyPair, model_digest: bytes, spec: FairnessSpec
) -> Certificate:
    message = certificate_message(model_digest, spec)
    return Certificate(
        model_digest=model_digest,
        spec=spec,
        regulator_key_id=key_id(keypair.verification_key),
        signature=sign(keypair.signing_key, message),
    )


def verify_certificate(verification_key: bytes, cert: Certificate) -> bool:
    """Signature valid and the key id matches the presented key."""
    if cert.regulator_key_id != key_id(verification_key):
        return False
    return verify(verification_key, cert.message(), cert.signature)
