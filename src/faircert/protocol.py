"""Wire protocol and role state machines.

Framing: every message is length (32-bit little-endian, counting the type
byte plus payload) | type (1 byte) | payload. The same framing runs over
in-process queue channels and TCP sockets, so transcripts are byte-identical
across transports.

Topology: the trusted dealer is its own endpoint with one channel per party.
Private inputs (the server's model bytes, the client's query) travel only on
dealer channels, which is what makes the privacy claims structural: the
regulator never holds a frame with the model, the server never holds a frame
with the query.

Certification: after a local sample-count precheck (which, on failure, ends
the run before the server learns anything), the regulator announces the spec
and only the total sample count, both parties feed the certification
circuit, and the regulator turns a favourable fair-bit into a signed
certificate over the model digest the circuit reported; the server keeps it
only if it parses and names the server's own model root and the requested
spec. The spec alone names the mode: it is augmented exactly when it has an
alpha. Augmented mode runs the same exchange: the request carries the
public augmentor parameters, and the 8-byte master seed travels only in the
regulator's bundle to the dealer. After the request the regulator sends the
server nothing until the dealer has answered, and the dealer answers only
once it holds the server's input, so the model is fixed before anything that
depends on the seed leaves the regulator.

Inference: the server presents its certificate before the compute; the
client then checks the signature against the digest of the model that was
actually evaluated and against the exact parameters the client demanded.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .augmentor import CONFIG_BYTES, AugmentorConfig
from .crypto import (
    Certificate,
    KeyPair,
    MalformedCertificateError,
    certificate_message,
    decode_fairness_spec,
    encode_fairness_spec,
    issue_certificate,
    key_id,
    merkle_root,
    verify,
)
from .dealer import (
    CIRCUIT_CERT,
    CIRCUIT_INFER,
    FscSession,
    PARTY_CHECKER,
    PARTY_SERVER,
    augmentor_block,
    encode_query,
    encode_test_bundle,
)
from .fairness import FairnessSpec, build_risk_table, min_samples, relevant_counts
from .model import Dataset, ModelSpec, canonical_order, serialize_model

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 1 << 24

FRAME_HELLO = 0x01
FRAME_CERT_REQUEST = 0x03
FRAME_COMPUTE_INPUT = 0x04
FRAME_COMPUTE_RESULT = 0x05
FRAME_CERTIFICATE = 0x06
FRAME_INFER_REQUEST = 0x08
FRAME_INFER_RESULT = 0x09
FRAME_REJECT = 0x0A
FRAME_ABORT = 0x0B

# 0x02 and 0x07 are retired: no role sends them, so they decode as unknown.
_KNOWN_FRAMES = frozenset({
    FRAME_HELLO, FRAME_CERT_REQUEST, FRAME_COMPUTE_INPUT, FRAME_COMPUTE_RESULT,
    FRAME_CERTIFICATE, FRAME_INFER_REQUEST, FRAME_INFER_RESULT, FRAME_REJECT, FRAME_ABORT,
})

ROLE_REGULATOR = 1
ROLE_SERVER = 2
ROLE_CLIENT = 3
ROLE_DEALER = 4

_ROLE_NAMES = (None, "regulator", "server", "client", "dealer")  # indexed by role id

REASON_NOT_FAIR = "NOT_FAIR"
REASON_SIG_INVALID = "SIG_INVALID"
REASON_SPEC_MISMATCH = "SPEC_MISMATCH"
REASON_PRECHECK_FAILED = "PRECHECK_FAILED"
REASON_FSC_ABORT = "FSC_ABORT"

_REJECT_CODES = {REASON_NOT_FAIR: 1, REASON_SIG_INVALID: 2, REASON_SPEC_MISMATCH: 3}
_REJECT_BY_CODE = {v: k for k, v in _REJECT_CODES.items()}

DEFAULT_TIMEOUT = 30.0
CONNECT_RETRY_S = 5.0


class ProtocolError(Exception):
    pass


class ChannelClosed(Exception):
    pass


@dataclass(frozen=True)
class Frame:
    type: int
    payload: bytes

    def encode(self) -> bytes:
        """Wire bytes. No transport carries a frame whose length field would
        exceed MAX_FRAME_BYTES, so such a frame is refused here, before it
        is sent, on the in-process and the TCP transport alike."""
        length = len(self.payload) + 1
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
        return struct.pack("<I", length) + bytes([self.type]) + self.payload


def decode_frame(data: bytes | memoryview) -> Frame:
    if len(data) < 5:
        raise ProtocolError("frame shorter than its fixed header")
    (length,) = struct.unpack_from("<I", data, 0)
    if length != len(data) - 4:
        raise ProtocolError("frame length field disagrees with the body")
    ftype = data[4]
    if ftype not in _KNOWN_FRAMES:
        raise ProtocolError(f"unknown frame type 0x{ftype:02x}")
    return Frame(type=ftype, payload=bytes(data[5:]))


class QueueChannel:
    """One end of an in-process duplex channel carrying encoded frames."""

    def __init__(self, send_q: "queue.Queue", recv_q: "queue.Queue", timeout: float):
        self._send_q = send_q
        self._recv_q = recv_q
        self._timeout = timeout
        self._closed = False

    def send_frame(self, frame: Frame) -> None:
        if self._closed:
            raise ChannelClosed("channel closed")
        self._send_q.put(frame.encode())

    def recv_frame(self) -> Frame:
        try:
            data = self._recv_q.get(timeout=self._timeout)
        except queue.Empty:
            raise ProtocolError("timed out waiting for a frame") from None
        if data is None:
            raise ChannelClosed("peer closed the channel")
        return decode_frame(data)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._send_q.put(None)


def channel_pair(timeout: float = DEFAULT_TIMEOUT) -> tuple[QueueChannel, QueueChannel]:
    a_to_b: "queue.Queue" = queue.Queue()
    b_to_a: "queue.Queue" = queue.Queue()
    return (
        QueueChannel(a_to_b, b_to_a, timeout),
        QueueChannel(b_to_a, a_to_b, timeout),
    )


class SocketChannel:
    """Frame transport over a connected TCP socket."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        self._sock = sock
        self._sock.settimeout(timeout)

    def _recv_exact(self, view: memoryview) -> None:
        """Fill view from the socket, reading straight into it."""
        got = 0
        while got < len(view):
            try:
                size = self._sock.recv_into(view[got:])
            except socket.timeout:
                raise ProtocolError("timed out waiting for a frame") from None
            except OSError:
                raise ChannelClosed("socket error") from None
            if not size:
                if got:
                    raise ProtocolError("connection dropped mid-frame")
                raise ChannelClosed("peer closed the connection")
            got += size

    def send_frame(self, frame: Frame) -> None:
        try:
            self._sock.sendall(frame.encode())
        except OSError:
            raise ChannelClosed("socket error") from None

    def recv_frame(self) -> Frame:
        header = bytearray(4)
        self._recv_exact(memoryview(header))
        (length,) = struct.unpack("<I", header)
        if length < 1 or length > MAX_FRAME_BYTES:
            raise ProtocolError(f"implausible frame length {length}")
        # One buffer per frame: the length field, then the body read into
        # place, so the payload is copied once, by decode_frame.
        data = bytearray(4 + length)
        data[:4] = header
        self._recv_exact(memoryview(data)[4:])
        return decode_frame(memoryview(data))

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class RecordingChannel:
    """Wraps a channel and keeps the exact frame bytes in both directions."""

    def __init__(self, inner):
        self._inner = inner
        self.sent: list[bytes] = []
        self.received: list[bytes] = []

    def send_frame(self, frame: Frame) -> None:
        self._inner.send_frame(frame)
        self.sent.append(frame.encode())

    def recv_frame(self) -> Frame:
        frame = self._inner.recv_frame()
        self.received.append(frame.encode())
        return frame

    def close(self) -> None:
        self._inner.close()


ChannelFactory = Callable[[], object]


def _expect(frame: Frame, ftype: int, what: str, size: int | None = None) -> bytes:
    """The frame's payload; ProtocolError unless the frame has type ftype
    and, when size is given, a payload of exactly size bytes."""
    if frame.type != ftype or (size is not None and len(frame.payload) != size):
        raise ProtocolError(f"expected {what}")
    return frame.payload


def exchange_hello(channel, my_role: int) -> int:
    """Mutual role/version announcement; returns the peer's role id."""
    channel.send_frame(Frame(FRAME_HELLO, struct.pack("<BH", my_role, PROTOCOL_VERSION)))
    hello = _expect(channel.recv_frame(), FRAME_HELLO, "a hello frame", 3)
    role, version = struct.unpack("<BH", hello)
    if version != PROTOCOL_VERSION:
        channel.send_frame(Frame(FRAME_ABORT, b""))
        raise ProtocolError(f"protocol version mismatch ({version} != {PROTOCOL_VERSION})")
    return role


def _hello(channel, my_role: int, peer_role: int) -> None:
    """exchange_hello, refusing a peer that announces any other role."""
    if exchange_hello(channel, my_role) != peer_role:
        raise ProtocolError(f"peer did not identify as the {_ROLE_NAMES[peer_role]}")


def encode_cert_request(
    spec: FairnessSpec, total_samples: int, aug: AugmentorConfig | None
) -> bytes:
    """What the server learns: the spec, the total and, for an augmented
    spec, aug's public parameters, never its seed. ValueError when aug is
    given for a private spec or missing for an augmented one."""
    block = augmentor_block(spec, aug, seed=False)
    return encode_fairness_spec(spec) + struct.pack("<I", total_samples) + block


def decode_cert_request(payload: bytes) -> tuple[FairnessSpec, int, bytes | None]:
    """The spec, the total and the public augmentor block (None for a
    private spec); ProtocolError for anything else."""
    try:
        spec, offset = decode_fairness_spec(payload, 0)
    except MalformedCertificateError as exc:
        raise ProtocolError(f"certification request spec: {exc}") from exc
    try:
        (total,) = struct.unpack_from("<I", payload, offset)
    except struct.error as exc:
        raise ProtocolError("truncated certification request") from exc
    block, size = payload[offset + 4 :], CONFIG_BYTES if spec.augmented else 0
    if len(block) != size:
        raise ProtocolError(
            f"{spec.fairness_string} request has a {len(block)}-byte augmentor block, not {size}"
        )
    return spec, total, block or None


@dataclass(frozen=True)
class CertFailure:
    reason: str


@dataclass(frozen=True)
class AcceptedPrediction:
    label: int
    model_digest: bytes


@dataclass(frozen=True)
class Reject:
    reason: str


def _reject_frame(reason: str) -> Frame:
    return Frame(FRAME_REJECT, bytes([_REJECT_CODES[reason]]))


def _parse_reject(frame: Frame) -> str:
    if len(frame.payload) != 1 or frame.payload[0] not in _REJECT_BY_CODE:
        raise ProtocolError("malformed reject frame")
    return _REJECT_BY_CODE[frame.payload[0]]


class Regulator:
    """Holds the signing key, the private test set, and what to certify."""

    def __init__(
        self,
        keypair: KeyPair,
        dataset: Dataset,
        spec: FairnessSpec,
        aug: AugmentorConfig | None = None,
    ):
        self.keypair = keypair
        self.dataset = canonical_order(dataset)
        self.spec = spec
        self.aug = aug
        self._request = encode_cert_request(spec, len(self.dataset.groups), aug)
        self._dealer_input: bytes | None = None
        self._required: tuple[int, tuple[int, ...]] | None = None

    def required_counts(self) -> tuple[int, tuple[int, ...]]:
        """(needed per cell, observed per cell) with the gap assumed 0;
        counted at the first call and reused, since the dataset and spec
        are fixed at construction."""
        if self._required is None:
            dataset = self.dataset
            needed = min_samples(self.spec, Fraction(0), dataset.num_groups, dataset.num_labels)
            # The true labels as predictions: the table's cells are the
            # sample counts, and relevant_counts picks those the spec needs.
            table = build_risk_table(dataset, dataset.labels)
            self._required = needed, relevant_counts(table, self.spec.metric)
        return self._required

    def precheck(self) -> bool:
        needed, observed = self.required_counts()
        return min(observed) >= needed

    def certify(
        self, server_factory: ChannelFactory, dealer_factory: ChannelFactory
    ) -> Certificate | CertFailure:
        if not self.precheck():
            return CertFailure(REASON_PRECHECK_FAILED)
        chan_s = server_factory()
        _hello(chan_s, ROLE_REGULATOR, ROLE_SERVER)
        chan_s.send_frame(Frame(FRAME_CERT_REQUEST, self._request))
        if self._dealer_input is None:  # the circuit byte and the bundle, built once
            bundle = encode_test_bundle(self.spec, self.dataset, self.aug)
            self._dealer_input = bytes([CIRCUIT_CERT]) + bundle
            del bundle  # held through the session, it would double the input
        chan_f = dealer_factory()
        _hello(chan_f, ROLE_REGULATOR, ROLE_DEALER)
        chan_f.send_frame(Frame(FRAME_COMPUTE_INPUT, self._dealer_input))
        result = chan_f.recv_frame()
        if result.type == FRAME_ABORT:
            chan_s.send_frame(Frame(FRAME_ABORT, b""))
            return CertFailure(REASON_FSC_ABORT)
        payload = _expect(result, FRAME_COMPUTE_RESULT, "the certification result", 33)
        fair, digest = payload[0], payload[1:]
        if fair == 1:
            cert = issue_certificate(self.keypair, digest, self.spec)
            chan_s.send_frame(Frame(FRAME_CERTIFICATE, cert.to_bytes()))
            return cert
        chan_s.send_frame(_reject_frame(REASON_NOT_FAIR))
        return CertFailure(REASON_NOT_FAIR)


class Server:
    """Holds the model; stores the certificate a regulator issues for it."""

    def __init__(self, model: ModelSpec):
        self.model_bytes = serialize_model(model)
        self.certificate: Certificate | None = None

    def serve_certification(
        self, regulator_channel, dealer_factory: ChannelFactory
    ) -> Certificate | CertFailure:
        _hello(regulator_channel, ROLE_SERVER, ROLE_REGULATOR)
        request = _expect(
            regulator_channel.recv_frame(), FRAME_CERT_REQUEST, "a certification request"
        )
        spec, _total, _aug_public = decode_cert_request(request)
        chan_f = dealer_factory()
        _hello(chan_f, ROLE_SERVER, ROLE_DEALER)
        chan_f.send_frame(Frame(FRAME_COMPUTE_INPUT, bytes([CIRCUIT_CERT]) + self.model_bytes))
        outcome = regulator_channel.recv_frame()
        if outcome.type == FRAME_CERTIFICATE:
            return self._accept_certificate(outcome.payload, spec)
        if outcome.type == FRAME_REJECT:
            return CertFailure(_parse_reject(outcome))
        if outcome.type == FRAME_ABORT:
            return CertFailure(REASON_FSC_ABORT)
        raise ProtocolError("unexpected certification outcome frame")

    def _accept_certificate(self, data: bytes, spec: FairnessSpec) -> Certificate | CertFailure:
        """Store the issued certificate if it parses and names this model's
        root and the spec the regulator asked for; otherwise store nothing."""
        try:
            cert = Certificate.from_bytes(data)
        except MalformedCertificateError:
            return CertFailure(REASON_SIG_INVALID)
        if cert.spec != spec:
            return CertFailure(REASON_SPEC_MISMATCH)
        if cert.model_digest != merkle_root(self.model_bytes):
            return CertFailure(REASON_SIG_INVALID)
        self.certificate = cert
        return cert

    def serve_inference(
        self, client_channel, dealer_factory: ChannelFactory
    ) -> Reject | None:
        """Returns the client's rejection if one arrives; None on success."""
        if self.certificate is None:
            raise ValueError("server holds no certificate to present")
        _hello(client_channel, ROLE_SERVER, ROLE_CLIENT)
        _expect(client_channel.recv_frame(), FRAME_INFER_REQUEST, "an inference request")
        client_channel.send_frame(Frame(FRAME_CERTIFICATE, self.certificate.to_bytes()))
        chan_f = dealer_factory()
        _hello(chan_f, ROLE_SERVER, ROLE_DEALER)
        chan_f.send_frame(Frame(FRAME_COMPUTE_INPUT, bytes([CIRCUIT_INFER]) + self.model_bytes))
        try:
            final = client_channel.recv_frame()
        except ChannelClosed:
            return None
        if final.type == FRAME_REJECT:
            return Reject(_parse_reject(final))
        if final.type == FRAME_ABORT:
            return Reject(REASON_FSC_ABORT)
        raise ProtocolError("unexpected frame at the end of inference")


class Client:
    """Demands a spec, queries the model, verifies the certificate."""

    def __init__(self, features: tuple[int, ...], verification_key: bytes, spec: FairnessSpec):
        """ValueError for a feature that is not an int32 or a key that is
        not 32 bytes, before any channel opens."""
        self.query = encode_query(tuple(features))
        self.verification_key = verification_key
        self._key_id = key_id(verification_key)
        self.spec = spec

    def infer(
        self, server_factory: ChannelFactory, dealer_factory: ChannelFactory
    ) -> AcceptedPrediction | Reject:
        chan_s = server_factory()
        _hello(chan_s, ROLE_CLIENT, ROLE_SERVER)
        chan_s.send_frame(Frame(FRAME_INFER_REQUEST, encode_fairness_spec(self.spec)))
        cert_bytes = _expect(
            chan_s.recv_frame(), FRAME_CERTIFICATE, "the certificate before the compute"
        )
        try:
            cert = Certificate.from_bytes(cert_bytes)
        except MalformedCertificateError:
            chan_s.send_frame(_reject_frame(REASON_SIG_INVALID))
            chan_s.close()
            return Reject(REASON_SIG_INVALID)
        chan_f = dealer_factory()
        _hello(chan_f, ROLE_CLIENT, ROLE_DEALER)
        chan_f.send_frame(
            Frame(FRAME_COMPUTE_INPUT, bytes([CIRCUIT_INFER]) + self.query)
        )
        result = chan_f.recv_frame()
        if result.type == FRAME_ABORT:
            chan_s.send_frame(Frame(FRAME_ABORT, b""))
            chan_s.close()
            return Reject(REASON_FSC_ABORT)
        payload = _expect(result, FRAME_INFER_RESULT, "the inference result", 34)
        (label,) = struct.unpack_from("<H", payload, 0)
        digest = payload[2:]
        reason = self._check_certificate(cert, digest)
        if reason is not None:
            chan_s.send_frame(_reject_frame(reason))
            chan_s.close()
            return Reject(reason)
        chan_s.close()
        return AcceptedPrediction(label=label, model_digest=digest)

    def _check_certificate(self, cert: Certificate, digest: bytes) -> str | None:
        if cert.spec != self.spec:
            return REASON_SPEC_MISMATCH
        if cert.regulator_key_id != self._key_id:
            return REASON_SIG_INVALID
        message = certificate_message(digest, self.spec)
        if not verify(self.verification_key, message, cert.signature):
            return REASON_SIG_INVALID
        return None


def serve_dealer(channel_a, channel_b) -> FscSession:
    """Run one compute session over two party channels (any role order)."""
    by_party: dict[int, object] = {}
    for chan in (channel_a, channel_b):
        role = exchange_hello(chan, ROLE_DEALER)
        if role not in (ROLE_REGULATOR, ROLE_SERVER, ROLE_CLIENT):
            raise ProtocolError(f"role {role} cannot take part in a compute session")
        party = PARTY_SERVER if role == ROLE_SERVER else PARTY_CHECKER
        if party in by_party:
            raise ProtocolError("both channels claim the same party")
        by_party[party] = chan
    session = FscSession()
    circuit_ids: dict[int, int | None] = {}
    for party in (PARTY_SERVER, PARTY_CHECKER):
        frame = by_party[party].recv_frame()
        # Anything but a non-empty compute input names no circuit, so the
        # session aborts; both frames are read, so no sender meets a close.
        named = frame.type == FRAME_COMPUTE_INPUT and len(frame.payload) > 0
        circuit_ids[party] = frame.payload[0] if named else None
        session.input(party, memoryview(frame.payload)[1:] if named else b"")
    del frame  # the session holds each input: a view of its frame's payload
    for party in (PARTY_SERVER, PARTY_CHECKER):
        session.compute(party, circuit_ids[party])
        if session.abort_reason is not None:
            for chan in by_party.values():
                chan.send_frame(Frame(FRAME_ABORT, b""))
            return session
    result_type = (
        FRAME_COMPUTE_RESULT if circuit_ids[PARTY_CHECKER] == CIRCUIT_CERT else FRAME_INFER_RESULT
    )
    by_party[PARTY_CHECKER].send_frame(Frame(result_type, session.output))
    return session


# Session harness: the checker (regulator or client), the server and the
# dealer each run on a thread, over three links made by a link factory
# (channel_pair, or a TCP link), with every party-held end wrapped in a
# recorder so tests can audit exactly what moved. Each thread closes its own
# ends once its call has returned or raised: a frame it sent stays ahead of
# the close on both transports, and a party that fails unblocks its peers at
# once, since they see ChannelClosed instead of waiting out the timeout.

Link = Callable[[float], tuple[object, object]]


@dataclass
class LocalRun:
    regulator_result: object = None
    server_result: object = None
    client_result: object = None
    session: FscSession | None = None
    recorders: dict | None = None


def _run_thread(holder: dict, key: str, fn: Callable, ends) -> threading.Thread:
    def run():
        try:
            holder[key] = fn()
        except ChannelClosed:
            holder[key] = None
        except Exception as exc:  # surfaced by the harness caller
            holder[key] = exc
        finally:
            for end in ends:
                end.close()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t


def _run_session(
    checker: str, check: Callable, serve: Callable, timeout: float, link: Link
) -> LocalRun:
    # x_y is party x's end of its link to party y: c checker, s server, d dealer.
    (c_s, s_c), (s_d, d_s), (c_d, d_c) = (link(timeout) for _ in range(3))
    c_s, s_c, s_d, c_d = map(RecordingChannel, (c_s, s_c, s_d, c_d))
    short = "reg" if checker == "regulator" else checker
    rec = {
        f"{short}_to_server": c_s,
        f"server_to_{short}": s_c,
        "server_to_dealer": s_d,
        f"{short}_to_dealer": c_d,
    }
    results: dict = {}
    parties = (
        ("session", lambda: serve_dealer(d_s, d_c), (d_s, d_c)),
        ("server", lambda: serve(s_c, lambda: s_d), (s_c, s_d)),
        (checker, lambda: check(lambda: c_s, lambda: c_d), (c_s, c_d)),
    )
    for thread in [_run_thread(results, *party) for party in parties]:
        thread.join()
    # A failing party closes its ends, so its peers end with ChannelClosed
    # (None) and only the failure itself is an exception here.
    for name in ("session", checker, "server"):
        if isinstance(results.get(name), Exception):
            raise results[name]
    return LocalRun(
        server_result=results.get("server"),
        session=results.get("session"),
        recorders=rec,
        **{f"{checker}_result": results.get(checker)},
    )


def run_certification_local(
    regulator: Regulator,
    server: Server,
    timeout: float = DEFAULT_TIMEOUT,
    link: Link = channel_pair,
) -> LocalRun:
    return _run_session("regulator", regulator.certify, server.serve_certification, timeout, link)


def run_inference_local(
    client: Client, server: Server, timeout: float = DEFAULT_TIMEOUT, link: Link = channel_pair
) -> LocalRun:
    return _run_session("client", client.infer, server.serve_inference, timeout, link)


# TCP plumbing shared by tests and the CLI.


def open_listener(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(4)
    return sock


def accept_channel(listener: socket.socket, timeout: float = DEFAULT_TIMEOUT) -> SocketChannel:
    """Accept one peer; ProtocolError when none connects within timeout."""
    listener.settimeout(timeout)
    try:
        conn, _ = listener.accept()
    except socket.timeout:
        raise ProtocolError("timed out waiting for a peer to connect") from None
    return SocketChannel(conn, timeout)


def connect_channel(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> SocketChannel:
    """Connect, retrying a refused or failed attempt for CONNECT_RETRY_S, then ChannelClosed."""
    deadline = time.monotonic() + CONNECT_RETRY_S
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            return SocketChannel(sock, timeout)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise ChannelClosed(f"cannot reach {host}:{port}: {exc.strerror or exc}") from None
            time.sleep(0.05)


def parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not port.isdigit() or int(port) > 65535:
        raise ValueError(f"endpoint {text!r} must be host:port with a port up to 65535")
    return host or "127.0.0.1", int(port)
