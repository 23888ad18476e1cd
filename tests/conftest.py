"""Shared builders and the loopback TCP link used across test files."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from faircert import crypto, dealer
from faircert.crypto import keygen
from faircert.fairness import FairnessMetric, FairnessSpec
from faircert.model import PlantedConfig, generate_planted
from faircert.protocol import (
    FRAME_COMPUTE_INPUT,
    FRAME_SEED_REVEAL,
    Frame,
    Regulator,
    Server,
    accept_channel,
    connect_channel,
    open_listener,
)

KEY_SEED = bytes(range(32))

CHEAP_SPEC = FairnessSpec(
    metric=FairnessMetric.ORE, epsilon=Fraction(1, 2), delta=Fraction(1, 5)
)
CHEAP_REQUIRED = 30  # per-group bound for CHEAP_SPEC at gap 0


@pytest.fixture(autouse=True)
def fresh_dealer_memos():
    """Each test starts with empty memos, so every parse, root and signature
    check a test counts, or a failure it plants in deserialize_model, is its
    own."""
    dealer._served.cache_clear()
    crypto._verified.cache_clear()


def quarter_config(rates=(Fraction(0), Fraction(0)), seed=b"\x51" * 8):
    return PlantedConfig(
        cell_weights=(
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 4)),
        ),
        error_rates=rates,
        seed=seed,
    )


def certification_setup(
    group_counts=(CHEAP_REQUIRED, CHEAP_REQUIRED),
    rates=(Fraction(0), Fraction(0)),
    spec=CHEAP_SPEC,
    aug=None,
    seed=b"\x51" * 8,
):
    dataset, model, _ = generate_planted(
        quarter_config(rates=rates, seed=seed), 0, group_counts=group_counts
    )
    regulator = Regulator(keygen(KEY_SEED), dataset, spec, aug)
    return regulator, Server(model), dataset, model


def tcp_link(timeout):
    """The link channel_pair makes, over a connected pair of loopback sockets."""
    listener = open_listener("127.0.0.1", 0)
    try:
        near = connect_channel("127.0.0.1", listener.getsockname()[1], timeout)
        return near, accept_channel(listener, timeout)
    finally:
        listener.close()


_MICRO = st.integers(1, 10**6 - 1).map(lambda units: Fraction(units, 10**6))


@st.composite
def specs(draw):
    return FairnessSpec(
        metric=draw(st.sampled_from(FairnessMetric)),
        epsilon=draw(_MICRO),
        delta=draw(_MICRO),
        alpha=draw(st.none() | _MICRO),
    )


def mutated(data, blob):
    """blob after one to four flipped bytes, cuts and appends drawn from data."""
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        action = data.draw(st.sampled_from(("flip", "cut", "append")))
        if action == "flip" and out:
            out[data.draw(st.integers(0, len(out) - 1))] ^= data.draw(st.integers(1, 255))
        elif action == "cut":
            del out[data.draw(st.integers(0, len(out))) :]
        else:
            out += data.draw(st.binary(min_size=1, max_size=8))
    return bytes(out)


def returns_or_raises(decode, blobs, error):
    """Each blob decodes or raises the decoder's documented error; any other
    exception fails the calling test."""
    for blob in blobs:
        try:
            decode(blob)
        except error:
            pass


class DealerInputRewriter:
    """A party's dealer channel that sends rewrite(frame) in place of its
    compute input frame, as a deviating party's might."""

    def __init__(self, inner, rewrite):
        self._inner, self._rewrite = inner, rewrite

    def send_frame(self, frame):
        if frame.type == FRAME_COMPUTE_INPUT:
            frame = self._rewrite(frame)
        self._inner.send_frame(frame)

    def recv_frame(self):
        return self._inner.recv_frame()

    def close(self):
        self._inner.close()


def rewriting_dealer_input(monkeypatch, role_class, method, rewrite):
    """Patch a role method (self, a peer argument, then a dealer factory)
    so that the party's compute input goes to the dealer as rewrite(frame)."""
    role = getattr(role_class, method)
    monkeypatch.setattr(
        role_class,
        method,
        lambda self, peer, dealer: role(self, peer, lambda: DealerInputRewriter(dealer(), rewrite)),
    )


def naming_circuit(monkeypatch, role_class, method, circuit_id):
    """The party's compute input names circuit_id."""
    rewriting_dealer_input(
        monkeypatch,
        role_class,
        method,
        lambda frame: Frame(frame.type, bytes([circuit_id]) + frame.payload[1:]),
    )


# Compute inputs that name no circuit: an empty one, and the same payload
# in a frame of another type.
NO_CIRCUIT = {
    "empty": lambda frame: Frame(FRAME_COMPUTE_INPUT, b""),
    "other-type": lambda frame: Frame(FRAME_SEED_REVEAL, frame.payload),
}
