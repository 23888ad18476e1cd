"""Shared builders, the loopback TCP link, and the restated PRG stream and
certification rule used across test files."""

import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from faircert import crypto, dealer
from faircert import fixedpoint as fx
from faircert.augmentor import AugmentorConfig
from faircert.crypto import keygen
from faircert.fairness import (
    REASON_GAP_TOO_LARGE,
    REASON_INSUFFICIENT_SAMPLES,
    EmptyCellError,
    FairnessMetric,
    FairnessSpec,
)
from faircert.model import PlantedConfig, generate_planted
from faircert.protocol import (
    FRAME_CERT_REQUEST,
    FRAME_COMPUTE_INPUT,
    Frame,
    Regulator,
    Server,
    accept_channel,
    channel_pair,
    connect_channel,
    open_listener,
)

KEY_SEED = bytes(range(32))

CHEAP_SPEC = FairnessSpec(
    metric=FairnessMetric.ORE, epsilon=Fraction(1, 2), delta=Fraction(1, 5)
)
CHEAP_REQUIRED = 30  # per-group bound for CHEAP_SPEC at gap 0

AUG = AugmentorConfig(master_seed=b"\x77" * 8, noise_sigma=fx.ONE // 100, invoke_prob=Fraction(1))
AUG_SPEC = FairnessSpec(
    metric=FairnessMetric.ORE, epsilon=Fraction(1, 2), delta=Fraction(1, 5), alpha=Fraction(1, 2)
)


@pytest.fixture(autouse=True)
def fresh_dealer_memos():
    """Each test starts with empty memos, so every parse, root and signature
    check a test counts, or a failure it plants in deserialize_model, is its
    own."""
    dealer._served.cache_clear()
    crypto._verified.cache_clear()


@lru_cache(maxsize=64)
def _restated_block(key, b):
    return hashlib.shake_256(key + b.to_bytes(8, "little")).digest(4096)


def restated_words(key, first, count):
    """Words first .. first + count - 1 of key's PRG stream, restated from
    its definition with hashlib alone: word w is little-endian bytes
    8 * (w mod 512) onward of block w // 512, the first 4096 bytes of
    SHAKE256(key || u64le(w // 512))."""
    words = []
    for w in range(first, first + count):
        block, offset = divmod(w, 512)
        word = _restated_block(key, block)[8 * offset : 8 * offset + 8]
        words.append(int.from_bytes(word, "little"))
    return words


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


LINKS = (channel_pair, tcp_link)


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


def restated_rule(spec, table):
    """The certification rule stated apart from faircert.fairness: None when
    the table passes, else the reason it fails. The gap test is integer
    cross-multiplication, |n0*d1 - n1*d0| * 10**6 < t_micro * d0 * d1 for
    every compared pair of cells, with no quotient formed. The count test
    asks each relevant count to reach 2 / (t - gap)^2 * ln(2|G||Y| / delta)
    at the observed gap. A compared cell with no samples raises
    EmptyCellError."""
    num_groups, num_labels = len(table.m_gy), len(table.m_gy[0])
    m_g = [sum(row) for row in table.m_gy]
    if spec.metric is FairnessMetric.ORE:
        classes = [[(sum(table.err_gy[g]), m_g[g]) for g in range(num_groups)]]
    elif spec.metric is FairnessMetric.EO:
        classes = [
            [(table.err_gy[g][y], table.m_gy[g][y]) for g in range(num_groups)]
            for y in range(num_labels)
        ]
    else:
        classes = [
            [(table.pred_gy[g][y], m_g[g]) for g in range(num_groups)]
            for y in range(num_labels)
        ]
    if num_groups > 1 and any(d == 0 for cells in classes for _, d in cells):
        raise EmptyCellError("a compared cell has no samples")
    pairs = [
        (abs(n0 * d1 - n1 * d0), d0 * d1)
        for cells in classes
        for i, (n0, d0) in enumerate(cells)
        for n1, d1 in cells[i + 1 :]
    ]
    t_micro = int(spec.threshold * 10**6)
    if any(diff * 10**6 >= t_micro * den for diff, den in pairs):
        return REASON_GAP_TOO_LARGE
    gap = max((Fraction(diff, den) for diff, den in pairs), default=Fraction(0))
    margin = float(spec.threshold - gap)
    log_arg = float(Fraction(2 * num_groups * num_labels) / spec.delta)
    needed = math.ceil(2.0 / (margin * margin) * math.log(log_arg))
    counts = [c for row in table.m_gy for c in row] if spec.metric is FairnessMetric.EO else m_g
    return None if min(counts) >= needed else REASON_INSUFFICIENT_SAMPLES


class FrameRewriter:
    """A party's channel that sends rewrite(frame) in place of each frame of
    one type, as a deviating party's might."""

    def __init__(self, inner, frame_type, rewrite):
        self._inner, self._type, self._rewrite = inner, frame_type, rewrite

    def send_frame(self, frame):
        if frame.type == self._type:
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
        lambda self, peer, dealer: role(
            self, peer, lambda: FrameRewriter(dealer(), FRAME_COMPUTE_INPUT, rewrite)
        ),
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
# in a frame of a type the dealer never expects.
NO_CIRCUIT = {
    "empty": lambda frame: Frame(FRAME_COMPUTE_INPUT, b""),
    "other-type": lambda frame: Frame(FRAME_CERT_REQUEST, frame.payload),
}
