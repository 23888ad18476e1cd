import hashlib
from fractions import Fraction

from conftest import restated_words
from hypothesis import given
from hypothesis import strategies as st

from faircert import prg as prg_module
from faircert.prg import (
    CounterPrg,
    derive_key,
    hash_u64,
    stream,
    threshold,
)


def test_stream_blocks_are_keyed_shake_squeezes():
    key = b"\x03" * 8
    blocks = [hashlib.shake_256(key + i.to_bytes(8, "little")).digest(4096) for i in range(4)]
    assert stream(key, 0, 512) == blocks[0]
    assert stream(key, 510, 5) == blocks[0][-16:] + blocks[1][:24]  # across a block edge
    assert stream(key, 1023, 514) == blocks[1][-8:] + blocks[2] + blocks[3][:8]
    assert stream(key, 700, 0) == b""


def test_derive_key_matches_hash():
    expected = hashlib.sha3_256(b"\x01" * 8 + b"/" + b"data").digest()[:8]
    assert derive_key(b"\x01" * 8, "data") == expected


def test_derive_key_separates_labels():
    master = b"\x07" * 8
    assert derive_key(master, "a") != derive_key(master, "b")


def test_counter_prg_refills_one_stream_block_per_hash_call(monkeypatch):
    key = b"\x02" * 8
    calls = []

    class CountingHashlib:
        def shake_256(self, data):
            calls.append(data)
            return hashlib.shake_256(data)

        def __getattr__(self, name):
            return getattr(hashlib, name)

    monkeypatch.setattr(prg_module, "hashlib", CountingHashlib())
    prg = CounterPrg(key)
    block0 = hashlib.shake_256(key + (0).to_bytes(8, "little")).digest(4096)
    assert prg.u64() == int.from_bytes(block0[:8], "little")
    assert prg.u64() == int.from_bytes(block0[8:16], "little")
    draws = [prg.u64() for _ in range(1100)]
    assert calls == [key + i.to_bytes(8, "little") for i in range(3)]
    assert draws == restated_words(key, 2, 1100)


def test_determinism():
    a = CounterPrg(b"seedseed")
    b = CounterPrg(b"seedseed")
    assert [a.u64() for _ in range(100)] == [b.u64() for _ in range(100)]


def test_below_exact_threshold():
    # below(p) compares a fresh u64 draw against floor/ceil of p * 2^64
    prg = CounterPrg(b"\x03" * 8)
    draw = CounterPrg(b"\x03" * 8).u64()
    exact = Fraction(draw, 2**64)
    assert prg.below(exact + Fraction(1, 2**64)) is True
    prg2 = CounterPrg(b"\x03" * 8)
    assert prg2.below(exact) is False


def test_below_zero_and_one():
    prg = CounterPrg(b"\x04" * 8)
    assert prg.below(Fraction(0)) is False
    assert prg.below(Fraction(1)) is True


def test_below_consumes_one_draw_even_for_zero():
    a = CounterPrg(b"\x05" * 8)
    a.below(Fraction(0))
    b = CounterPrg(b"\x05" * 8)
    b.u64()
    assert a.u64() == b.u64()


def test_below_empirical_rate():
    prg = CounterPrg(b"\x06" * 8)
    hits = sum(prg.below(Fraction(1, 4)) for _ in range(20000))
    # 3 sigma around 5000 with sigma = sqrt(20000 * 3/16) ~ 61.2
    assert abs(hits - 5000) < 200


def test_choose_weighted_exact():
    cumulative = [(Fraction(1, 3), 0), (Fraction(2, 3), 1), (Fraction(1), 2)]
    prg = CounterPrg(b"\x09" * 8)
    counts = [0, 0, 0]
    for _ in range(9000):
        counts[prg.choose_weighted(cumulative)] += 1
    assert all(2700 < c < 3300 for c in counts)


@given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
def test_distinct_keys_diverge(k1, k2):
    if k1 == k2:
        return
    a = CounterPrg(k1)
    b = CounterPrg(k2)
    assert [a.u64() for _ in range(4)] != [b.u64() for _ in range(4)]


def test_hash_u64_is_prefix_of_sha3():
    digest = hashlib.sha3_256(b"ab" + b"cd").digest()
    assert hash_u64(b"ab", b"cd") == int.from_bytes(digest[:8], "little")


# --- the block-batched stream and the integer thresholds --------------------------

U64 = 2**64


class FixedPrg(CounterPrg):
    """A CounterPrg whose draws are given, to put a draw at any threshold."""

    def __init__(self, draws):
        super().__init__(b"fixed")
        self._draws = list(draws)

    def u64(self):
        return self._draws.pop(0)


probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3)]),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=1, max_value=2**70),
    ).filter(lambda p: p <= 1),
)


def near(t):
    """Draws at and around an integer threshold, inside [0, 2**64)."""
    return sorted({u for u in (t - 2, t - 1, t, t + 1) if 0 <= u < U64})


# Runs that start and end on, next to and between block edges (512 words).
word_index = st.one_of(
    st.integers(min_value=0, max_value=2100),
    st.sampled_from([511, 512, 513, 1023, 1024, 1536]),
)


@given(st.binary(min_size=1, max_size=24), word_index, word_index)
def test_stream_equals_the_hashlib_restatement(key, first, words):
    expected = b"".join(w.to_bytes(8, "little") for w in restated_words(key, first, words))
    assert stream(key, first, words) == expected
    # CounterPrg reads the same words, one block at a time.
    prg = CounterPrg(key)
    for _ in range(first):
        prg.u64()
    assert b"".join(prg.u64().to_bytes(8, "little") for _ in range(words)) == expected


@given(probabilities, st.integers(min_value=0, max_value=U64 - 1))
def test_threshold_agrees_with_the_fraction_comparison(prob, draw):
    t = threshold(prob)
    for u in near(t) + [draw]:
        assert (u < t) == (Fraction(u, U64) < prob)


@given(probabilities, st.integers(min_value=0, max_value=U64 - 1))
def test_below_agrees_with_the_fraction_comparison(prob, draw):
    draws = near(threshold(prob)) + [draw]
    prg = FixedPrg(draws)
    assert [prg.below(prob) for _ in draws] == [Fraction(u, U64) < prob for u in draws]


@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6).filter(any),
    st.integers(min_value=0, max_value=U64 - 1),
)
def test_choose_weighted_agrees_with_the_fraction_scan(weights, draw):
    total = sum(weights)
    cumulative, acc = [], Fraction(0)
    for idx, w in enumerate(weights):
        acc += Fraction(w, total)
        cumulative.append((acc, idx))
    draws = [draw] + [u for bound, _ in cumulative for u in near(threshold(bound))]

    def scan(u):
        return next((idx for bound, idx in cumulative if Fraction(u, U64) < bound), cumulative[-1][1])

    prg = FixedPrg(draws)
    assert [prg.choose_weighted(cumulative) for _ in draws] == [scan(u) for u in draws]
