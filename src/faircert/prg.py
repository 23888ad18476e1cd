"""Deterministic block-keyed pseudorandom generator.

Block b of a key's stream is the first BLOCK_BYTES bytes of
SHAKE256(key || b as 8-byte little-endian); the stream is its blocks in
order, read as little-endian 64-bit words, so a (key, word index) pair
always yields the same draw on every platform and in any call order.
`batches` and `CounterPrg` read that stream, and `_blocks` is the one
place that hashes for it. All simulation randomness in the package
(planted data, augmentation noise and masks, `CounterPrg`) is read from
it; the planted model's label flips are drawn by `hash_u64`.

A draw u is compared with a probability p exactly, as u / 2**64 < p, through
the integer `threshold(p)`: for an integer u, u * den < num * 2**64 holds
exactly when u < ceil(num * 2**64 / den).
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction
from itertools import chain
from typing import Iterator

_U64 = 1 << 64
_COUNTER = struct.Struct("<Q")
BLOCK_BYTES = 4096  # one hash call: ceil(4096 / 136) = 31 Keccak permutations
_BLOCK_WORDS = BLOCK_BYTES // 8
_BLOCK = struct.Struct(f"<{_BLOCK_WORDS}Q")


def derive_key(master: bytes, label: str) -> bytes:
    """Derive an independent 8-byte subkey for a named subsystem."""
    return hashlib.sha3_256(master + b"/" + label.encode("ascii")).digest()[:8]


def hash_u64(*parts: bytes) -> int:
    """One-shot 64-bit draw from the hash of the given byte strings."""
    return int.from_bytes(hashlib.sha3_256(b"".join(parts)).digest()[:8], "little")


def _blocks(key: bytes, first: int, end: int) -> Iterator[bytes]:
    """Words first .. end - 1 of key's stream, a block at a time, each hashed
    once, the last only as far as the run reads (a prefix of the full block)."""
    shake, pack = hashlib.shake_256, _COUNTER.pack
    for b in range(first // _BLOCK_WORDS, -(-end // _BLOCK_WORDS)):
        block = shake(key + pack(b)).digest(min(BLOCK_BYTES, 8 * end - b * BLOCK_BYTES))
        yield block[max(0, 8 * first - b * BLOCK_BYTES) :]


def batches(key: bytes, first: int, words: int, batch: int) -> Iterator[bytes]:
    """Words first .. first + words - 1 of key's stream, as little-endian
    bytes in stream order, in runs of `batch` words (the last may be
    shorter). Each block is hashed once wherever the runs cut it: a run
    that ends inside a block keeps the block's unread tail for the next."""
    blocks, held = _blocks(key, first, first + words), bytearray()
    for lo in range(0, words, batch):
        size = 8 * min(batch, words - lo)
        while len(held) < size:
            held += next(blocks)
        yield bytes(held[:size])
        del held[:size]


def threshold(prob: Fraction) -> int:
    """The integer t with u < t exactly when u / 2**64 < prob, for every
    u in [0, 2**64): ceil(prob * 2**64), and 0 when prob <= 0."""
    return max(0, -(-prob.numerator * _U64 // prob.denominator))


class CounterPrg:
    """The uniform draws of a key's stream, one word at a time."""

    def __init__(self, key: bytes):
        # Each refill is one whole stream block: one hash call, made when the
        # previous block's words run out.
        self._draws = chain.from_iterable(map(_BLOCK.unpack, _blocks(bytes(key), 0, _U64)))

    def u64(self) -> int:
        return next(self._draws)

    def below(self, prob: Fraction) -> bool:
        """Exact Bernoulli(prob): one draw, compared with an integer
        threshold, no float rounding. A draw is consumed even when prob <= 0."""
        return self.u64() < threshold(prob)

    def choose_weighted(self, cumulative: list[tuple[Fraction, int]]) -> int:
        """Pick an index from exact cumulative weights (last must reach 1)."""
        u = self.u64()
        for bound, idx in cumulative:
            if u < threshold(bound):
                return idx
        return cumulative[-1][1]
