"""Deterministic counter-mode pseudorandom generator.

Block i of the stream is SHA3-256(key || i as 8-byte little-endian), so a
(key, index) pair always yields the same draws regardless of platform,
process, or call order. Each block is read as four little-endian 64-bit
words, in order. `stream_bytes` is the one definition of that stream: the
planted generator reads its bytes directly, and `CounterPrg` unpacks one
block at a time into words. The augmentor instead draws each sample's words
with one extendable-output call, `sample_streams`. All simulation randomness
in the package (planted data, label flips, augmentation noise and masks)
flows through this module.

A draw u is compared with a probability p exactly, as u / 2**64 < p, through
the integer `threshold(p)`: for an integer u, u * den < num * 2**64 holds
exactly when u < ceil(num * 2**64 / den).
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction

_U64 = 1 << 64
_COUNTER = struct.Struct("<Q")
WORDS_PER_BLOCK = 4
_BLOCK = struct.Struct(f"<{WORDS_PER_BLOCK}Q")


def derive_key(master: bytes, label: str) -> bytes:
    """Derive an independent 8-byte subkey for a named subsystem."""
    return hashlib.sha3_256(master + b"/" + label.encode("ascii")).digest()[:8]


def hash_u64(*parts: bytes) -> int:
    """One-shot 64-bit draw from the hash of the given byte strings."""
    return int.from_bytes(hashlib.sha3_256(b"".join(parts)).digest()[:8], "little")


def stream_bytes(key: bytes, start: int, blocks: int) -> bytes:
    """Blocks start .. start + blocks - 1 of key's stream, 32 bytes each, in
    stream order."""
    sha3, pack = hashlib.sha3_256, _COUNTER.pack
    return b"".join([sha3(key + pack(i)).digest() for i in range(start, start + blocks)])


def sample_streams(seed: bytes, first: int, count: int, words: int) -> bytes:
    """The draws of samples first .. first + count - 1, `words` little-endian
    64-bit words each, in sample order: sample i's are the first 8 * words
    bytes of SHAKE256(seed || u64le(i)). A shorter read is a prefix of a
    longer one."""
    shake, pack, size = hashlib.shake_256, _COUNTER.pack, 8 * words
    return b"".join([shake(seed + pack(i)).digest(size) for i in range(first, first + count)])


def threshold(prob: Fraction) -> int:
    """The integer t with u < t exactly when u / 2**64 < prob, for every
    u in [0, 2**64): ceil(prob * 2**64), and 0 when prob <= 0."""
    return max(0, -(-prob.numerator * _U64 // prob.denominator))


class CounterPrg:
    """Stream of uniform draws expanded from a key by a counter."""

    def __init__(self, key: bytes):
        self._key = bytes(key)
        self._counter = 0
        self._words: tuple[int, ...] = ()
        self._pos = 0

    def u64(self) -> int:
        pos = self._pos
        if pos == len(self._words):
            self._words = _BLOCK.unpack(stream_bytes(self._key, self._counter, 1))
            self._counter += 1
            pos = 0
        self._pos = pos + 1
        return self._words[pos]

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
