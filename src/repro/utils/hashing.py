"""Stable 64-bit string hashing.

Python's built-in ``hash`` is salted per process (PYTHONHASHSEED), which would
make MinHash sketches non-reproducible between runs. We therefore implement a
fixed FNV-1a 64-bit hash over UTF-8 bytes, plus a vectorised batch form that
hashes many strings at once into a numpy array. All sketching code routes
through these functions; the scalar :func:`hash_string` is the reference the
batch form must equal.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Mersenne prime 2^61 - 1: the classic modulus for universal hashing.  Using a
# prime modulus keeps (a * x + b) % p a proper universal hash family.
HASH_PRIME = (1 << 61) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_FNV_PRIME_U64 = np.uint64(_FNV_PRIME)

#: Largest zero-padded byte matrix :func:`hash_strings` builds at once.
_BLOCK_BYTES = 1 << 24


def hash_bytes(data: bytes) -> int:
    """FNV-1a 64-bit hash of ``data``; stable across processes and platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_string(text: str) -> int:
    """Stable 64-bit hash of a unicode string."""
    return hash_bytes(text.encode("utf-8"))


def hash_strings(texts: Iterable[str]) -> np.ndarray:
    """Hash a batch of strings into a uint64 array (one hash per string).

    Equal to ``[hash_string(t) for t in texts]``, computed as a vectorised
    FNV-1a pass. The UTF-8 encodings are ordered longest first and cut
    into blocks of at most ``_BLOCK_BYTES`` of zero-padded matrix (a string
    longer than that is a block of its own), which bounds memory. The
    fixed cost per call is a handful of numpy operations, so batch a whole
    table's strings into one call rather than hashing each small set on
    its own.
    """
    encoded = [text.encode("utf-8") for text in texts]
    n = len(encoded)
    hashes = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=n)
    order = np.argsort(-lengths, kind="stable")
    first = 0
    # Empty strings, last in the order, keep the offset basis.
    while first < n and lengths[order[first]]:
        width = int(lengths[order[first]])
        last = min(n, first + max(1, _BLOCK_BYTES // width))
        block = order[first:last]
        hashes[block] = _fnv1a_block(
            [encoded[i] for i in block.tolist()], lengths[block], width
        )
        first = last
    return hashes


def _fnv1a_block(encoded: list[bytes], lengths: np.ndarray, width: int) -> np.ndarray:
    """FNV-1a of byte strings sorted longest first, the first ``width`` long.

    Row ``j`` of the padded byte matrix's transpose holds byte ``j`` of
    every string; the strings that long are a prefix of the order. Step
    ``j`` is one xor and one wrapping multiply over that prefix of the
    running hashes, so the Python loop runs once per byte of the longest
    string, not once per byte of input: cheap for the many short strings
    of a table, and dearer than the scalar loop only for a few strings of
    megabytes each.
    """
    n = len(encoded)
    by_position = (
        np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(n, width).T.copy()
    )
    # active[j]: how many strings have a byte at position j.
    active = n - np.searchsorted(lengths[::-1], np.arange(width), side="right")
    hashes = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    for j, count in enumerate(active.tolist()):
        head = hashes[:count]
        head ^= by_position[j, :count]
        head *= _FNV_PRIME_U64
    return hashes


def combine_hashes(hashes: Sequence[int]) -> int:
    """Order-sensitive combination of multiple hashes into one 64-bit value."""
    h = _FNV_OFFSET
    for value in hashes:
        for shift in (0, 16, 32, 48):
            h ^= (value >> shift) & 0xFFFF
            h = (h * _FNV_PRIME) & _MASK64
    return h
