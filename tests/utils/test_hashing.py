"""Stability and distribution properties of the hashing utilities."""

import numpy as np
from hypothesis import given, strategies as st

from repro.utils import hashing
from repro.utils.hashing import combine_hashes, hash_bytes, hash_string, hash_strings


def test_hash_string_is_deterministic():
    assert hash_string("vienna") == hash_string("vienna")


def test_known_fnv_vector():
    # FNV-1a 64-bit of empty input is the offset basis.
    assert hash_bytes(b"") == 0xCBF29CE484222325


def test_different_strings_differ():
    assert hash_string("vienna") != hash_string("graz")


def test_hash_strings_batch_matches_scalar():
    texts = ["a", "b", "vienna", ""]
    batch = hash_strings(texts)
    assert batch.dtype == np.uint64
    assert [int(h) for h in batch] == [hash_string(t) for t in texts]


#: Texts that stress the vectorised pass: empty strings, ASCII, multi-byte
#: and astral characters, NUL bytes, and lengths from 0 to well past the
#: others in the same batch.
_mixed_texts = st.one_of(
    st.text(max_size=3),
    st.text(alphabet="a\x00é東\U0001f600 ", max_size=40),
    st.text(max_size=200),
)


@given(
    texts=st.lists(_mixed_texts, max_size=40),
    block_bytes=st.sampled_from([1, 7, 64, 1 << 24]),
)
def test_hash_strings_equals_scalar_hash_string(texts, block_bytes):
    old = hashing._BLOCK_BYTES
    hashing._BLOCK_BYTES = block_bytes  # small blocks: many per call
    try:
        batch = hash_strings(texts)
    finally:
        hashing._BLOCK_BYTES = old
    assert batch.dtype == np.uint64
    assert batch.shape == (len(texts),)
    assert [int(h) for h in batch] == [hash_string(t) for t in texts]


def test_hash_strings_of_nothing_and_of_empty_strings():
    assert hash_strings([]).shape == (0,)
    assert hash_strings(iter(())).shape == (0,)
    assert [int(h) for h in hash_strings(["", ""])] == [hash_bytes(b"")] * 2


@given(st.text(max_size=50))
def test_hash_fits_in_64_bits(text):
    assert 0 <= hash_string(text) < 2**64


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8))
def test_combine_hashes_deterministic_and_order_sensitive(hashes):
    assert combine_hashes(hashes) == combine_hashes(hashes)
    if len(set(hashes)) > 1:
        reversed_combined = combine_hashes(list(reversed(hashes)))
        # Order sensitivity: overwhelmingly different unless palindromic.
        if hashes != list(reversed(hashes)):
            assert combine_hashes(hashes) != reversed_combined


def test_unicode_handling():
    assert hash_string("münchen") != hash_string("munchen")
