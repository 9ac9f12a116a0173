"""MinHash correctness: estimation accuracy, invariances, containment."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch import minhash as minhash_mod
from repro.sketch.minhash import (
    MinHasher,
    estimate_containment,
    estimate_jaccard,
    exact_containment,
    exact_jaccard,
)
from repro.utils.hashing import hash_string, hash_strings


@pytest.fixture(scope="module")
def hasher():
    return MinHasher(num_perm=128, seed=1)


def test_identical_sets_have_jaccard_one(hasher):
    items = {f"v{i}" for i in range(50)}
    assert estimate_jaccard(hasher.sketch(items), hasher.sketch(items)) == 1.0


def test_disjoint_sets_have_jaccard_near_zero(hasher):
    a = hasher.sketch({f"a{i}" for i in range(100)})
    b = hasher.sketch({f"b{i}" for i in range(100)})
    assert estimate_jaccard(a, b) < 0.05


def test_estimate_tracks_exact_overlap(hasher):
    a = {f"item{i}" for i in range(300)}
    b = {f"item{i}" for i in range(150, 450)}
    estimate = estimate_jaccard(hasher.sketch(a), hasher.sketch(b))
    exact = exact_jaccard(a, b)
    assert abs(estimate - exact) < 0.12  # ~3 sigma at num_perm=128


def test_duplicates_ignored(hasher):
    with_dups = hasher.sketch(["a", "a", "b", "b", "b"])
    without = hasher.sketch(["a", "b"])
    assert np.array_equal(with_dups.signature, without.signature)


def test_order_invariance(hasher):
    forward = hasher.sketch([f"v{i}" for i in range(40)])
    backward = hasher.sketch([f"v{i}" for i in reversed(range(40))])
    assert np.array_equal(forward.signature, backward.signature)


def test_empty_sets(hasher):
    empty = hasher.sketch([])
    assert empty.is_empty()
    assert estimate_jaccard(empty, empty) == 0.0
    non_empty = hasher.sketch(["a"])
    assert estimate_jaccard(empty, non_empty) == 0.0


def test_signature_width_mismatch_raises(hasher):
    other = MinHasher(num_perm=64, seed=1)
    with pytest.raises(ValueError, match="lengths differ"):
        estimate_jaccard(hasher.sketch(["a"]), other.sketch(["a"]))


def test_different_seeds_give_different_families():
    a = MinHasher(num_perm=32, seed=1).sketch(["x", "y"])
    b = MinHasher(num_perm=32, seed=2).sketch(["x", "y"])
    assert not np.array_equal(a.signature, b.signature)


def test_normalized_in_unit_interval(hasher):
    normalized = hasher.sketch([f"v{i}" for i in range(20)]).normalized()
    assert np.all(normalized >= 0.0) and np.all(normalized <= 1.0)


def test_containment_estimation(hasher):
    query = {f"q{i}" for i in range(100)}
    superset = query | {f"extra{i}" for i in range(300)}
    estimate = estimate_containment(
        hasher.sketch(query), hasher.sketch(superset), len(query), len(superset)
    )
    assert estimate > 0.7  # true containment is 1.0


def test_containment_zero_query():
    hasher = MinHasher(num_perm=16)
    assert estimate_containment(hasher.sketch([]), hasher.sketch(["a"]), 0, 1) == 0.0


def test_exact_helpers():
    assert exact_jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert exact_containment({"a", "b"}, {"b", "c"}) == 0.5
    assert exact_jaccard(set(), set()) == 0.0
    assert exact_containment(set(), {"a"}) == 0.0


def test_sketch_tokens_splits_words():
    hasher = MinHasher(num_perm=64, seed=1)
    by_tokens = hasher.sketch_tokens(["main street", "oak street"])
    by_words = hasher.sketch(["main", "street", "oak"])
    assert np.array_equal(by_tokens.signature, by_words.signature)


def _reference_signature(hasher, items):
    """Slotwise min of ``(a * fnv(x) + b) mod 2^64`` in plain integers."""
    if not items:
        return [2**64 - 1] * hasher.num_perm
    return [
        min((int(a) * hash_string(x) + int(b)) % 2**64 for x in items)
        for a, b in zip(hasher._a, hasher._b)
    ]


@settings(max_examples=50, deadline=None)
@given(
    sets=st.lists(st.lists(st.text(max_size=6), max_size=8), max_size=6),
    batch_items=st.sampled_from([1, 3, 4096]),
)
def test_sketch_many_equals_each_set_sketched_alone(sets, batch_items):
    hasher = MinHasher(num_perm=8, seed=5)
    raw = hash_strings([item for items in sets for item in items])
    old = minhash_mod._BATCH_ITEMS
    minhash_mod._BATCH_ITEMS = batch_items  # several (k, n) matrices per call
    try:
        many = hasher.sketch_many(raw, [len(items) for items in sets])
    finally:
        minhash_mod._BATCH_ITEMS = old
    assert len(many) == len(sets)
    for items, sketch in zip(sets, many):
        assert sketch.signature.tolist() == _reference_signature(hasher, items)
        assert np.array_equal(sketch.signature, hasher.sketch(items).signature)


def test_rejects_zero_perm():
    with pytest.raises(ValueError):
        MinHasher(num_perm=0)


@settings(max_examples=25, deadline=None)
@given(
    shared=st.integers(min_value=0, max_value=60),
    only_a=st.integers(min_value=0, max_value=60),
    only_b=st.integers(min_value=0, max_value=60),
)
def test_estimate_within_tolerance_property(shared, only_a, only_b):
    """|estimate - exact| stays within ~4 standard errors for any overlap."""
    if shared + only_a == 0 or shared + only_b == 0:
        return
    hasher = MinHasher(num_perm=128, seed=3)
    a = {f"s{i}" for i in range(shared)} | {f"a{i}" for i in range(only_a)}
    b = {f"s{i}" for i in range(shared)} | {f"b{i}" for i in range(only_b)}
    estimate = estimate_jaccard(hasher.sketch(a), hasher.sketch(b))
    exact = exact_jaccard(a, b)
    sigma = np.sqrt(max(exact * (1 - exact), 0.25 / 128) / 128)
    assert abs(estimate - exact) <= max(4 * sigma, 0.08)
