"""Numerical sketch: the paper's 16-dim statistics vector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.numeric import (
    _PERCENTILES,
    NUMERICAL_SKETCH_DIM,
    _percentiles,
    numerical_sketch,
)
from repro.table.schema import Column, ColumnType


def test_vector_dimension():
    sketch = numerical_sketch(Column("x", ["1", "2", "3"]))
    assert sketch.to_vector().shape == (NUMERICAL_SKETCH_DIM,)


def test_integer_statistics():
    sketch = numerical_sketch(Column("x", [str(v) for v in range(1, 11)]))
    assert sketch.mean == pytest.approx(5.5)
    assert sketch.min_value == 1.0
    assert sketch.max_value == 10.0
    assert sketch.unique_fraction == 1.0
    assert sketch.nan_fraction == 0.0
    assert sketch.avg_cell_width == 0.0  # numeric columns have no cell width
    assert len(sketch.percentiles) == 9


def test_percentiles_monotone():
    values = [str(v) for v in np.random.default_rng(0).normal(0, 100, 50)]
    sketch = numerical_sketch(Column("x", values))
    assert list(sketch.percentiles) == sorted(sketch.percentiles)


def test_nan_fraction():
    sketch = numerical_sketch(Column("x", ["1", "", "nan", "4"]))
    assert sketch.nan_fraction == pytest.approx(0.5)


def test_unique_fraction_counts_duplicates():
    sketch = numerical_sketch(Column("x", ["1", "1", "2", "2"]))
    assert sketch.unique_fraction == pytest.approx(0.5)


def test_string_column_has_width_not_distribution():
    sketch = numerical_sketch(Column("s", ["ab", "abcd", ""]))
    assert sketch.avg_cell_width == pytest.approx(3.0)
    assert sketch.mean == 0.0
    assert all(p == 0.0 for p in sketch.percentiles)


def test_string_width_in_bytes():
    sketch = numerical_sketch(Column("s", ["ü"]))  # two UTF-8 bytes
    assert sketch.avg_cell_width == pytest.approx(2.0)


def test_date_column_uses_timestamps():
    early = numerical_sketch(Column("d", ["2000-01-01", "2000-06-01"]))
    late = numerical_sketch(Column("d", ["2020-01-01", "2020-06-01"]))
    assert late.mean > early.mean


def test_empty_column():
    sketch = numerical_sketch(Column("x", []))
    assert sketch.to_vector().shape == (NUMERICAL_SKETCH_DIM,)
    assert sketch.unique_fraction == 0.0


def test_vector_is_bounded_for_huge_values():
    sketch = numerical_sketch(Column("x", ["1e30", "2e30"]))
    vector = sketch.to_vector()
    assert np.all(np.isfinite(vector))
    assert np.max(np.abs(vector)) < 10.0


def test_negative_values_preserved_in_sign():
    sketch = numerical_sketch(Column("x", ["-5", "-10"]))
    vector = sketch.to_vector()
    assert sketch.mean < 0
    assert vector[-2] < 0  # squashed min stays negative


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30))
def test_vector_always_finite(values):
    column = Column("x", [f"{v:.4f}" for v in values])
    assert np.all(np.isfinite(numerical_sketch(column).to_vector()))


def test_shifted_distributions_are_distinguishable():
    # The CKAN-subset discrimination signal: scale shifts move the sketch.
    small = numerical_sketch(Column("x", [str(v) for v in range(10, 20)]))
    big = numerical_sketch(Column("x", [str(v * 1000) for v in range(10, 20)]))
    assert not np.allclose(small.to_vector(), big.to_vector(), atol=1e-3)


_samples = st.lists(
    st.one_of(
        st.floats(allow_nan=False),
        st.integers(-5, 5).map(float),
        st.sampled_from([1e300, -1e300, 5e-324]),
    ),
    min_size=1,
    max_size=300,
)


@settings(deadline=None)
@given(_samples)
def test_percentiles_bitwise_equal_numpy(values):
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    with np.errstate(invalid="ignore", over="ignore"):
        expected = np.percentile(ordered, _PERCENTILES)
        got = np.asarray(_percentiles(ordered))
    assert got.tobytes() == expected.tobytes()


@settings(deadline=None)
@given(_samples)
def test_mean_from_total_bitwise_equal_numpy_mean(values):
    numbers = np.sort(np.asarray(values, dtype=np.float64))
    with np.errstate(invalid="ignore", over="ignore"):
        expected = np.mean(numbers)
        got = np.float64(float(np.sum(numbers)) / numbers.size)
    assert got.tobytes() == expected.tobytes()
