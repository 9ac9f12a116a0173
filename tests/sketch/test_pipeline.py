"""TableSketch assembly: per-column and table-level inputs."""

import numpy as np
import pytest

from repro.sketch.minhash import MinHasher
from repro.sketch.pipeline import SketchConfig, sketch_column, sketch_table
from repro.table.schema import Column, ColumnType


def test_sketch_table_structure(city_table, tiny_sketch_config):
    sketch = sketch_table(city_table, tiny_sketch_config)
    assert sketch.table_name == "cities"
    assert sketch.n_cols == 3
    assert sketch.column_names == ["city", "population", "founded"]


def test_column_types_inferred(city_sketch):
    kinds = {c.name: c.ctype for c in city_sketch.column_sketches}
    assert kinds["city"] == ColumnType.STRING
    assert kinds["population"] == ColumnType.INTEGER


def test_minhash_vector_layout(city_sketch, tiny_sketch_config):
    num_perm = tiny_sketch_config.num_perm
    string_col = city_sketch.column_sketches[0]
    vector = string_col.minhash_vector(num_perm)
    assert vector.shape == (2 * num_perm,)
    # String columns: both halves populated (E_{C||W}).
    assert np.any(vector[:num_perm] > 0)
    assert np.any(vector[num_perm:] > 0)
    numeric_col = city_sketch.column_sketches[1]
    numeric_vector = numeric_col.minhash_vector(num_perm)
    # Numeric columns: words half is zero (E_C only).
    assert np.all(numeric_vector[num_perm:] == 0)


def test_snapshot_vector_layout(city_sketch, tiny_sketch_config):
    vector = city_sketch.snapshot_vector()
    assert vector.shape == (2 * tiny_sketch_config.num_perm,)
    assert np.all(vector[tiny_sketch_config.num_perm:] == 0)


def test_shared_hasher_consistency(city_table, tiny_sketch_config):
    """Sketches from a shared hasher equal per-table hashers (same seed)."""
    hasher = tiny_sketch_config.build_hasher()
    with_shared = sketch_table(city_table, tiny_sketch_config, hasher)
    without = sketch_table(city_table, tiny_sketch_config)
    for a, b in zip(with_shared.column_sketches, without.column_sketches):
        assert np.array_equal(a.values_minhash.signature, b.values_minhash.signature)


def test_hasher_mismatch_rejected(city_table, tiny_sketch_config):
    wrong = MinHasher(num_perm=tiny_sketch_config.num_perm * 2)
    with pytest.raises(ValueError, match="num_perm"):
        sketch_table(city_table, tiny_sketch_config, wrong)


def test_n_values_counts_distinct():
    column = Column("c", ["a", "a", "b", ""])
    sketch = sketch_column(column, MinHasher(num_perm=8))
    assert sketch.n_values == 2


def test_overlapping_columns_have_similar_sketches(tiny_sketch_config):
    hasher = tiny_sketch_config.build_hasher()
    base = [f"v{i}" for i in range(40)]
    a = sketch_column(Column("a", base), hasher)
    b = sketch_column(Column("b", base[:30] + [f"w{i}" for i in range(10)]), hasher)
    c = sketch_column(Column("c", [f"z{i}" for i in range(40)]), hasher)
    sim_ab = a.values_minhash.jaccard(b.values_minhash)
    sim_ac = a.values_minhash.jaccard(c.values_minhash)
    assert sim_ab > sim_ac


def test_sketch_column_equals_the_table_pipeline(
    city_table, product_table, tiny_sketch_config
):
    """A column sketched alone matches its sketch from the table's batch."""
    hasher = tiny_sketch_config.build_hasher()
    for table in (city_table, product_table):
        sketch = sketch_table(table, tiny_sketch_config, hasher)
        for column, batched in zip(table.columns, sketch.column_sketches):
            alone = sketch_column(column, hasher)
            assert alone.ctype == batched.ctype
            assert alone.n_values == batched.n_values
            assert alone.numeric == batched.numeric
            for kind in ("values_minhash", "words_minhash"):
                assert np.array_equal(
                    getattr(alone, kind).signature, getattr(batched, kind).signature
                )
            for state in ("distinct", "sample"):
                assert np.array_equal(
                    getattr(alone.numeric_acc, state),
                    getattr(batched.numeric_acc, state),
                )
