"""Assemble all of a table's sketches into the model's raw input (§III-A).

For every table we produce a :class:`TableSketch`:

- one table-level **content snapshot** (MinHash over the first 10k rows);
- per column, a :class:`ColumnSketch` holding
  - the **cell-values MinHash** (all columns),
  - the **words MinHash** (string columns only; empty signature otherwise),
  - the **numerical sketch** vector,
  - the inferred column type.

The model input layer consumes the *normalized* forms: MinHash signatures
scaled to [0, 1] and the normalized numerical-statistics vector.

A table is sketched in one pass: each column's non-null cells, distinct
values and their hashes are computed once (:class:`ColumnCells`) and read by
every sketch of the column, and every string the table needs (distinct
values, words of string columns, snapshot rows) is hashed in a single
vectorised :func:`~repro.utils.hashing.hash_strings` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

# ``content_snapshot`` stays importable from here for code that wraps the
# pipeline's stages by name (perfbench's per-layer tracer); the pipeline
# itself hashes the snapshot rows in the table's one hashing pass.
from repro.sketch.content import (  # noqa: F401
    CONTENT_SNAPSHOT_ROWS,
    content_snapshot,
    row_strings,
)
from repro.sketch.minhash import DEFAULT_NUM_PERM, MinHash, MinHasher, words_of
from repro.sketch.numeric import (
    ColumnCells,
    NumericAccumulator,
    NumericalSketch,
    numerical_profile,
)
from repro.table.schema import Column, ColumnType, Table
from repro.utils.hashing import hash_strings


@dataclass(frozen=True)
class SketchConfig:
    """Knobs for sketch construction.

    ``num_perm`` is the MinHash signature width; ``snapshot_rows`` bounds the
    content snapshot. ``seed`` fixes the hash family — every sketch that will
    ever be compared must share it.
    """

    num_perm: int = DEFAULT_NUM_PERM
    snapshot_rows: int = CONTENT_SNAPSHOT_ROWS
    seed: int = 1

    def build_hasher(self) -> MinHasher:
        return MinHasher(num_perm=self.num_perm, seed=self.seed)


@dataclass(frozen=True)
class ColumnSketch:
    """All sketches of one column."""

    name: str
    ctype: ColumnType
    values_minhash: MinHash
    words_minhash: MinHash  # empty signature for non-string columns
    numeric: NumericalSketch
    n_values: int  # distinct non-null count, for containment estimation
    #: Mergeable state behind ``numeric`` / ``n_values``. ``None`` only on
    #: sketches deserialized from a pre-live-tables store; such columns
    #: cannot be appended to until the table is re-ingested or updated.
    numeric_acc: NumericAccumulator | None = None

    def merge(self, delta: "ColumnSketch") -> "ColumnSketch":
        """Sketch of this column with ``delta``'s rows appended.

        MinHash halves merge exactly (slotwise min); the numerical state
        merges through :class:`NumericAccumulator` (exact under its caps,
        documented approximation beyond). The column type is frozen at
        ingest: the delta must have been sketched with this column's type.
        """
        if self.name != delta.name:
            raise ValueError(f"column name mismatch: {self.name!r} vs {delta.name!r}")
        if self.ctype != delta.ctype:
            raise ValueError(
                f"column {self.name!r}: delta sketched as {delta.ctype.name}, "
                f"stored column is {self.ctype.name}"
            )
        if self.numeric_acc is None or delta.numeric_acc is None:
            raise ValueError(
                f"column {self.name!r} predates mergeable sketch state; "
                "re-ingest or update the table before appending"
            )
        acc = self.numeric_acc.merge(delta.numeric_acc)
        return ColumnSketch(
            name=self.name,
            ctype=self.ctype,
            values_minhash=self.values_minhash.merge(delta.values_minhash),
            words_minhash=self.words_minhash.merge(delta.words_minhash),
            numeric=acc.to_sketch(),
            n_values=acc.n_distinct,
            numeric_acc=acc,
        )

    def minhash_vector(self, num_perm: int) -> np.ndarray:
        """The concatenated [values ‖ words] MinHash model input.

        For string columns both halves are populated (E_{C||W} in Fig. 1);
        for numeric/date columns the words half is zero (E_C only).

        Slots pass through :func:`repro.sketch.minhash.slot_features`: a
        bijective per-slot re-randomization into uniform [-1, 1] features
        whose dot products are proportional to slot agreement (raw minima
        share a huge common mode that linear projections cannot separate).
        Absent halves stay 0 (the neutral value).
        """
        from repro.sketch.minhash import slot_features

        vec = np.zeros(2 * num_perm, dtype=np.float64)
        vec[:num_perm] = slot_features(self.values_minhash)
        if self.ctype == ColumnType.STRING and not self.words_minhash.is_empty():
            vec[num_perm:] = slot_features(self.words_minhash)
        return vec


@dataclass(frozen=True)
class TableSketch:
    """All sketches of one table, plus identifying metadata."""

    table_name: str
    description: str
    column_sketches: list[ColumnSketch]
    snapshot: MinHash
    config: SketchConfig = field(default=SketchConfig())

    @property
    def n_cols(self) -> int:
        return len(self.column_sketches)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.column_sketches]

    def snapshot_vector(self) -> np.ndarray:
        """Content-snapshot model input (E_CS in Fig. 1), zero-padded to the
        same 2*num_perm width as column MinHash vectors and slot-decorrelated
        like them (see :meth:`ColumnSketch.minhash_vector`)."""
        from repro.sketch.minhash import slot_features

        vec = np.zeros(2 * self.config.num_perm, dtype=np.float64)
        vec[: self.config.num_perm] = slot_features(self.snapshot)
        return vec

    def merge(self, delta: "TableSketch") -> "TableSketch":
        """Sketch of this table with ``delta``'s rows appended — O(delta).

        The delta must carry the same column names in the same order and
        the same :class:`SketchConfig` (same hash family). Column sketches
        merge pairwise; the content snapshot merges by MinHash union. Note
        the snapshot caveat: a cold rebuild only snapshots the first
        ``config.snapshot_rows`` rows, while merged snapshots cover every
        appended row — merge-vs-rebuild snapshot parity therefore holds
        exactly while the total row count stays under that limit.
        """
        if self.config != delta.config:
            raise ValueError("sketch configs differ; cannot merge")
        if self.column_names != delta.column_names:
            raise ValueError(
                f"column mismatch: table has {self.column_names}, "
                f"delta has {delta.column_names}"
            )
        return TableSketch(
            table_name=self.table_name,
            description=self.description,
            column_sketches=[
                ours.merge(theirs)
                for ours, theirs in zip(self.column_sketches, delta.column_sketches)
            ],
            snapshot=self.snapshot.merge(delta.snapshot),
            config=self.config,
        )


def _column_sketch(
    column: Column,
    ctype: ColumnType,
    cells: ColumnCells,
    values_minhash: MinHash,
    words_minhash: MinHash,
) -> ColumnSketch:
    numeric, acc = numerical_profile(column, ctype, cells)
    return ColumnSketch(
        name=column.name,
        ctype=ctype,
        values_minhash=values_minhash,
        words_minhash=words_minhash,
        numeric=numeric,
        n_values=len(cells.distinct),
        numeric_acc=acc,
    )


def _words(distinct: list[str], ctype: ColumnType) -> list[str]:
    """The words MinHash's set: tokens of string columns, none otherwise."""
    return list(words_of(distinct)) if ctype == ColumnType.STRING else []


def sketch_column(column: Column, hasher: MinHasher) -> ColumnSketch:
    """Sketch one column: values MinHash, words MinHash, numerical sketch."""
    ctype = column.inferred_type
    cells = ColumnCells.of(column)
    words = _words(cells.distinct, ctype)
    values_mh, words_mh = hasher.sketch_many(
        np.concatenate([cells.hashes, hash_strings(words)]),
        [len(cells.distinct), len(words)],
    )
    return _column_sketch(column, ctype, cells, values_mh, words_mh)


def sketch_table(
    table: Table,
    config: SketchConfig | None = None,
    hasher: MinHasher | None = None,
) -> TableSketch:
    """Produce the full :class:`TableSketch` for ``table``.

    Passing a pre-built ``hasher`` avoids recreating the hash family per
    table when sketching a whole corpus.
    """
    config = config or SketchConfig()
    hasher = hasher or config.build_hasher()
    if hasher.num_perm != config.num_perm:
        raise ValueError("hasher num_perm does not match config.num_perm")
    columns = table.columns
    ctypes = [column.inferred_type for column in columns]
    non_null = [column.non_null_values() for column in columns]
    distinct = [list(dict.fromkeys(values)) for values in non_null]
    words = [_words(values, ctype) for values, ctype in zip(distinct, ctypes)]
    rows = row_strings(table, limit=config.snapshot_rows)
    # One hashing pass and one MinHash pass over every set the table needs.
    sets = [*distinct, *words, rows]
    sizes = [len(items) for items in sets]
    hashes = hash_strings(chain.from_iterable(sets))
    minhashes = hasher.sketch_many(hashes, sizes)
    split = np.split(hashes, np.cumsum(sizes)[:-1])
    n = len(columns)
    column_sketches = [
        _column_sketch(
            column,
            ctype,
            ColumnCells(column.n_rows, non_null[i], distinct[i], split[i]),
            minhashes[i],
            minhashes[n + i],
        )
        for i, (column, ctype) in enumerate(zip(columns, ctypes))
    ]
    return TableSketch(
        table_name=table.name,
        description=table.description,
        column_sketches=column_sketches,
        snapshot=minhashes[-1],
        config=config,
    )
