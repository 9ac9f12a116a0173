"""Per-column numerical sketches (§III-A) and their mergeable accumulator.

The paper's numerical sketch is the fixed-length vector::

    [unique count, NaN count, cell width,
     10th percentile, 20th, ..., 90th percentile,
     mean, standard deviation, min value, max value]

with unique/NaN counts normalized by the number of rows and cell width (for
string columns) being the average cell byte width. For non-numeric columns
the distribution statistics are zero; for numeric columns the cell width is
zero. Date columns are converted to POSIX timestamps first.

Live tables need this sketch to be *mergeable*: appending rows must update
the statistics in O(delta) without re-reading the stored column.
:class:`NumericAccumulator` carries the exactly-mergeable moments (row/null
counts, byte-width sum, sum, sum of squares, min/max) plus two bounded
summaries with documented approximation behaviour:

* a **sorted sample** of the numeric values, exact up to
  :data:`RESERVOIR_CAP` values; beyond the cap it is compressed by a
  deterministic equi-depth resample (rank error per compression is about
  ``1 / RESERVOIR_CAP``). Percentiles are read off this sample.
* a **bottom-k set of value hashes** (KMV sketch), exact up to
  :data:`DISTINCT_CAP` distinct values; beyond the cap the distinct count
  of a merge is the standard KMV estimate ``(k - 1) * 2^64 / h_(k)``
  (Bar-Yossef et al. 2002), clamped to ``[max(|A|,|B|), |A|+|B|]``.

While every input stays under both caps, merge-then-derive is **bitwise
identical** to sketching the concatenated column from scratch: the cold
path sorts the numeric view first so every statistic is order-canonical,
and an exact merged sample *is* the full sorted array. There is no RNG
anywhere — identical inputs always produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.table.infer import numeric_view
from repro.table.schema import Column, ColumnType
from repro.utils.hashing import hash_strings

#: unique + nan + width + 9 percentiles + mean + std + min + max
NUMERICAL_SKETCH_DIM = 16

_PERCENTILES = tuple(range(10, 100, 10))

#: ``_PERCENTILES`` as fractions, divided exactly as ``np.percentile`` does.
_QUANTILES = np.true_divide(np.asarray(_PERCENTILES), 100)

#: Numeric stats are squashed by ``arcsinh`` then scaled by this constant so
#: typical magnitudes (counts, money, timestamps ~1e9) land in roughly [-1,1];
#: keeping model inputs well-conditioned.
_ASINH_SCALE = 1.0 / np.arcsinh(1e12)

#: Max stored numeric sample values per column. Module-level (not part of
#: ``SketchConfig``) so existing lake fingerprints are unchanged; tests may
#: monkeypatch it to exercise the compressed regime cheaply.
RESERVOIR_CAP = 512

#: Max stored distinct-value hashes per column (KMV bottom-k size).
DISTINCT_CAP = 4096

_U64_SCALE = float(2**64)


def _mix64(hashes: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic).

    The KMV estimator assumes hashes uniform on ``[0, 2^64)``; raw FNV-1a
    of short, near-sequential keys is visibly non-uniform, so the distinct
    reservoir stores finalized hashes instead.
    """
    z = np.asarray(hashes, dtype=np.uint64).copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class ColumnCells:
    """One pass over a column's cells: what every sketch of it reads.

    ``distinct`` holds the distinct non-null cells in first-seen order and
    ``hashes`` their FNV-1a hashes, aligned. The values MinHash, the KMV
    distinct set and ``n_values`` all read these, so no cell is null-checked
    or hashed twice. :func:`repro.sketch.pipeline.sketch_table` builds them
    with one hashing call for the whole table; :meth:`of` hashes one column
    on its own.
    """

    n_rows: int
    non_null: list[str]
    distinct: list[str]
    hashes: np.ndarray  # uint64, aligned with ``distinct``

    @classmethod
    def of(cls, column: Column) -> "ColumnCells":
        non_null = column.non_null_values()
        distinct = list(dict.fromkeys(non_null))
        return cls(column.n_rows, non_null, distinct, hash_strings(distinct))


@dataclass(frozen=True)
class NumericalSketch:
    """The raw statistics plus the normalized model-input vector."""

    unique_fraction: float
    nan_fraction: float
    avg_cell_width: float
    percentiles: tuple[float, ...]
    mean: float
    std: float
    min_value: float
    max_value: float

    def to_vector(self) -> np.ndarray:
        """Normalized ``float64[NUMERICAL_SKETCH_DIM]`` vector for the model.

        Fractions pass through unchanged; magnitude statistics are squashed
        with ``arcsinh`` (sign-preserving log-like compression) so that
        timestamps and small counts coexist on a comparable scale.
        """
        squash = lambda x: float(np.arcsinh(x) * _ASINH_SCALE)  # noqa: E731
        vector = [
            self.unique_fraction,
            self.nan_fraction,
            squash(self.avg_cell_width),
            *[squash(p) for p in self.percentiles],
            squash(self.mean),
            squash(self.std),
            squash(self.min_value),
            squash(self.max_value),
        ]
        return np.asarray(vector, dtype=np.float64)


def _percentiles(ordered: np.ndarray) -> tuple[float, ...]:
    """``np.percentile(ordered, _PERCENTILES)`` of a sorted, non-empty array.

    Bit for bit numpy's default (linear) method, without its per-call
    overhead, which is several times the arithmetic on a column-sized
    array: virtual index ``(n - 1) * q``; neighbours at its floor and the
    next index, both the last value once the index reaches it (numpy then
    measures the weight from index -1); numpy's two-sided lerp.
    """
    n = ordered.size
    virtual = (n - 1) * _QUANTILES
    previous = np.floor(virtual)
    following = previous + 1
    at_end = virtual >= n - 1
    previous[at_end] = -1
    following[at_end] = -1
    previous = previous.astype(np.intp)
    gamma = virtual - previous
    low = ordered[previous]
    high = ordered[following.astype(np.intp)]
    diff = high - low
    result = low + diff * gamma
    np.subtract(high, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    return tuple(result.tolist())


def _equi_depth(points: np.ndarray, weights: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic equi-depth resample of a weighted sorted point cloud.

    Each point sits at the cumulative-weight midpoint of its mass; the
    compressed sample reads ``cap`` evenly spaced quantiles off that stair
    via linear interpolation. ``np.interp`` clamps the 0/1 endpoints, so the
    resample always retains the extremes.
    """
    total = float(weights.sum())
    positions = (np.cumsum(weights) - 0.5 * weights) / total
    targets = np.linspace(0.0, 1.0, cap)
    return np.interp(targets, positions, points)


@dataclass(frozen=True)
class NumericAccumulator:
    """Mergeable per-column state behind :class:`NumericalSketch`.

    ``sample`` is always sorted ascending; ``distinct`` is the sorted
    bottom-k of FNV-1a hashes of the distinct non-null string values.
    ``sample_exact`` / ``distinct_exact`` record whether those summaries
    still hold *every* underlying value — while they do, merges are exact.
    """

    n_rows: int
    n_nonnull: int
    width_sum: int
    is_numeric: bool
    n_numeric: int
    total: float
    total_sq: float
    min_value: float
    max_value: float
    sample: np.ndarray  # float64, sorted
    sample_exact: bool
    n_distinct: int
    distinct: np.ndarray  # uint64, sorted bottom-k
    distinct_exact: bool

    def merge(self, other: "NumericAccumulator") -> "NumericAccumulator":
        """Accumulator of the concatenated column — exact under the caps."""
        if self.is_numeric != other.is_numeric:
            raise ValueError(
                "cannot merge a numeric accumulator with a non-numeric one"
            )
        n_numeric = self.n_numeric + other.n_numeric
        if self.n_numeric and other.n_numeric:
            min_value = min(self.min_value, other.min_value)
            max_value = max(self.max_value, other.max_value)
        elif self.n_numeric:
            min_value, max_value = self.min_value, self.max_value
        else:
            min_value, max_value = other.min_value, other.max_value

        if self.n_numeric == 0:
            sample, sample_exact = other.sample, other.sample_exact
        elif other.n_numeric == 0:
            sample, sample_exact = self.sample, self.sample_exact
        elif (
            self.sample_exact
            and other.sample_exact
            and n_numeric <= RESERVOIR_CAP
        ):
            sample = np.sort(np.concatenate([self.sample, other.sample]))
            sample_exact = True
        else:
            points = np.concatenate([self.sample, other.sample])
            weights = np.concatenate(
                [
                    np.full(len(self.sample), self.n_numeric / len(self.sample)),
                    np.full(
                        len(other.sample), other.n_numeric / len(other.sample)
                    ),
                ]
            )
            order = np.argsort(points, kind="stable")
            sample = _equi_depth(points[order], weights[order], RESERVOIR_CAP)
            sample_exact = False

        union = np.union1d(self.distinct, other.distinct)
        upper = self.n_distinct + other.n_distinct
        lower = max(self.n_distinct, other.n_distinct)
        if self.distinct_exact and other.distinct_exact:
            n_distinct = int(len(union))  # both hash sets complete ⇒ exact
            if len(union) <= DISTINCT_CAP:
                distinct, distinct_exact = union, True
            else:
                distinct, distinct_exact = union[:DISTINCT_CAP], False
        else:
            # Any inexact side stored a full bottom-k, so the union holds at
            # least DISTINCT_CAP hashes and its bottom-k is the bottom-k of
            # the true union: the KMV estimate applies.
            distinct = union[:DISTINCT_CAP]
            distinct_exact = False
            k = len(distinct)
            kth = float(distinct[-1])
            estimate = int(round((k - 1) * _U64_SCALE / kth)) if kth else upper
            n_distinct = int(min(upper, max(lower, estimate)))

        return NumericAccumulator(
            n_rows=self.n_rows + other.n_rows,
            n_nonnull=self.n_nonnull + other.n_nonnull,
            width_sum=self.width_sum + other.width_sum,
            is_numeric=self.is_numeric,
            n_numeric=n_numeric,
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
            min_value=min_value,
            max_value=max_value,
            sample=sample,
            sample_exact=sample_exact,
            n_distinct=n_distinct,
            distinct=distinct,
            distinct_exact=distinct_exact,
        )

    def to_sketch(self) -> NumericalSketch:
        """Derive the paper sketch from the accumulated state.

        With ``sample_exact`` the distribution statistics are computed the
        same way the cold path computes them (on the full sorted array), so
        the result is bitwise identical to a from-scratch sketch; otherwise
        the percentiles come off the compressed sample and mean/std off the
        exact moments.
        """
        n_rows = self.n_rows
        nan_fraction = 1.0 - (self.n_nonnull / n_rows) if n_rows else 0.0
        unique_fraction = (self.n_distinct / n_rows) if n_rows else 0.0
        if self.is_numeric or not self.n_nonnull:
            avg_width = 0.0
        else:
            avg_width = self.width_sum / self.n_nonnull

        if self.n_numeric:
            percentiles = _percentiles(self.sample)
            if self.sample_exact:
                mean = float(np.mean(self.sample))
                std = float(np.std(self.sample))
            else:
                mean = self.total / self.n_numeric
                variance = max(0.0, self.total_sq / self.n_numeric - mean * mean)
                std = float(np.sqrt(variance))
            min_value, max_value = self.min_value, self.max_value
        else:
            percentiles = tuple(0.0 for _ in _PERCENTILES)
            mean = std = min_value = max_value = 0.0

        return NumericalSketch(
            unique_fraction=unique_fraction,
            nan_fraction=nan_fraction,
            avg_cell_width=avg_width,
            percentiles=percentiles,
            mean=mean,
            std=std,
            min_value=min_value,
            max_value=max_value,
        )


def numerical_profile(
    column: Column,
    ctype: "ColumnType | None" = None,
    cells: ColumnCells | None = None,
) -> tuple[NumericalSketch, NumericAccumulator]:
    """Sketch *and* accumulator for one column — the single cold path.

    The sketch is always computed from the full data (never from the
    compressed sample), so cold sketches stay exact regardless of the caps.
    ``ctype`` overrides type inference; appends use it to freeze a delta
    column to the type the stored column was ingested with. ``cells`` is
    the column's one-pass view when the caller already built it (the table
    pipeline does, with table-batched hashes); otherwise it is built here.
    """
    if cells is None:
        cells = ColumnCells.of(column)
    n_rows = cells.n_rows
    non_null = cells.non_null
    n_nonnull = len(non_null)
    nan_fraction = 1.0 - (n_nonnull / n_rows) if n_rows else 0.0
    n_distinct = len(cells.distinct)
    unique_fraction = (n_distinct / n_rows) if n_rows else 0.0

    if ctype is None:
        ctype = column.inferred_type
    if ctype.is_numeric:
        numbers = np.asarray(numeric_view(non_null, ctype), dtype=np.float64)
        # Order-canonical: every derived statistic (and the stored sample)
        # is a function of the multiset, so merge-vs-rebuild can be bitwise.
        numbers.sort()
        width_sum = 0
        avg_width = 0.0
    else:
        numbers = np.asarray([], dtype=np.float64)
        width_sum = sum(len(v.encode("utf-8")) for v in non_null)
        # The widths are integers, so this equals their float mean exactly.
        avg_width = width_sum / n_nonnull if n_nonnull else 0.0

    if numbers.size:
        percentiles = _percentiles(numbers)
        total = float(np.sum(numbers))
        mean = total / numbers.size  # np.mean's own sum and division
        std = float(np.std(numbers))
        min_value = float(numbers[0])
        max_value = float(numbers[-1])
        total_sq = float(np.sum(numbers * numbers))
    else:
        percentiles = tuple(0.0 for _ in _PERCENTILES)
        mean = std = min_value = max_value = 0.0
        total = total_sq = 0.0

    sketch = NumericalSketch(
        unique_fraction=unique_fraction,
        nan_fraction=nan_fraction,
        avg_cell_width=avg_width,
        percentiles=percentiles,
        mean=mean,
        std=std,
        min_value=min_value,
        max_value=max_value,
    )

    if numbers.size <= RESERVOIR_CAP:
        sample = numbers.copy()
        sample_exact = True
    else:
        sample = _equi_depth(
            numbers, np.ones(numbers.size, dtype=np.float64), RESERVOIR_CAP
        )
        sample_exact = False

    hashes = _mix64(cells.hashes)
    hashes.sort()
    if n_distinct <= DISTINCT_CAP:
        distinct = hashes
        distinct_exact = True
    else:
        distinct = hashes[:DISTINCT_CAP].copy()
        distinct_exact = False

    accumulator = NumericAccumulator(
        n_rows=n_rows,
        n_nonnull=n_nonnull,
        width_sum=width_sum,
        is_numeric=bool(ctype.is_numeric),
        n_numeric=int(numbers.size),
        total=total,
        total_sq=total_sq,
        min_value=min_value,
        max_value=max_value,
        sample=sample,
        sample_exact=sample_exact,
        n_distinct=n_distinct,
        distinct=distinct,
        distinct_exact=distinct_exact,
    )
    return sketch, accumulator


def numerical_sketch(column: Column) -> NumericalSketch:
    """Compute the paper's numerical sketch for one column."""
    return numerical_profile(column)[0]
