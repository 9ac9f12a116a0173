"""Type inference follows the paper's first-10-values rule."""

import datetime as dt
import re
import time

from hypothesis import given, strategies as st

from repro.table.infer import (
    _DATE_FORMATS,
    TYPE_INFERENCE_SAMPLE,
    infer_column_type,
    numeric_view,
    parse_date,
    to_float,
)
from repro.table.schema import ColumnType, is_null

# --------------------------------------------------------------------- #
# Reference implementations: the plain forms the fast paths must equal.
# --------------------------------------------------------------------- #
_REFERENCE_FORMATS = (
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%d-%m-%Y",
    "%d/%m/%Y",
    "%m/%d/%Y",
    "%Y-%m-%d %H:%M:%S",
    "%d/%m/%y %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%d %b %Y",
    "%b %d, %Y",
    "%Y",  # never reached: 4-digit strings take the integer branch
)
_REFERENCE_INT = re.compile(r"^[+-]?\d+$")


def reference_parse_date(cell: str) -> float | None:
    """``parse_date`` without the shape gate: every format through strptime."""
    text = cell.strip()
    if not text:
        return None
    if _REFERENCE_INT.match(text):
        year = int(text)
        if 1500 <= year <= 2200 and len(text) == 4:
            return dt.datetime(year, 1, 1, tzinfo=dt.timezone.utc).timestamp()
        return None
    for fmt in _REFERENCE_FORMATS:
        try:
            parsed = dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=dt.timezone.utc).timestamp()
    return None


def reference_sample(values: list[str]) -> list[str]:
    """The inference sample taken by filtering the whole column first."""
    return [v for v in values if not is_null(v)][:TYPE_INFERENCE_SAMPLE]


def test_integer_column():
    assert infer_column_type(["1", "22", "-3"]) == ColumnType.INTEGER


def test_float_column():
    assert infer_column_type(["1.5", "2.25", "1e3"]) == ColumnType.FLOAT


def test_integers_are_valid_floats_but_typed_integer():
    assert infer_column_type(["1", "2"]) == ColumnType.INTEGER


def test_date_column():
    assert infer_column_type(["2020-01-01", "2021-12-31"]) == ColumnType.DATE


def test_mixed_defaults_to_string():
    assert infer_column_type(["2020-01-01", "hello"]) == ColumnType.STRING


def test_only_first_ten_values_matter():
    values = ["1"] * 10 + ["not a number"]
    assert infer_column_type(values) == ColumnType.INTEGER
    # Null cells do not count towards the ten.
    values = ["", "nan"] + ["7"] * 5 + ["-"] + ["8"] * 5 + ["not a number"]
    assert reference_sample(values) == ["7"] * 5 + ["8"] * 5
    assert infer_column_type(values) == ColumnType.INTEGER


def test_empty_and_null_only_is_string():
    assert infer_column_type([]) == ColumnType.STRING
    assert infer_column_type(["", "nan"]) == ColumnType.STRING


def test_bare_year_column_is_integer_not_date():
    # Years parse as dates value-wise but columns of ints stay integers.
    assert infer_column_type(["1990", "2001"]) == ColumnType.INTEGER
    assert parse_date("1990") is not None


def test_parse_date_formats():
    assert parse_date("2020-06-15") is not None
    assert parse_date("15/06/2020") is not None
    assert parse_date("Jun 15, 2020") is not None
    assert parse_date("not a date") is None
    assert parse_date("123456") is None  # 6 digits: not a year


def test_parse_date_ordering():
    assert parse_date("2021-01-01") > parse_date("2020-01-01")


def test_to_float():
    assert to_float("1,234.5") == 1234.5
    assert to_float("-2e3") == -2000.0
    assert to_float("abc") is None
    assert to_float("") is None


def test_numeric_view_dates_become_timestamps():
    stamps = numeric_view(["2020-01-01", "bad", "2021-01-01"], ColumnType.DATE)
    assert len(stamps) == 2
    assert stamps[1] > stamps[0]


def test_numeric_view_drops_unparseable():
    assert numeric_view(["1", "x", "3"], ColumnType.INTEGER) == [1.0, 3.0]


@given(st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=10))
def test_integer_lists_always_infer_integer(values):
    assert infer_column_type([str(v) for v in values]) == ColumnType.INTEGER


# --------------------------------------------------------------------- #
# Fast paths against the references
# --------------------------------------------------------------------- #
def test_reference_formats_are_the_live_ones_plus_the_dead_year():
    assert _REFERENCE_FORMATS == _DATE_FORMATS + ("%Y",)


@given(st.text(max_size=40))
def test_gated_parse_date_equals_reference_on_any_text(text):
    assert parse_date(text) == reference_parse_date(text)


#: Digits (one of them Arabic-Indic), separators, whitespace and the letters
#: of a few month names in both cases.
_DATE_ALPHABET = "0123456789\u0663 \t-/:,.TtJjAaNnMmRrDdEeCc"


@given(st.text(alphabet=_DATE_ALPHABET, max_size=24))
def test_gated_parse_date_equals_reference_on_date_like_text(text):
    assert parse_date(text) == reference_parse_date(text)


@given(
    st.datetimes(min_value=dt.datetime(1000, 1, 1)),
    st.sampled_from(_REFERENCE_FORMATS),
)
def test_gated_parse_date_accepts_every_format_output(moment, fmt):
    text = moment.strftime(fmt)
    assert parse_date(text) == reference_parse_date(text)
    if fmt != "%Y":
        assert parse_date(text) is not None


@given(
    st.integers(min_value=1, max_value=28),
    st.sampled_from(["Jan", "FEB", "mar", "Sep", "dec"]),
    st.integers(min_value=1000, max_value=9999),
    st.sampled_from([" ", "  ", "\t", " \n ", "\u2003"]),
    st.sampled_from(["", " ", "0"]),
)
def test_gated_parse_date_whitespace_and_month_name_variants(
    day, month, year, gap, pad
):
    day_text = f"{pad}{day}" if day < 10 else str(day)
    for text in (
        f"{day_text}{gap}{month}{gap}{year}",
        f"{month}{gap}{day_text},{gap}{year}",
        f"{year}-01-{day_text}",
        f"{year}-01-{day_text}t10:20:30",
        f"{year}-01-{day_text}{gap}1:2:3",
        f"  {day_text}/1/{year}  ",
    ):
        assert parse_date(text) == reference_parse_date(text), repr(text)


def test_shape_gate_is_linear_on_long_whitespace_runs():
    # A quadratic gate (e.g. ``.+?`` for ``%b`` beside ``\s+``) takes
    # tens of seconds here; the linear one takes milliseconds.
    started = time.perf_counter()
    assert parse_date("a" + " " * 20_000 + "x") is None
    assert parse_date("1" + " " * 20_000 + "Jan" + " " * 20_000 + "x") is None
    assert time.perf_counter() - started < 2.0


_cells = st.one_of(
    st.sampled_from(["", "nan", "NULL", " n/a ", "-", "?", "None"]),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(str),
    st.sampled_from(["2020-01-01", "Mar 5, 2021", "05/03/2021", "1999"]),
    st.text(max_size=8),
)


@given(st.lists(_cells, max_size=30))
def test_infer_column_type_unchanged_with_nulls_anywhere(values):
    assert infer_column_type(values) == infer_column_type(reference_sample(values))


def test_numeric_view_drops_null_markers():
    nulls = ["", "nan", "NaN", "null", "NONE", "na", "N/A", "-", "?", " ? "]
    for ctype in (ColumnType.INTEGER, ColumnType.FLOAT, ColumnType.DATE):
        assert numeric_view(nulls + ["1"], ctype) == [1.0]
