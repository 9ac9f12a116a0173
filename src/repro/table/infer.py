"""Column type inference and value parsing.

Implements the paper's best-effort rule (§III-B.4): *"we made a best-case
effort to parse the first 10 values of each column as dates, integers, or
floats and defaulted to string if we could not convert them"*, and the
date-to-timestamp conversion used by numerical sketches (§III-A).
"""

from __future__ import annotations

import datetime as _dt
import re
from itertools import islice

from repro.table.schema import ColumnType, is_null

#: How many leading values the paper inspects when guessing a column's type.
TYPE_INFERENCE_SAMPLE = 10

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")

_DATE_FORMATS = (
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
)

#: What each directive of ``_DATE_FORMATS`` can match, loosened so that
#: every string ``strptime`` accepts for the format also matches the shape:
#: ``%d`` also takes strptime's space-padded day, ``%b`` any run of
#: non-space characters (month names depend on the locale), and whitespace
#: in a format matches any run of whitespace, as in ``strptime``. Matching
#: is case-insensitive, as ``strptime``'s is. No two adjacent pieces can
#: both match whitespace at length, so a long cell is rejected in linear
#: time (``.+?`` for ``%b`` took seconds on a cell with a 5k-space run).
_DIRECTIVE_SHAPES = {
    "%Y": r"\d{4}",
    "%y": r"\d{2}",
    "%m": r"\d{1,2}",
    "%d": r"\s?\d{1,2}",
    "%H": r"\d{1,2}",
    "%M": r"\d{1,2}",
    "%S": r"\d{1,2}",
    "%b": r"\S+",
}


def _format_shape(fmt: str) -> str:
    shape = []
    for piece in re.split(r"(%[a-zA-Z]|\s+)", fmt):
        if piece.startswith("%"):
            # KeyError at import: a new directive needs its shape first.
            shape.append(_DIRECTIVE_SHAPES[piece])
        elif piece.isspace():
            shape.append(r"\s+")
        else:
            shape.append(re.escape(piece))
    return "".join(shape)


#: A cheap superset of the strings some ``_DATE_FORMATS`` entry parses: a
#: cell that does not match it cannot be a date, so it never reaches the
#: (slow, exception-driven) ``strptime`` loop.
_DATE_SHAPE = re.compile(
    "|".join(f"(?:{_format_shape(fmt)})" for fmt in _DATE_FORMATS),
    re.IGNORECASE,
)


def parse_date(cell: str) -> float | None:
    """Parse ``cell`` as a date and return a POSIX timestamp, else ``None``.

    Bare 4-digit years are accepted (Eurostat-style TIME_PERIOD columns) but
    only in a plausible range so integer codes are not mistaken for years.
    """
    text = cell.strip()
    if not text:
        return None
    if _INT_RE.match(text):
        # Interpret as a year only when it plausibly is one.
        year = int(text)
        if 1500 <= year <= 2200 and len(text) == 4:
            return _dt.datetime(year, 1, 1, tzinfo=_dt.timezone.utc).timestamp()
        return None
    if not _DATE_SHAPE.fullmatch(text):
        return None
    for fmt in _DATE_FORMATS:
        try:
            parsed = _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=_dt.timezone.utc).timestamp()
    return None


def to_float(cell: str) -> float | None:
    """Parse ``cell`` as a float (int/float syntax only), else ``None``."""
    text = cell.strip().replace(",", "")
    if not text or not _FLOAT_RE.match(text):
        return None
    try:
        return float(text)
    except ValueError:  # pragma: no cover - regex should prevent this
        return None


def infer_column_type(values: list[str]) -> ColumnType:
    """Infer a column's :class:`ColumnType` from its first non-null values.

    The decision order matches the paper: date, then integer, then float,
    defaulting to string. A sample is typed as a class only when *every*
    sampled non-null value parses as that class.
    """
    sample = list(
        islice((v for v in values if not is_null(v)), TYPE_INFERENCE_SAMPLE)
    )
    if not sample:
        return ColumnType.STRING

    if all(_looks_like_date(v) for v in sample):
        return ColumnType.DATE
    if all(_INT_RE.match(v.strip()) for v in sample):
        return ColumnType.INTEGER
    if all(_FLOAT_RE.match(v.strip().replace(",", "")) for v in sample):
        return ColumnType.FLOAT
    return ColumnType.STRING


def _looks_like_date(cell: str) -> bool:
    text = cell.strip()
    if _INT_RE.match(text):
        # Bare integers are never typed as dates at the *column* level: a
        # column of years is more usefully treated as an integer column.
        return False
    return parse_date(text) is not None


def numeric_view(values: list[str], ctype: ColumnType) -> list[float]:
    """Convert cells to floats for numerical sketching.

    Date cells become POSIX timestamps ("when possible, we convert date
    columns to timestamps and treat them as numeric columns", §III-A);
    unparseable cells are dropped. No null marker parses as a number or a
    date, so null cells are dropped with them.
    """
    parse = _timestamp if ctype == ColumnType.DATE else to_float
    return [number for number in map(parse, values) if number is not None]


def _timestamp(cell: str) -> float | None:
    stamp = parse_date(cell)
    return stamp if stamp is not None else to_float(cell)
