"""Golden digest of every packed sketch array on a small generated lake.

The sketch bytes are the oracle for every sketching fast path: a change
to hashing, type inference or the numerical profile that moves any stored
byte (or dtype, or shape, or the metadata) changes this digest. The
constant was computed from the straightforward per-column implementation
(scalar FNV-1a per string, ``strptime`` over every date format) that the
table-batched pipeline replaced.
"""

import hashlib
import json

from repro.core.engine import sketch_corpus
from repro.lake.serialization import pack_table_sketch
from repro.lakegen.generator import LakeSpec, generate_manifest, materialize_table
from repro.sketch.pipeline import SketchConfig, sketch_table
from repro.table.schema import Column, Table

LAKEGEN_SHA256 = "b5d3539f8c075be133ce286bb6af704090d46e17e25991b9d7f21d87e9cfbd50"
#: lakegen has no date columns and few nulls; this table covers the date
#: formats, null markers, thousands separators, multi-byte text and an
#: all-null column.
EDGE_SHA256 = "0931a827df3614a62f154fb6193367886023be5ea88e136fdbaa3217c3779322"


def sketch_digest(sketches) -> str:
    digest = hashlib.sha256()
    for sketch in sketches:
        arrays, meta = pack_table_sketch(sketch)
        for key in sorted(arrays):
            array = arrays[key]
            digest.update(key.encode())
            digest.update(array.dtype.str.encode())
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
        digest.update(json.dumps(meta, sort_keys=True).encode())
    return digest.hexdigest()


def test_lakegen_sketch_bytes_match_golden_digest():
    manifest = generate_manifest(LakeSpec(columns=300, seed=7))
    tables = [materialize_table(manifest, name) for name in manifest["order"]]
    sketches = sketch_corpus(tables, SketchConfig(num_perm=16, seed=1))
    assert sum(sketch.n_cols for sketch in sketches) >= 300
    assert sketch_digest(sketches) == LAKEGEN_SHA256


def _edge_table() -> Table:
    rows = 40
    formats = [
        "2021-03-{:02d}", "2021/03/{:02d}", "{:02d}-03-2021", "{:02d}/03/2021",
        "03/{:02d}/2021", "2021-03-{:02d} 10:20:30", "{:02d}/03/21 10:20:30",
        "2021-03-{:02d}T10:20:30", "{} Mar 2021", "Mar {}, 2021",
    ]
    nulls = ["", "nan", "NULL", " n/a ", "-", "?", "None"]
    columns = {
        "iso": [f"2020-01-{i % 28 + 1:02d}" for i in range(rows)],
        "mixed_dates": [formats[i % 10].format(i % 28 + 1) for i in range(rows)],
        "years": [str(1990 + i % 12) for i in range(rows)],
        "amount": [
            nulls[i % 7] if i % 5 == 0 else f"{i * 1234.5:,.2f}"
            for i in range(rows)
        ],
        "text": [f"Zürich café {i % 9} \u6771\u4eac \U0001f600" for i in range(rows)],
        "sparse": [nulls[i % 7] if i < 12 else f"v{i % 4}" for i in range(rows)],
        "empty": [nulls[i % 7] for i in range(rows)],
    }
    return Table(
        name="edge",
        description="dates, nulls and wide text",
        columns=[Column(name, values) for name, values in columns.items()],
    )


def test_edge_table_sketch_bytes_match_golden_digest():
    sketch = sketch_table(_edge_table(), SketchConfig(num_perm=16, seed=1))
    assert sketch_digest([sketch]) == EDGE_SHA256
