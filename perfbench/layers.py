"""Per-layer attribution for traced runs.

:class:`Tracer` installs timing shims around each layer's public functions
(and the names other modules imported them under), records busy time and
call counts per layer, and restores the originals on exit. The program is
unchanged; only a traced run (``--trace 1``) installs the shims, so the
end-to-end metrics of an untraced run carry no tracing cost.

:data:`LAYER_MAP` records which of a workload's named figures each
per-layer metric should move.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from repro import obs
from repro.core import engine as engine_mod
from repro.core.engine import EmbeddingEngine
from repro.lake import catalog as catalog_mod
from repro.lake import service as service_mod
from repro.lake.catalog import LakeCatalog
from repro.lake.store import INDEX_NAME, MANIFEST_NAME, LakeStore
from repro.lakegen import counter_total
from repro.search.tables import TableSearcher
from repro.sketch import pipeline as pipeline_mod
from repro.sketch.minhash import MinHasher
from repro.table import infer as infer_mod

#: layer -> per-layer metric -> the ``[workload, figure]`` pairs it should
#: move, where the figure is one of the workload's named figures (empty:
#: context only). Units and directions live in ``BENCHMARK.json``.
_INGEST = ["bulk_ingest", "ingest_cols_per_s"]
_EXTERNAL = ["read_only", "external_p50_ms"]
_MEMBER = [["read_only", "member_p50_ms"], ["read_only", "member_p99_ms"]]
_WRITE_P50 = ["read_write", "write_p50_ms"]
_STALLS = [["read_write", "read_p99_ms"], ["read_write", "write_p90_ms"]]
LAYER_MAP = {
    "sketch": {
        "sketch.busy_ms": [_INGEST, _EXTERNAL],
        "sketch.columns": [_INGEST, _EXTERNAL],
        "sketch.infer_ms": [_INGEST],
        "sketch.minhash_ms": [_INGEST],
        "sketch.numeric_ms": [_INGEST],
        "sketch.snapshot_ms": [_INGEST],
    },
    "engine": {
        "engine.embed_ms": [_INGEST, _EXTERNAL, ["read_write", "write_p90_ms"]],
        "engine.forward_ms": [_INGEST],
        "engine.forwards": [_INGEST],
        "engine.pad_ratio": [_INGEST],
    },
    "search": {
        "search.query_ms": _MEMBER,
        "search.candidates_per_query": _MEMBER,
        "search.add_ms": [_INGEST],
    },
    "catalog": {
        "catalog.append_ms": [_WRITE_P50],
        "catalog.refresh_ms": _STALLS,
        "catalog.refreshed_tables": _STALLS,
    },
    "store": {
        "store.save_ms": [_WRITE_P50, _INGEST],
        "store.index_save_ms": [_WRITE_P50, _INGEST],
        "store.flush_bytes_per_write": [_WRITE_P50, _INGEST],
        "store.load_all_ms": [["bulk_ingest", "open_s"]],
        "store.load_index_ms": [["bulk_ingest", "open_s"]],
    },
    "service": {
        "service.unattributed_ms": [["read_write", "read_p99_ms"]],
        "service.queue_ms": [["read_write", "read_p99_ms"]],
        "service.cache_hit_ratio": [_EXTERNAL],
    },
    "gen": {"gen.lateness_ms": []},
}

#: Per-layer metrics the workload itself supplies (the tracer cannot see
#: them from inside the program's calls).
WORKLOAD_SUPPLIED = (
    "search.candidates_per_query",
    "service.unattributed_ms",
    "service.queue_ms",
    "service.cache_hit_ratio",
    "gen.lateness_ms",
)


def _file_bytes(store: LakeStore, name: str) -> int:
    total = 0
    for shard in store.shards:
        path = shard.root / name
        if path.exists():
            total += path.stat().st_size
    return total


class Tracer:
    """Timing shims around each layer's public functions.

    Busy time is wall time inside the shimmed call, summed across
    threads. A shim entered while one of its ``inside`` spans is open on
    the same thread calls straight through, so nested calls (the words
    MinHash inside ``sketch_tokens``, the row MinHash inside the content
    snapshot) are counted once, by the outer span.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []
        self.busy_ms: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.items: dict = defaultdict(int)
        self.flush_bytes = 0

    # ------------------------------------------------------------------ #
    def _open_spans(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: str, elapsed_s: float, items: int = 0) -> None:
        with self._lock:
            self.busy_ms[span] += elapsed_s * 1000.0
            self.calls[span] += 1
            self.items[span] += items

    def _shim(self, span, original, inside=(), items=None, after=None,
              generator=False):
        tracer = self
        skip = {span, *inside}

        if generator:
            @functools.wraps(original)
            def shim(*args, **kwargs):
                iterator = original(*args, **kwargs)
                elapsed = 0.0
                while True:
                    started = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        tracer._record(
                            span, elapsed + time.perf_counter() - started
                        )
                        return
                    elapsed += time.perf_counter() - started
                    yield item

            return shim

        @functools.wraps(original)
        def shim(*args, **kwargs):
            stack = tracer._open_spans()
            if skip.intersection(stack):
                return original(*args, **kwargs)
            stack.append(span)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
            tracer._record(
                span, elapsed, items(args, result) if items is not None else 0
            )
            if after is not None:
                after(args)
            return result

        return shim

    def _patch(self, owners, attr: str, span: str, **kw) -> None:
        shim = None
        for owner in owners:
            original = getattr(owner, attr)
            if shim is None:
                shim = self._shim(span, original, **kw)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, shim)

    def _count_store_bytes(self, names):
        def after(args):
            written = sum(_file_bytes(args[0], name) for name in names)
            with self._lock:
                self.flush_bytes += written

        return after

    def install(self) -> "Tracer":
        sketch_table_owners = (pipeline_mod, engine_mod, service_mod, catalog_mod)
        self._patch(sketch_table_owners, "sketch_table", "sketch",
                    items=lambda args, result: result.n_cols)
        self._patch((infer_mod,), "infer_column_type", "sketch.infer")
        for attr in ("sketch", "sketch_tokens"):
            self._patch((MinHasher,), attr, "sketch.minhash",
                        inside=("sketch.snapshot",))
        self._patch((pipeline_mod,), "numerical_profile", "sketch.numeric")
        self._patch((pipeline_mod,), "content_snapshot", "sketch.snapshot")
        self._patch((EmbeddingEngine,), "embed_corpus", "engine.embed")
        for attr in ("near_tables_scored", "join_tables_scored"):
            self._patch((TableSearcher,), attr, "search.query")
        self._patch((TableSearcher,), "add_table", "search.add")
        self._patch((LakeCatalog,), "append_rows", "catalog.append")
        self._patch((LakeCatalog,), "refresh_stale", "catalog.refresh",
                    items=lambda args, result: len(result))
        manifest_bytes = self._count_store_bytes((MANIFEST_NAME,))
        for attr in ("save_table", "save_tables"):
            self._patch((LakeStore,), attr, "store.save", after=manifest_bytes)
        self._patch((LakeStore,), "remove_table", "store.remove",
                    after=manifest_bytes)
        self._patch((LakeStore,), "save_index", "store.index_save",
                    after=self._count_store_bytes((MANIFEST_NAME, INDEX_NAME)))
        self._patch((LakeStore,), "load_all", "store.load_all", generator=True)
        self._patch((LakeStore,), "load_index", "store.load_index")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        """Start the measured window: drop what set-up recorded."""
        with self._lock:
            self.busy_ms.clear()
            self.calls.clear()
            self.items.clear()
            self.flush_bytes = 0

    # ------------------------------------------------------------------ #
    def _per_call(self, span: str) -> float:
        calls = self.calls.get(span, 0)
        return self.busy_ms.get(span, 0.0) / calls if calls else 0.0

    def metrics(self, writes: int, supplied: dict) -> dict:
        """Every per-layer metric for the window since :meth:`reset`.

        Times are means per call of the shimmed function; the ``sketch.*``
        stage times are per table sketched, so they add up to at most
        ``sketch.busy_ms``. ``writes`` is the number of store-writing
        service calls the workload made; ``supplied`` holds the metrics in
        :data:`WORKLOAD_SUPPLIED`. Engine forwards and archive bytes come
        from the ``repro.obs`` registry, reset at the window's start.
        """
        registry = obs.get_registry().collect()
        tables = self.calls.get("sketch", 0)

        def per_table(span: str) -> float:
            return self.busy_ms.get(span, 0.0) / tables if tables else 0.0

        forwards = counter_total(registry, "engine_forwards_total") or 0.0
        forward_ms = registry["engine_forward_duration_ms"]["values"]
        forward_sum = sum(value["sum"] for value in forward_ms)
        tokens = counter_total(registry, "engine_tokens_total") or 0.0
        padding = counter_total(registry, "engine_padded_tokens_total") or 0.0
        archive_bytes = counter_total(registry, "lake_store_flush_bytes_total") or 0.0
        out = {
            "sketch.busy_ms": self._per_call("sketch"),
            "sketch.columns": float(self.items.get("sketch", 0)),
            "sketch.infer_ms": per_table("sketch.infer"),
            "sketch.minhash_ms": per_table("sketch.minhash"),
            "sketch.numeric_ms": per_table("sketch.numeric"),
            "sketch.snapshot_ms": per_table("sketch.snapshot"),
            "engine.embed_ms": self._per_call("engine.embed"),
            "engine.forward_ms": forward_sum / forwards if forwards else 0.0,
            "engine.forwards": forwards,
            "engine.pad_ratio": tokens / (tokens + padding) if tokens else 0.0,
            "search.query_ms": self._per_call("search.query"),
            "search.add_ms": self._per_call("search.add"),
            "catalog.append_ms": self._per_call("catalog.append"),
            "catalog.refresh_ms": self._per_call("catalog.refresh"),
            "catalog.refreshed_tables": float(self.items.get("catalog.refresh", 0)),
            "store.save_ms": self._per_call("store.save"),
            "store.index_save_ms": self._per_call("store.index_save"),
            "store.flush_bytes_per_write": (
                (archive_bytes + self.flush_bytes) / writes if writes else 0.0
            ),
            "store.load_all_ms": self._per_call("store.load_all"),
            "store.load_index_ms": self._per_call("store.load_index"),
        }
        for name in WORKLOAD_SUPPLIED:
            out[name] = float(supplied.get(name, 0.0))
        return out
