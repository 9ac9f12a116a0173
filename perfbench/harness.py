"""Shared pieces of the lake benchmark: the lake under test, the service
stack built on it, quantiles, and the checks every workload reuses.

Inputs come only from :mod:`repro.lakegen` and the ``--seed``: the program
under test receives generated tables and discovery requests, nothing else.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import config_fingerprint
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.lakegen import (
    ChurnSpec,
    LakeSpec,
    ScorecardError,
    build_service,
    generate_manifest,
    latency_quantiles,
    materialize_table,
)

#: Column budget of every workload's lake (672 tables at seed 7).
LAKE_COLUMNS = 3000
#: Tables per ``LakeService.add_tables`` call, for ingest and provisioning.
INGEST_BATCH = 64
K = 10
MODES = ("join", "union", "subset")
#: Zipf exponent of the hot-table skew: lakegen's churn default.
ZIPF = ChurnSpec.zipf


def lake_spec(seed: int) -> LakeSpec:
    return LakeSpec(columns=LAKE_COLUMNS, seed=seed)


def manifest_for(seed: int) -> dict:
    return generate_manifest(lake_spec(seed))


def fresh_tables(manifest: dict) -> list:
    """Newly materialized tables: column types not yet inferred, so the
    program pays inference as it would on tables arriving from a lake."""
    return [materialize_table(manifest, name) for name in manifest["order"]]


def n_columns(tables) -> int:
    return sum(table.n_cols for table in tables)


#: Lake whose sample trains the tokenizer. The model is fixed across
#: workload seeds, as a deployed model is across the lakes it serves, so
#: set-up time does not vary with the seed's vocabulary.
MODEL_SEED = 7


@functools.lru_cache(maxsize=1)
def model_manifest() -> dict:
    return manifest_for(MODEL_SEED)


class Stack:
    """The in-process lake stack: trunk + tokenizer built by
    ``lakegen.build_service`` on the :data:`MODEL_SEED` lake, a flat
    ``LakeStore`` under ``root``, a catalog and a service on top."""

    def __init__(self, root: Path):
        self.embedder = build_service(model_manifest()).catalog.embedder
        self.fingerprint = config_fingerprint(
            self.embedder.model.config, model=self.embedder.model
        )
        self.root = root

    def empty_service(self) -> LakeService:
        shutil.rmtree(self.root, ignore_errors=True)
        store = LakeStore(self.root, self.fingerprint)
        return LakeService(LakeCatalog(self.embedder, store=store))

    def open_catalog(self) -> LakeCatalog:
        store = LakeStore.open(self.root, expected_fingerprint=self.fingerprint)
        return LakeCatalog.from_store(self.embedder, store)


def ingest(service: LakeService, tables) -> list:
    """Ingest in fixed batches; returns each ``add_tables`` call's seconds."""
    seconds = []
    for start in range(0, len(tables), INGEST_BATCH):
        batch = {table.name: table for table in tables[start : start + INGEST_BATCH]}
        started = time.perf_counter()
        service.add_tables(batch)
        seconds.append(time.perf_counter() - started)
    return seconds


def provisioned(manifest: dict, root: Path, repeats: int):
    """Provision a store-backed lake, then time ``repeats`` cold starts of a
    serving process on it (stack build + warm open). Returns the last
    started service, the start times and the warm-open part of each, in
    seconds."""
    model_manifest()
    ingest(Stack(root).empty_service(), fresh_tables(manifest))
    setup_s, open_s = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        stack = Stack(root)
        opening = time.perf_counter()
        service = LakeService(stack.open_catalog())
        done = time.perf_counter()
        setup_s.append(done - started)
        open_s.append(done - opening)
    return service, setup_s, open_s


def zipf_picker(names: list, rng: np.random.Generator):
    """A hot-table sampler: a seeded permutation ranks the tables, and
    ranks are drawn with Zipf weights."""
    ranked = [names[i] for i in rng.permutation(len(names))]
    weights = np.arange(1, len(ranked) + 1, dtype=np.float64) ** -ZIPF
    weights /= weights.sum()

    def pick() -> str:
        return ranked[int(rng.choice(len(ranked), p=weights))]

    return pick


def member_request(name: str, mode: str, allow_stale: bool = False):
    return DiscoveryRequest(
        mode=mode,
        k=K,
        table=name,
        column="key" if mode == "join" else None,
        allow_stale=allow_stale,
    )


def payload_request(table, mode: str):
    return DiscoveryRequest(
        mode=mode, k=K, payload=table, column="key" if mode == "join" else None
    )


def ranked(result) -> list:
    """The comparable content of an answer: ranked ``(table, score)``."""
    return [(hit.table, repr(hit.score)) for hit in result.hits]


def probe_requests(manifest: dict, per_mode: int = 8) -> list:
    """A fixed probe set: the first planted query tables of each mode."""
    requests = []
    for mode in MODES:
        for entry in manifest["truth"][mode][:per_mode]:
            requests.append(member_request(entry["query"], mode))
    return requests


def answers(service: LakeService, requests) -> list:
    return [ranked(service.discover(request)) for request in requests]


def digest(values) -> str:
    blob = json.dumps(values, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def source_digest(*roots: Path) -> str:
    """Content hash of the program's and the benchmark's sources: keys
    stored answers, so a stored digest is only ever compared against
    answers of the same code to the same inputs."""
    sha = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            sha.update(str(path.relative_to(root.parent)).encode("utf-8"))
            sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def check_stored_digest(store: Path, key: str, value: str) -> bool:
    """Record ``value`` under ``key``; False if a different value is
    already recorded (the same code and seed answered differently)."""
    known = json.loads(store.read_text()) if store.exists() else {}
    if known.setdefault(key, value) != value:
        return False
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(known, sort_keys=True, indent=1))
    return True


def recall_counts(service: LakeService, manifest: dict) -> dict:
    """Per mode ``[found, asked]`` at ``K`` against the planted truth.

    Every query is a strict member-name query, so tables left stale by
    appends are re-embedded before they are scored. Join truth is
    symmetric (shared key distincts), so each planted join pair is asked
    from both ends.
    """
    out = {}
    for mode in MODES:
        pairs = [(e["query"], e["candidate"]) for e in manifest["truth"][mode]]
        if mode == "join":
            pairs += [(candidate, query) for query, candidate in pairs]
        found = sum(
            candidate in service.discover(member_request(query, mode)).tables()
            for query, candidate in pairs
        )
        out[mode] = [found, len(pairs)]
    return out


def pooled_recall(counts: dict) -> float:
    """Recall@K over every planted pair of every mode."""
    return sum(found for found, _ in counts.values()) / sum(
        asked for _, asked in counts.values()
    )


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 100 * q))


def median(values) -> float:
    return quantile(values, 0.5)


def tail(values, q: float = 0.99, blocks: int = 4) -> float:
    """The ``q`` quantile of each of ``blocks`` consecutive runs of samples,
    medianed: a stall confined to one part of the run moves one block's
    tail, not the figure."""
    return median([quantile(block, q) for block in np.array_split(values, blocks)])


def _edges(envelope: dict, name: str) -> tuple:
    """The finite bucket edges of a scraped histogram."""
    for value in envelope[name]["values"]:
        return tuple(sorted(float(edge) for edge in value["buckets"] if edge != "+Inf"))
    return obs.DEFAULT_MS_BUCKETS


def reconcile(client_ms_by_mode: dict) -> str | None:
    """Check the benchmark's own client-side latencies (wall time around
    each ``discover`` call) against the service's ``lake_query_duration_ms``
    histogram, which observes each query's ``timings.total_ms``.

    The client samples go into a private histogram with the service's
    bucket edges, and both sides go through ``lakegen.scorecard``'s bucket
    walk (which also reconciles the service's exposed quantiles with its
    own buckets). Per mode: the counts are equal; the histogram's sum is at
    most the client's (a call lasts at least as long as the query inside
    it); and each of p50/p95/p99 of the histogram sits in the client
    quantile's bucket, or is no larger than the client quantile and within
    one bucket width of it. Returns a message on disagreement, else None.
    The default registry must have been reset when the measured window
    opened.
    """
    name = "lake_query_duration_ms"
    envelope = obs.get_registry().collect()
    try:
        served = latency_quantiles(envelope, name)
    except ScorecardError as exc:
        return f"service histogram does not reconcile with itself: {exc}"
    edges = _edges(envelope, name)
    own_registry = obs.MetricsRegistry()
    own = own_registry.histogram(name, "client-side samples", ("mode",), buckets=edges)
    for mode, samples in client_ms_by_mode.items():
        for value in samples:
            own.labels(mode=mode).observe(value)
    client = latency_quantiles(own_registry.collect(), name)

    def bucket(value: float) -> int:
        return bisect.bisect_left(edges, value)

    for mode, samples in client_ms_by_mode.items():
        key = f"mode={mode}"
        theirs = served.get(key, {"count": 0})
        if theirs["count"] != len(samples):
            return (
                f"{key}: benchmark counted {len(samples)} queries, "
                f"{name} counted {theirs['count']}"
            )
        if not samples:
            continue
        mine = client[key]
        if theirs["sum"] > mine["sum"]:
            return f"{key}: histogram sum {theirs['sum']} over client sum {mine['sum']}"
        for label in ("p50", "p95", "p99"):
            c, h = mine[label], theirs[label]
            i = bucket(c)
            width = edges[i] - (edges[i - 1] if i else 0.0) if i < len(edges) else 0.0
            if bucket(h) != i and not (h <= c and c - h <= width):
                return f"{key}: {label} client {c} ms vs histogram {h} ms"
    return None
