"""`repro.obs` wired through the lake: Timings as a span projection, the
histogram/Timings reconciliation the acceptance gate demands, the
slow-query log, and the service-level stats satellites."""

from __future__ import annotations

import pytest

from repro import obs
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import LakeStore


@pytest.fixture()
def service(cold_catalog) -> LakeService:
    return LakeService(cold_catalog)


# --------------------------------------------------------------------- #
# Ingest span tree
# --------------------------------------------------------------------- #
def test_bulk_ingest_span_tree(tmp_path, lake_embedder, lake_tables):
    catalog = LakeCatalog(lake_embedder, store=LakeStore(tmp_path, "fp"))
    with obs.span("caller") as root:
        catalog.add_tables(lake_tables)
    (ingest,) = root.children
    assert ingest.name == "lake.ingest"
    names = [child.name for child in ingest.children]
    assert names[:3] == ["ingest.sketch", "ingest.embed", "ingest.index"]
    # Store writes that run on this thread attach after the stages.
    assert set(names[3:]) <= {"store.flush", "store.flush_index"}
    children_ms = sum(child.duration_ms for child in ingest.children)
    assert 0.0 < children_ms <= ingest.duration_ms


# --------------------------------------------------------------------- #
# Timings as a span projection
# --------------------------------------------------------------------- #
def test_member_query_timings_projection(service):
    result = service.discover(DiscoveryRequest(mode="union", k=5, table="g0t0"))
    timings = result.timings
    # Member queries reuse stored vectors: no sketch, no embed...
    assert timings.sketch_ms == 0.0
    assert timings.embed_ms == 0.0
    # ...but the index search and the end-to-end total are real work.
    assert timings.index_ms > 0.0
    assert timings.total_ms >= timings.index_ms
    assert result.diagnostics["cache_hit"] is None


def test_external_query_cache_hit_keeps_index_and_total(service, lake_tables):
    request = DiscoveryRequest(mode="union", k=5, payload=lake_tables["g0t0"])
    cold = service.discover(request)
    assert cold.diagnostics["cache_hit"] is False
    assert cold.timings.sketch_ms > 0.0
    assert cold.timings.embed_ms > 0.0
    warm = service.discover(request)
    assert warm.diagnostics["cache_hit"] is True
    # The docstring's contract: only the stages the cache skips go to zero.
    assert warm.timings.sketch_ms == 0.0
    assert warm.timings.embed_ms == 0.0
    assert warm.timings.index_ms > 0.0
    assert warm.timings.total_ms >= warm.timings.index_ms


def test_batch_queries_carry_amortized_stage_timings(service, lake_tables):
    requests = [
        DiscoveryRequest(mode="union", k=5, payload=lake_tables[name])
        for name in ("g0t1", "g1t1", "g2t1")
    ]
    results = service.discover_batch(requests)
    for result in results:
        assert result.timings.sketch_ms > 0.0
        assert result.timings.embed_ms > 0.0
        assert result.timings.total_ms > 0.0


def test_request_id_lands_in_diagnostics(service):
    with obs.bind_request_id("rid-in-proc-42"):
        result = service.discover(
            DiscoveryRequest(mode="union", k=3, table="g0t0")
        )
    assert result.diagnostics["request_id"] == "rid-in-proc-42"
    # Outside any binding the key is simply absent.
    bare = service.discover(DiscoveryRequest(mode="union", k=3, table="g0t1"))
    assert "request_id" not in bare.diagnostics


# --------------------------------------------------------------------- #
# The acceptance reconciliation: histogram sum vs summed Timings
# --------------------------------------------------------------------- #
def test_query_histogram_reconciles_with_timings(service, lake_tables):
    registry = obs.get_registry()
    registry.reset()
    totals = 0.0
    count = 0
    for name in ("g0t0", "g1t0", "g2t0", "g0t1", "g1t1"):
        for mode in ("union", "join"):
            result = service.discover(
                DiscoveryRequest(mode=mode, k=5, table=name)
            )
            totals += result.timings.total_ms
            count += 1
    hist = registry.get("lake_query_duration_ms")
    assert hist.total_count == count
    assert hist.total_sum == pytest.approx(totals, rel=0.01)
    assert registry.get("lake_queries_total").value == count


# --------------------------------------------------------------------- #
# Slow-query log
# --------------------------------------------------------------------- #
def test_slow_log_records_span_breakdowns(service):
    for name in ("g0t0", "g0t1", "g1t0"):
        service.discover(DiscoveryRequest(mode="union", k=5, table=name))
    entries = service.slow_log.snapshot()
    assert len(entries) == 3
    slowest = [entry["total_ms"] for entry in entries]
    assert slowest == sorted(slowest, reverse=True)
    for entry in entries:
        assert entry["mode"] == "union"
        assert entry["spans"]["name"] == "lake.discover"
        assert entry["timings"]["total_ms"] == entry["total_ms"]


def test_slow_log_capacity_keeps_the_slowest():
    log = obs.SlowQueryLog(capacity=2)
    for total in (5.0, 1.0, 9.0, 3.0):
        log.record({"total_ms": total})
    kept = [entry["total_ms"] for entry in log.snapshot()]
    assert kept == [9.0, 5.0]


def test_slow_log_honors_the_gate():
    log = obs.SlowQueryLog(capacity=4)
    obs.set_enabled(False)
    try:
        assert log.record({"total_ms": 1.0}) is False
    finally:
        obs.set_enabled(True)
    assert len(log) == 0


# --------------------------------------------------------------------- #
# Service stats satellites
# --------------------------------------------------------------------- #
def test_stats_observability_fields(service, lake_tables):
    before = service.stats()
    assert before["uptime_s"] >= 0.0
    assert before["queries_total"] == 0
    assert before["cache_hit_rate"] is None  # no lookups yet

    request = DiscoveryRequest(mode="union", k=5, payload=lake_tables["g0t0"])
    service.discover(request)  # miss
    service.discover(request)  # hit
    service.discover(DiscoveryRequest(mode="union", k=5, table="g0t1"))

    after = service.stats()
    assert after["queries_total"] == 3
    assert after["queries_served"] == after["queries_total"]
    assert after["cache_hits"] == 1
    assert after["cache_misses"] == 1
    assert after["cache_hit_rate"] == pytest.approx(0.5)
    assert after["cache_evictions"] == 0
    assert after["uptime_s"] >= before["uptime_s"]
    # Ingest counting rides the same stats payload.
    assert after["ingests_total"] == 0
