"""The three workloads: ``bulk_ingest``, ``read_only`` and ``read_write``.

Each takes a :class:`Run` (seed, measured seconds, work directory, optional
tracer) and returns an :class:`Outcome`. Every workload reports the same
end-to-end metrics (``setup_s``, ``throughput_per_s``, ``p50_ms``,
``recall_at_10``), each over that workload's own unit of work, plus the
workload's named figures (ingest rate, warm-open time, latency tails,
miss share, write latency, recall per mode) as details. Those figures are
not gated: on a two-vCPU virtual machine, tails and warm-open medians
moved by more than the largest allowed bound between runs minutes apart.
Timed sections call the program only; inputs are generated before or
between timed calls.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.lake.api import DiscoveryError
from repro.lake.service import LakeService
from repro.lakegen import ChurnSpec
from repro.lakegen.driver import DEFAULT_BLEND
from repro.lakegen.generator import make_distractor, materialize_table
from repro.table.schema import table_from_rows

from harness import (
    INGEST_BATCH,
    MODES,
    Stack,
    answers,
    check_stored_digest,
    digest,
    fresh_tables,
    ingest,
    lake_spec,
    manifest_for,
    median,
    member_request,
    model_manifest,
    n_columns,
    payload_request,
    pooled_recall,
    probe_requests,
    provisioned,
    quantile,
    ranked,
    recall_counts,
    reconcile,
    tail,
    zipf_picker,
)

#: Cold starts timed per run; ``setup_s`` is their median. A serving
#: start (stack build + warm open) costs about three times an empty one.
EMPTY_SETUP_REPEATS = 7
SERVING_SETUP_REPEATS = 5
#: Warm opens timed after each bulk ingest.
OPENS_PER_INGEST = 2

#: read_only traffic shares. These are assumptions: lakegen's traffic
#: model has no external-payload share. Every 4th query carries an
#: external payload, so member queries stay the bulk of the traffic while
#: external ones still number in the thousands per run. Every 4th external
#: payload repeats one of a fixed pool, so most payloads are fresh (an LRU
#: miss) and a fixed share hits. Between two uses of one pool slot come
#: the other 15 pool payloads and 48 fresh ones, fewer than the service's
#: 128 cache entries, so every repeat is a hit.
EXTERNAL_EVERY = 4
REPEAT_EVERY = 4
REPEAT_POOL = 16

#: read_write pacing: below saturation at the commit that added it.
READ_RATE = 50.0
WRITE_RATE = 2.0
#: A read answered later than this after its due time misses. An
#: assumption: an idle read takes a few milliseconds and one write holds
#: the service lock for tens, so a read over the limit is one that waited
#: on a write and the miss share tracks the time readers spend blocked.
READ_LIMIT_MS = 25.0
#: Share of reads served with ``allow_stale``: lakegen's churn default.
STALE_FRACTION = ChurnSpec.stale_fraction


def _write_cycle() -> tuple:
    """lakegen's default mutation weights as a fixed cycle: the weights in
    hundredths give each op's exact count in a cycle as long as their sum
    (append 15, ingest 8, update 5, remove 5, refresh 7 of 40), interleaved
    by smooth weighted round robin."""
    weights = {op: round(100 * w) for op, w in DEFAULT_BLEND if op != "query"}
    total = sum(weights.values())
    credit = dict.fromkeys(weights, 0)
    cycle = []
    for _ in range(total):
        for op, weight in weights.items():
            credit[op] += weight
        op = max(credit, key=credit.get)
        credit[op] -= total
        cycle.append(op)
    return tuple(cycle)


WRITE_CYCLE = _write_cycle()


@dataclass
class Run:
    seed: int
    seconds: float
    work: Path
    digests: Path
    source: str
    tracer: object = None

    def window_start(self) -> None:
        """The measured window opens: reset the registry (so the latency
        histograms cover exactly this window) and the tracer."""
        obs.get_registry().reset()
        if self.tracer is not None:
            self.tracer.reset()

    def window_end(self, writes: int, supplied: dict) -> dict:
        """The measured window closes: the per-layer metrics of a traced
        run (empty when untraced). Checks that follow are not counted."""
        if self.tracer is None:
            return {}
        return self.tracer.metrics(writes, supplied)


@dataclass
class Outcome:
    #: The end-to-end metrics every workload reports.
    metrics: dict
    attempted: int
    failed: int
    #: The workload's own named figures: ``name -> (value, unit)``.
    figures: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def _common(setup_s, throughput, latency_ms, recall) -> dict:
    return {
        "setup_s": median(setup_s),
        "throughput_per_s": throughput,
        "p50_ms": median(latency_ms),
        "recall_at_10": pooled_recall(recall),
    }


def _recall_figures(recall: dict) -> dict:
    return {
        f"recall_{mode}": (found / asked, "ratio")
        for mode, (found, asked) in recall.items()
    }


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _registry_cache_ratio() -> float:
    registry = obs.get_registry().collect()
    hits = sum(v["value"] for v in registry["lake_cache_hits_total"]["values"])
    misses = sum(v["value"] for v in registry["lake_cache_misses_total"]["values"])
    return hits / (hits + misses) if hits + misses else 0.0


def _unattributed(result) -> float:
    """Query time outside sketch, embed and index: lock waits plus any
    in-query refresh."""
    t = result.timings
    return t.total_ms - t.sketch_ms - t.embed_ms - t.index_ms


# ---------------------------------------------------------------------- #
def bulk_ingest(run: Run) -> Outcome:
    """Unit of work: one 64-table ``add_tables`` call; throughput in lake
    columns per second."""
    manifest = manifest_for(run.seed)
    root = run.work / "lake"
    model_manifest()
    setup_s = []
    for _ in range(EMPTY_SETUP_REPEATS):
        started = time.perf_counter()
        stack = Stack(root)
        stack.empty_service()
        setup_s.append(time.perf_counter() - started)
    ingest(stack.empty_service(), fresh_tables(manifest)[:INGEST_BATCH])

    run.window_start()
    deadline = time.perf_counter() + run.seconds
    batch_s, opens = [], []
    cycle_s = 0.0
    while not batch_s or time.perf_counter() + cycle_s / 2 < deadline:
        cycle_started = time.perf_counter()
        tables = fresh_tables(manifest)
        service = stack.empty_service()
        batch_s.append(ingest(service, tables))
        for _ in range(OPENS_PER_INGEST):
            started = time.perf_counter()
            catalog = stack.open_catalog()
            opens.append(time.perf_counter() - started)
        cycle_s = time.perf_counter() - cycle_started
    writes = sum(len(ingest_s) for ingest_s in batch_s)
    layers = run.window_end(writes, {})

    problems = []
    reopened = LakeService(catalog)
    probes = probe_requests(manifest)
    if answers(reopened, probes) != answers(service, probes):
        problems.append("warm-open answers differ from pre-restart answers")
    if len(catalog) != len(tables):
        problems.append(f"warm open holds {len(catalog)} of {len(tables)} tables")
    recall = recall_counts(reopened, manifest)
    # Whole-lake rate from each batch's median over the run's ingests, so
    # one stalled batch does not move the figure.
    cols_per_s = n_columns(tables) / sum(
        median(per_batch) for per_batch in zip(*batch_s)
    )
    batch_ms = [1000.0 * s for ingest_s in batch_s for s in ingest_s]
    return Outcome(
        metrics=_common(setup_s, cols_per_s, batch_ms, recall),
        attempted=writes + len(opens),
        failed=0,
        figures={
            "ingest_cols_per_s": (cols_per_s, "1/s"),
            "batch_p90_ms": (quantile(batch_ms, 0.90), "ms"),
            "open_s": (median(opens), "s"),
            **_recall_figures(recall),
        },
        problems=problems,
        layers=layers,
        detail={"ingests": len(batch_s), "batches": writes, "opens": len(opens)},
    )


# ---------------------------------------------------------------------- #
def read_only(run: Run) -> Outcome:
    """Unit of work: one ``discover`` call (member or external);
    throughput in queries per second of the client's time inside
    ``discover`` (request generation between calls is not counted)."""
    manifest = manifest_for(run.seed)
    spec = lake_spec(run.seed)
    service, setup_s, open_s = provisioned(
        manifest, run.work / "lake", SERVING_SETUP_REPEATS
    )
    rng = np.random.default_rng([run.seed, 1])
    pick = zipf_picker(manifest["order"], rng)
    pool = [make_distractor(spec, f"rep{i:03d}", run.seed) for i in range(REPEAT_POOL)]
    probes = probe_requests(manifest)
    before = answers(service, probes)

    n_member = n_external = n_fresh = 0

    def next_request():
        nonlocal n_member, n_external, n_fresh
        if (n_member + n_external) % EXTERNAL_EVERY == EXTERNAL_EVERY - 1:
            mode = MODES[n_external % len(MODES)]
            if n_external % REPEAT_EVERY == 0:
                slot = (n_external // REPEAT_EVERY) % REPEAT_POOL
                payload = pool[slot]
            else:
                slot = None
                payload = make_distractor(spec, f"ext{n_fresh:06d}", run.seed)
                n_fresh += 1
            n_external += 1
            return "external", slot, payload_request(payload, mode)
        n_member += 1
        return "member", None, member_request(pick(), MODES[n_member % len(MODES)])

    for _ in range(2 * EXTERNAL_EVERY * len(MODES)):
        service.discover(next_request()[2])

    run.window_start()
    latency = {"member": [], "external": []}
    call_ms = {mode: [] for mode in MODES}
    candidates, unattributed = [], []
    repeated: dict = {}
    problems = []
    attempted = failed = 0
    deadline = time.perf_counter() + run.seconds
    while time.perf_counter() < deadline:
        kind, slot, request = next_request()
        attempted += 1
        started = time.perf_counter()
        try:
            result = service.discover(request)
        except DiscoveryError:
            failed += 1
            continue
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        latency[kind].append(elapsed_ms)
        call_ms[request.mode].append(elapsed_ms)
        candidates.append(result.diagnostics["candidates"])
        unattributed.append(_unattributed(result))
        if slot is not None:
            answer = ranked(result)
            if repeated.setdefault((slot, request.mode), answer) != answer:
                problems.append(f"repeat payload {slot} answered differently")
    mismatch = reconcile(call_ms)
    if mismatch:
        problems.append(mismatch)
    layers = run.window_end(0, {
        "search.candidates_per_query": _mean(candidates),
        "service.unattributed_ms": _mean(unattributed),
        "service.cache_hit_ratio": _registry_cache_ratio(),
    })

    after = answers(service, probes)
    if after != before:
        problems.append("probe answers changed during the run")
    answer_digest = digest(after)
    if not check_stored_digest(run.digests, f"{run.source}:{run.seed}", answer_digest):
        problems.append("probe answers differ from an earlier run of this seed")
    recall = recall_counts(service, manifest)
    served = latency["member"] + latency["external"]
    return Outcome(
        metrics=_common(
            setup_s, 1000.0 * len(served) / sum(served), served, recall
        ),
        attempted=attempted,
        failed=failed,
        figures={
            "open_s": (median(open_s), "s"),
            "member_p50_ms": (median(latency["member"]), "ms"),
            "member_p99_ms": (tail(latency["member"]), "ms"),
            "external_p50_ms": (median(latency["external"]), "ms"),
            "external_p99_ms": (tail(latency["external"]), "ms"),
            **_recall_figures(recall),
        },
        problems=problems,
        layers=layers,
        detail={
            "member_queries": len(latency["member"]),
            "external_queries": len(latency["external"]),
            "fresh_payloads": n_fresh,
            "probe_digest": answer_digest,
            "recall_counts": recall,
        },
    )


# ---------------------------------------------------------------------- #
def _writer_ops(manifest: dict, spec, seed: int, count: int, pick, rng):
    """The writer's requests, generated up front: truth-preserving churn
    as in ``lakegen.run_churn`` (appends and updates re-send a table's own
    rows; only distractors the writer ingested are removed)."""
    ops = []
    live: list = []
    n_distractors = 0
    for j in range(count):
        op = WRITE_CYCLE[j % len(WRITE_CYCLE)]
        if op == "remove" and not live:
            op = "ingest"
        if op == "append":
            name = pick()
            table = materialize_table(manifest, name)
            picks = rng.integers(0, table.n_rows, int(rng.integers(1, 6)))
            ops.append(("append", name, [table.row(int(i)) for i in picks]))
        elif op == "ingest":
            name = f"rw{n_distractors:05d}"
            n_distractors += 1
            live.append(name)
            ops.append(("ingest", name, make_distractor(spec, name, seed)))
        elif op == "update":
            name = pick()
            table = materialize_table(manifest, name)
            rows = [table.row(int(i)) for i in rng.permutation(table.n_rows)]
            ops.append(("update", name, table_from_rows(
                name, table.header, rows, description=table.description
            )))
        elif op == "remove":
            ops.append(("remove", live.pop(), None))
        else:
            ops.append(("refresh", None, None))
    return ops


def _apply(service: LakeService, op: str, name, payload) -> None:
    if op == "append":
        service.append_rows(name, payload)
    elif op == "ingest":
        service.add_tables({name: payload})
    elif op == "update":
        service.update_table(payload)
    elif op == "remove":
        if not service.remove_table(name):
            raise RuntimeError(f"remove of live distractor {name} found nothing")
    else:
        service.refresh_stale()


def read_write(run: Run) -> Outcome:
    """Unit of work: one read, timed from its due time; throughput in
    reads answered within ``READ_LIMIT_MS`` per second."""
    manifest = manifest_for(run.seed)
    spec = lake_spec(run.seed)
    service, setup_s, open_s = provisioned(
        manifest, run.work / "lake", SERVING_SETUP_REPEATS
    )
    rng = np.random.default_rng([run.seed, 2])
    pick = zipf_picker(manifest["order"], rng)
    reads = [
        member_request(pick(), MODES[i % len(MODES)],
                       allow_stale=bool(rng.random() < STALE_FRACTION))
        for i in range(max(1, int(READ_RATE * run.seconds)))
    ]
    writes = _writer_ops(
        manifest, spec, run.seed, max(1, int(WRITE_RATE * run.seconds)), pick, rng
    )
    for request in reads[:30]:
        service.discover(request)

    removed_at: dict = {}
    untyped: list = []
    read_ms, write_ms = [], []
    call_ms = {mode: [] for mode in MODES}
    queue_ms, lateness_ms, unattributed, candidates = [], [], [], []
    served_removed: list = []
    counts = {"read_failed": 0, "write_failed": 0, "refreshing_reads": 0}
    reader_done = 0.0

    def wait_until(due: float) -> None:
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)

    def reader(t0: float) -> None:
        nonlocal reader_done
        finished = t0
        for i, request in enumerate(reads):
            due = t0 + i / READ_RATE
            wait_until(due)
            ready = max(due, finished)
            started = time.perf_counter()
            try:
                result = service.discover(request)
            except DiscoveryError:
                counts["read_failed"] += 1
                finished = time.perf_counter()
                continue
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                untyped.append(f"read: {exc!r}")
                finished = time.perf_counter()
                continue
            finished = time.perf_counter()
            read_ms.append((finished - due) * 1000.0)
            call_ms[request.mode].append((finished - started) * 1000.0)
            queue_ms.append((ready - due) * 1000.0)
            lateness_ms.append((started - ready) * 1000.0)
            unattributed.append(_unattributed(result))
            candidates.append(result.diagnostics["candidates"])
            if "refreshed" in result.diagnostics:
                counts["refreshing_reads"] += 1
            for hit in result.hits:
                gone = removed_at.get(hit.table)
                if gone is not None and gone < started:
                    served_removed.append(hit.table)
        reader_done = time.perf_counter()

    def writer(t0: float) -> None:
        offset = 0.5 / WRITE_RATE
        for j, (op, name, payload) in enumerate(writes):
            due = t0 + offset + j / WRITE_RATE
            wait_until(due)
            try:
                _apply(service, op, name, payload)
            except DiscoveryError:
                counts["write_failed"] += 1
                continue
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                untyped.append(f"{op}: {exc!r}")
                continue
            if op == "remove":
                removed_at[name] = time.perf_counter()
            write_ms.append((time.perf_counter() - due) * 1000.0)

    run.window_start()
    t0 = time.perf_counter() + 0.05
    # Daemon threads: a thread stuck in the program must not keep a failed
    # run from exiting.
    threads = [
        threading.Thread(target=reader, args=(t0,), name="bench-reader", daemon=True),
        threading.Thread(target=writer, args=(t0,), name="bench-writer", daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=run.seconds + 120)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    mismatch = reconcile(call_ms)
    layers = run.window_end(len(writes) + counts["refreshing_reads"], {
        "search.candidates_per_query": _mean(candidates),
        "service.unattributed_ms": _mean(unattributed),
        "service.queue_ms": _mean(queue_ms),
        "service.cache_hit_ratio": _registry_cache_ratio(),
        "gen.lateness_ms": _mean(lateness_ms),
    })

    problems = list(untyped)
    if mismatch:
        problems.append(mismatch)
    if served_removed:
        problems.append(f"removed distractors served: {sorted(set(served_removed))}")
    service.discover(member_request(manifest["order"][0], "union"))
    stale = service.catalog.stale_tables()
    if stale:
        problems.append(f"{len(stale)} tables stale after a strict query")
    recall = recall_counts(service, manifest)
    on_time = sum(ms <= READ_LIMIT_MS for ms in read_ms)
    return Outcome(
        metrics=_common(setup_s, on_time / (reader_done - t0), read_ms, recall),
        attempted=len(reads) + len(writes),
        failed=counts["read_failed"] + counts["write_failed"] + len(untyped),
        figures={
            "open_s": (median(open_s), "s"),
            "read_p99_ms": (quantile(read_ms, 0.99), "ms"),
            "read_miss_frac": (1.0 - on_time / len(reads), "ratio"),
            "write_p50_ms": (median(write_ms), "ms"),
            "write_p90_ms": (quantile(write_ms, 0.90), "ms"),
            **_recall_figures(recall),
        },
        problems=problems,
        layers=layers,
        detail={"reads": len(reads), "writes": len(writes), **counts},
    )


WORKLOADS = {
    "bulk_ingest": bulk_ingest,
    "read_only": read_only,
    "read_write": read_write,
}
