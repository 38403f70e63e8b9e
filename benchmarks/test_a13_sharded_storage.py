"""A13 — sharded storage: what routing costs and what SQLite holds.

Sharding is a capacity / persistence feature: the router visits its
shards one after another on the caller's thread.  (A 4-thread pool
over the same shards measured 0.59x-1.01x of a single store on two
cores — see EXPERIMENTS.md — and was removed.)  Two claims:

1. **Routing is cheap.**  The same numeric top-k query (range filter +
   ORDER BY + LIMIT, which ``SqliteTripleStore.execute_plan`` compiles
   to one ``scan_numeric`` statement) is timed against the bare store
   — what a ``shards=1`` KB holds — ``ShardedGraph(1, sqlite)`` and
   ``ShardedGraph(N, sqlite)`` on a ladder of triple counts.  All three
   run identical SQLite C scans over the same rows in total, through
   the same hook, so the ratios isolate what the router adds: its plan
   against global statistics, N statements instead of one, N top-k
   lists and one stable top-k over them.  That is a fixed cost per
   query, so the ratio falls towards 1 as the store grows.  The
   in-memory family is timed as context (``Graph`` and the in-memory
   router's ``Graph`` shards both answer through ``Graph``'s hook).

2. **A SQLite-backed KB handles a graph beyond comfortable in-memory
   size, byte-identically.**  A file-backed KB is loaded with more
   triples than the in-memory reference, its on-disk footprint is
   compared with the tracemalloc cost of holding the same triples in
   RAM, and a query suite must answer byte-for-byte the same on both.

Results land in ``benchmarks/results/BENCH_A13.json``.  The default
run is a smoke-sized ladder (CI-friendly); set ``A13_FULL=1`` for the
full ladder, where the routing-cost bound is enforced.
"""

import os
import time
import tracemalloc

from benchmarks._report import fmt_row, report, report_json
from repro.kb import PersonalKnowledgeBase
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.graph import Graph
from repro.stores.rdf.query import RangeFilter, run_select
from repro.stores.rdf.shard import ShardedGraph

FULL = os.environ.get("A13_FULL") == "1"
#: Recorded with the results; the router uses one core whatever it is.
CORES = os.cpu_count() or 1
#: Bound on 4-shard / bare-store wall at the largest full rung.
MAX_ROUTING_COST = 1.25
SHARDS = 4
REPEATS = 5 if FULL else 3
LADDER = [4_000, 16_000, 64_000, 160_000] if FULL else [2_000, 8_000]
KB_TRIPLES = 120_000 if FULL else 12_000


def _triples(count: int):
    for i in range(count):
        yield (f"repro:reading{i}", "repro:value", (i * 7919) % count * 0.5)


def _query(graph) -> list:
    """The benchmarked query: numeric range + descending top-100."""
    patterns = [("?s", "repro:value", "?v")]
    filters = [RangeFilter("?v", 100.0, None)]
    return run_select(graph, patterns, filters=filters, order_by="?v",
                      descending=True, limit=100)


def _best_times(*graphs) -> list[float]:
    """Best wall per graph; the graphs take turns within each round, so
    a slow stretch on the host lands on all of them alike."""
    best = [float("inf")] * len(graphs)
    for _ in range(REPEATS):
        for slot, graph in enumerate(graphs):
            started = time.perf_counter()
            _query(graph)
            best[slot] = min(best[slot], time.perf_counter() - started)
    return best


def _build(count: int, shards: int, sqlite: bool):
    factory = (lambda index: SqliteTripleStore()) if sqlite else None
    graph = ShardedGraph(shards=shards, backend_factory=factory)
    graph.add_all(_triples(count))
    return graph


def test_a13_routing_cost_and_sqlite_scale(tmp_path):
    # -- claim 1: the routing-cost ladder ------------------------------
    ladder_rows = []
    for count in LADDER:
        store = SqliteTripleStore()
        store.add_all(_triples(count))
        single = _build(count, 1, sqlite=True)
        sharded = _build(count, SHARDS, sqlite=True)
        # Identical bytes first.
        assert _query(store) == _query(single) == _query(sharded)
        t_store, t_single, t_sharded = _best_times(store, single, sharded)
        store.close()
        single.close()
        sharded.close()
        memory_single = Graph()
        memory_single.add_all(_triples(count))
        memory_sharded = _build(count, SHARDS, sqlite=False)
        t_memory, t_memory_sharded = _best_times(memory_single,
                                                 memory_sharded)
        ladder_rows.append({
            "triples": count,
            "sqlite_store_ms": round(t_store * 1000, 3),
            "sqlite_single_ms": round(t_single * 1000, 3),
            "sqlite_sharded_ms": round(t_sharded * 1000, 3),
            "one_shard_cost": round(t_single / t_store, 3),
            "routing_cost": round(t_sharded / t_store, 3),
            "memory_single_ms": round(t_memory * 1000, 3),
            "memory_sharded_ms": round(t_memory_sharded * 1000, 3),
        })

    # -- claim 2: SQLite KB beyond comfortable in-memory size -----------
    kb = PersonalKnowledgeBase(data_dir=tmp_path, storage="sqlite",
                               shards=SHARDS)
    kb.graph.add_all(_triples(KB_TRIPLES))
    disk_bytes = sum(
        path.stat().st_size for path in (tmp_path / "triples").glob("*"))

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    in_memory = Graph()
    in_memory.add_all(_triples(KB_TRIPLES))
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    ram_bytes = sum(stat.size_diff
                    for stat in after.compare_to(before, "filename"))

    reference_kb = PersonalKnowledgeBase()
    reference_kb.graph.add_all(_triples(KB_TRIPLES))
    suite = [
        dict(patterns=[("?s", "repro:value", "?v")],
             filters=[RangeFilter("?v", 50.0, 200.0)], order_by="?v",
             limit=250),
        dict(patterns=[("repro:reading17", "repro:value", "?v")]),
        dict(patterns=[("?s", "repro:value", "?v")], order_by="?v",
             descending=True, limit=50),
    ]
    for query in suite:
        assert kb.query(**query) == reference_kb.query(**query)
    kb.graph.close()

    # -- report ---------------------------------------------------------
    lines = [fmt_row("triples", "sqlite store", "sqlite 1-shard",
                     f"sqlite {SHARDS}-shard", "1-shard cost", "routing cost",
                     "memory 1", f"memory {SHARDS}")]
    for row in ladder_rows:
        lines.append(fmt_row(
            row["triples"], f"{row['sqlite_store_ms']:.2f} ms",
            f"{row['sqlite_single_ms']:.2f} ms",
            f"{row['sqlite_sharded_ms']:.2f} ms",
            f"{row['one_shard_cost']:.2f}x", f"{row['routing_cost']:.2f}x",
            f"{row['memory_single_ms']:.2f} ms",
            f"{row['memory_sharded_ms']:.2f} ms"))
    lines.append(f"1-shard cost / routing cost = 1-shard / {SHARDS}-shard "
                 f"router wall over the bare store's, serial router "
                 f"[{CORES} core(s) available]")
    lines.append(f"sqlite KB: {KB_TRIPLES} triples, "
                 f"{disk_bytes / 1e6:.1f} MB on disk vs "
                 f"{ram_bytes / 1e6:.1f} MB resident in-memory")
    report("A13", "sharded storage: routing cost + SQLite scale", lines)
    report_json("A13", {
        "experiment": "A13.sharded-storage",
        "shards": SHARDS,
        "cores": CORES,
        "full": FULL,
        "ladder": ladder_rows,
        "sqlite_kb": {
            "triples": KB_TRIPLES,
            "disk_bytes": disk_bytes,
            "in_memory_bytes": ram_bytes,
            "query_suite_identical": True,
        },
    })

    # The bound is only meaningful on the full ladder: at smoke sizes
    # the router's fixed per-query cost is most of a ~1 ms scan.
    assert all(row["sqlite_sharded_ms"] > 0 for row in ladder_rows)
    if FULL:
        assert ladder_rows[-1]["routing_cost"] <= MAX_ROUTING_COST
