"""A16 — the join executor: id-space hook vs the generic loop.

``kb-query`` (``benchmarks/e2e``) spent 99% of its time joining tuple
at a time: one ``match`` call, one ``Triple`` and one ``dict`` copy per
candidate row.  PR 17 gave ``plan.execute_plan`` a backend hook and
implemented it for the in-memory ``Graph`` as a set-at-a-time join over
the int indexes.  This benchmark times the two executors on the
``kb-query`` store (8 triples per entity, closed under the default
rulebase) with the suite's own query makers, one row per query kind:

* ms per query through ``select`` — planner, join, top-k heap and
  projection included, so the ratio is what a caller sees;
* and, while it has both answers in hand, that the rows are equal **in
  order** (``answers_digest`` hashes them in order).

Since PR 22 a range scan reads a per-predicate sorted numeric column
that the next write to that predicate drops, and the top-k runs on id
rows before anything is decoded: ``range-after-write`` puts one write
to the scanned predicate before every query (the column is rebuilt
every time — the worst case of invalidate-on-write) and
``range-topk-asc`` takes the ``nsmallest`` side of the heap.

A top-k over the scanned variable itself walks that column from the
asked-for end and stops after ``limit`` rows, so neither the scan nor
the heap runs: ``range-topk`` and ``range-topk-asc`` time the walk, and
``range-topk-ties`` runs it over a predicate with few values across
many subjects (``bench:tie:*``, 250 subjects a value at the ``kb-query``
size), where every cut falls inside a tie that must keep index order.

Since PR 23 every store's cardinality estimate is the one shared model
(``TripleStoreBase.estimate_cardinality`` over four per-engine
primitives) instead of a hand-inlined copy per engine: the ``plan-build``
rows time ``build_plan`` alone, µs per plan, for three query shapes at
the ``kb-query`` size, against the parent's inlined ``Graph`` estimate
(kept in ``tests/stores/reference_estimates.py``; its per-predicate
statistics come from one scan of the graph made before timing) on
alternating rounds of the same process, under a ceiling of 1.3x.

Since PR 24 ``SqliteTripleStore`` has the hook too, for one shape, and
the router plans a scatter once instead of once per shard.  The
``sqlite …`` rows load the same closed store into a ``:memory:`` SQLite
store and a 4-shard SQLite router: ``sqlite range-topk`` (one
``ORDER BY onum … LIMIT`` statement) and ``sqlite range-unordered`` (one
``ORDER BY o, s`` statement, no order, no limit) against the generic
loop over the same store, and ``sqlite scatter-star-join`` (the
``join-topk`` star on the router: one plan against the router's
statistics, run by every shard) against the parent's route — every
shard plans and runs a whole SELECT, then a k-way merge — kept as the
test-only oracle of ``tests/stores/test_store_surface.py``.

The generic loop is reached the way production reaches it — through a
wrapper store without the hook (the router's broadcast route and
wrapper stores take it, and SQLite for every plan it does not
compile).  Results land in
``benchmarks/results/BENCH_A16.json``.  The default ladder stops at the
``kb-query`` size; ``A13_FULL=1`` (the storage job's weekly / manual
switch) adds a 4x larger store.
"""

import os
import random
import time
from functools import partial
from types import SimpleNamespace

from benchmarks._report import fmt_row, report, report_json
from benchmarks.e2e.workloads import (
    _preload,
    entity_triples,
    join_topk,
    point_lookup,
    query_kwargs,
    range_topk,
    three_hop,
    two_pattern,
)
from repro.kb import PersonalKnowledgeBase
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.graph import REPRO, Triple
from repro.stores.rdf.plan import build_plan
from repro.stores.rdf.query import select
from repro.stores.rdf.shard import ShardedGraph
from tests.stores.reference_estimates import predicate_scan, reference_estimate
from tests.stores.test_join_executors import GenericOnly
from tests.stores.test_store_surface import scatter_oracle

FULL = os.environ.get("A13_FULL") == "1"
#: Entities in the ``kb-query`` workload's store; the floors hold here.
KB_QUERY_ENTITIES = 5_000
LADDER = [500, KB_QUERY_ENTITIES] + ([20_000] if FULL else [])
QUERIES_PER_KIND = 20
REPEATS = 5
SEED = 7

#: Measured over four runs on 2 cores: 7.4-7.5x (join-topk), 83.9-85.2x
#: (range-topk), 83.3-86.8x (range-topk-asc) and 121-125x
#: (range-topk-ties) — the three kinds that walk the column, where the
#: scan-and-heap executor read 9.9-12.4x — 6.3-6.5x (range-after-write:
#: the column is rebuilt before every query) and 1.2x (point).  The
#: floors sit at about two thirds of the lowest reading: both executors
#: slow down alike on a noisy runner ("point no slower": a round of point
#: lookups is 0.5 ms of work).
SPEEDUP_FLOORS = {"join-topk": 4.0, "range-topk": 55.0, "range-topk-asc": 55.0,
                  "range-topk-ties": 80.0, "range-after-write": 3.5,
                  "point": 0.9}

#: SQLite's hook and the plan-once scatter at the ``kb-query`` size, as
#: "replaced route ms / new route ms".  Measured over five runs on 2
#: cores: 7.0-8.2x (sqlite range-topk), 4.0-5.1x (sqlite
#: range-unordered), 1.22-1.52x (sqlite scatter-star-join).  Floors at
#: about two thirds of the lowest reading, except the scatter row, whose
#: claim is "no slower": its join is the generic loop on both sides, and
#: what it saves is three of the four plans.
SQLITE_FLOORS = {"sqlite range-topk": 4.5, "sqlite range-unordered": 2.7,
                 "sqlite scatter-star-join": 0.9}
SQLITE_SHARDS = 4

#: ``build_plan`` with the shared cardinality model may cost at most this
#: multiple of ``build_plan`` with the parent's inlined estimate, timed
#: in the same process (measured 0.96-1.05x).  For the record, the two
#: trees back to back over three alternations on 2 cores: the parent
#: 23.0-28.5 / 22.4-24.1 / 8.2-8.3 µs a plan (join-topk / three-hop /
#: point), this tree 19.0-20.6 / 19.0-19.8 / 5.8-5.9 — ``build_plan`` now
#: estimates each candidate once a step instead of re-estimating the
#: winner, which more than pays for the shared model's extra frames.
PLAN_BUILD_KINDS = ("join-topk", "three-hop", "point")
PLAN_BUILD_CEILING_X = 1.3
PLAN_REPEATS = 7

#: What ``range-after-write`` adds or removes before each of its queries.
WRITTEN = Triple("bench:written", REPRO.favorability, 0.0)

#: ``range-topk-ties``' predicate, over ``entities`` subjects of its own:
#: TIE_VALUES values (0, 0.25, ... 4.75), each held by every
#: TIE_VALUES-th subject, so that a top 100 cuts through a tie.
TIER = REPRO.tier
TIE_VALUES = 20


def _tie_triples(entities: int) -> list[Triple]:
    return [Triple(f"bench:tie:{index:06d}", TIER, index % TIE_VALUES / 4)
            for index in range(entities)]


def _range_topk_ties(rng: random.Random) -> dict:
    low = rng.randrange(TIE_VALUES // 2) / 4
    return {"kind": "range-topk-ties", "patterns": [("?s", TIER, "?t")],
            "range": ("?t", low, low + 2.0),
            "kwargs": {"order_by": "?t", "descending": True, "limit": 100}}


def _variant(query: dict, kind: str, **kwargs) -> dict:
    return {**query, "kind": kind, "kwargs": {**query["kwargs"], **kwargs}}


def _suite(rng: random.Random, entities: int) -> dict[str, list[dict]]:
    makers = {
        "join-topk": lambda: join_topk(rng),
        "range-topk": lambda: range_topk(rng),
        "range-topk-asc": lambda: _variant(range_topk(rng), "range-topk-asc",
                                           descending=False),
        "range-after-write": lambda: _variant(range_topk(rng),
                                              "range-after-write"),
        "point": lambda: point_lookup(rng, entities),
        "three-hop": lambda: three_hop(rng),
        "two-pattern": lambda: two_pattern(rng, entities),
        # Last, so that the other kinds draw the queries they always drew.
        "range-topk-ties": lambda: _range_topk_ties(rng),
    }
    return {kind: [make() for _ in range(QUERIES_PER_KIND)]
            for kind, make in makers.items()}


def _answer(store, queries: list[dict], graph) -> tuple[list, float]:
    started = time.perf_counter()
    answers = []
    for query in queries:
        if query["kind"] == "range-after-write":
            # Toggled, and an even number of times a pass: both
            # executors meet the same sequence of graphs.
            graph.remove(WRITTEN) or graph.add(WRITTEN)
        answers.append(select(store, query["patterns"], **query_kwargs(query)))
    return answers, time.perf_counter() - started


def _rung(entities: int) -> dict:
    rng = random.Random(SEED)
    kb = PersonalKnowledgeBase()
    _preload(kb, entity_triples(rng, entities))
    kb.graph.add_all(_tie_triples(entities))
    hook, generic = kb.graph, GenericOnly(kb.graph)
    kinds = {}
    suite = _suite(rng, entities)
    for kind, queries in suite.items():
        best = {"hook": float("inf"), "generic": float("inf")}
        # The executors take turns within each round, so a slow stretch
        # on the host lands on both alike.
        for _ in range(REPEATS):
            got, seconds = _answer(hook, queries, kb.graph)
            best["hook"] = min(best["hook"], seconds)
            want, seconds = _answer(generic, queries, kb.graph)
            best["generic"] = min(best["generic"], seconds)
            assert got == want, f"{kind}: rows differ (or their order)"
        kinds[kind] = {
            "generic_ms": round(best["generic"] / len(queries) * 1e3, 4),
            "hook_ms": round(best["hook"] / len(queries) * 1e3, 4),
            "speedup_x": round(best["generic"] / best["hook"], 2),
            "rows": sum(len(rows) for rows in got),
        }
    rung = {"triples": len(kb.graph), "kinds": kinds}
    if entities == KB_QUERY_ENTITIES:
        rung["plan_build"] = _plan_build(kb.graph, suite)
        rung["kinds"].update(_sqlite_kinds(kb.graph, suite))
    return rung


def _timed(answer, queries: list[dict]) -> tuple[list, float]:
    started = time.perf_counter()
    answers = [answer(query["patterns"], **query_kwargs(query))
               for query in queries]
    return answers, time.perf_counter() - started


def _sqlite_kinds(graph, suite: dict[str, list[dict]]) -> dict[str, dict]:
    """The hook and the plan-once scatter against the routes they replace."""
    store = SqliteTripleStore()
    store.add_all(graph)
    router = ShardedGraph(shards=SQLITE_SHARDS,
                          backend_factory=lambda index: SqliteTripleStore())
    router.add_all(graph)
    unordered = [_variant(query, "range-unordered", order_by=None, limit=None)
                 for query in suite["range-topk"]]
    assert all(router.route_select(query["patterns"])[0] == "scatter"
               for query in suite["join-topk"])
    # (new route, old route, queries); "generic" is the old route's column.
    rows = {
        "sqlite range-topk": (partial(select, store),
                              partial(select, GenericOnly(store)),
                              suite["range-topk"]),
        "sqlite range-unordered": (partial(select, store),
                                   partial(select, GenericOnly(store)),
                                   unordered),
        "sqlite scatter-star-join": (router.select,
                                     partial(scatter_oracle, router),
                                     suite["join-topk"]),
    }
    kinds = {}
    for kind, (new, old, queries) in rows.items():
        best = {"hook": float("inf"), "generic": float("inf")}
        for _ in range(REPEATS):
            got, seconds = _timed(new, queries)
            best["hook"] = min(best["hook"], seconds)
            want, seconds = _timed(old, queries)
            best["generic"] = min(best["generic"], seconds)
            assert got == want, f"{kind}: rows differ (or their order)"
        kinds[kind] = {
            "generic_ms": round(best["generic"] / len(queries) * 1e3, 4),
            "hook_ms": round(best["hook"] / len(queries) * 1e3, 4),
            "speedup_x": round(best["generic"] / best["hook"], 2),
            "rows": sum(len(rows) for rows in got),
        }
    store.close()
    router.close()
    return kinds


def _plan_build(graph, suite: dict[str, list[dict]]) -> dict[str, dict]:
    """µs per ``build_plan``: the shared model vs the parent's inlined copy."""
    inlined = SimpleNamespace(estimate_cardinality=partial(
        reference_estimate, graph, scan=predicate_scan(graph)))
    timings = {}
    for kind in PLAN_BUILD_KINDS:
        plans = [(query["patterns"], query_kwargs(query).get("filters", ()))
                 for query in suite[kind]]
        best = {"shared": float("inf"), "inlined": float("inf")}
        for _ in range(PLAN_REPEATS):
            for name, store in (("shared", graph), ("inlined", inlined)):
                started = time.perf_counter()
                for _ in range(10):
                    for patterns, filters in plans:
                        build_plan(store, patterns, filters)
                best[name] = min(best[name], time.perf_counter() - started)
        per_plan = 1e6 / (10 * len(plans))
        timings[kind] = {
            "shared_us": round(best["shared"] * per_plan, 2),
            "inlined_us": round(best["inlined"] * per_plan, 2),
            "ratio_x": round(best["shared"] / best["inlined"], 2),
        }
    return timings


def test_a16_join_executor():
    ladder = {entities: _rung(entities) for entities in LADDER}
    for kind, floor in {**SPEEDUP_FLOORS, **SQLITE_FLOORS}.items():
        measured = ladder[KB_QUERY_ENTITIES]["kinds"][kind]
        assert measured["speedup_x"] >= floor, (kind, measured)
    plan_build = ladder[KB_QUERY_ENTITIES]["plan_build"]
    for kind, entry in plan_build.items():
        assert entry["ratio_x"] <= PLAN_BUILD_CEILING_X, (kind, entry)

    widths = (9, 9, 24, 11, 9, 8, 7)
    rows = [fmt_row("entities", "triples", "kind", "generic ms", "hook ms",
                    "x", "rows", widths=widths)]
    for entities, rung in ladder.items():
        for kind, entry in rung["kinds"].items():
            rows.append(fmt_row(entities, rung["triples"], kind,
                                entry["generic_ms"], entry["hook_ms"],
                                f'{entry["speedup_x"]}x', entry["rows"],
                                widths=widths))
    report("A16", "join executor: generic loop vs Graph's id-space hook "
           "(ms per query through select)", [
               *rows,
               f"{QUERIES_PER_KIND} queries per kind, best of {REPEATS} "
               "alternating rounds; rows equal in order on every round",
               "sqlite rows: a :memory: SQLite store / a "
               f"{SQLITE_SHARDS}-shard SQLite router holding the same "
               "triples; 'generic' is the route replaced (the generic loop; "
               "for scatter-star-join a plan and a whole SELECT per shard), "
               "'hook' the new one",
               *(f"plan-build {kind}: {entry['shared_us']} us per build_plan "
                 f"at {KB_QUERY_ENTITIES} entities, {entry['inlined_us']} us "
                 f"with the parent's inlined estimate ({entry['ratio_x']}x, "
                 f"ceiling {PLAN_BUILD_CEILING_X}x)"
                 for kind, entry in plan_build.items()),
           ])
    report_json("A16", {
        "seed": SEED,
        "queries_per_kind": QUERIES_PER_KIND,
        "repeats": REPEATS,
        "full_ladder": FULL,
        "rows_equal_in_order": True,
        "speedup_floors_x": {**SPEEDUP_FLOORS, **SQLITE_FLOORS},
        "floors_checked_at_entities": KB_QUERY_ENTITIES,
        "plan_build_ceiling_x": PLAN_BUILD_CEILING_X,
        "ladder": {str(entities): rung for entities, rung in ladder.items()},
    })
