"""A20 — what the PKB store costs the cyclic garbage collector.

``kb-churn`` (``benchmarks/e2e``) writes, infers and removes on a store
that grows from 23k to 66k triples in one pass, and CPython's collector
walks every container it tracks on each full (gen-2) pass.  ``Graph``'s
SPO / POS / OSP indexes end in one leaf per ``(first, second)`` key,
and most leaves hold one id: a leaf is a 1-tuple until its second
member, and the collector untracks a tuple of ints (and then a dict
holding only such tuples), so those leaves drop out of its walk.  That
1-tuple is the graph's one shared ``(id,)`` for its member, untracked
long before the write that inserts it, so a write of known terms
leaves the index dicts it touches untracked and hands the collector
nothing to promote into a full collection.  Nor does a write build a
key tuple for a set of stored triples: there is none, membership is
the SPO leaf ``add`` fetches anyway.

This benchmark builds the ``kb-churn`` and ``kb-query`` stores (seed
7, the e2e ``full`` size) the way the e2e harness does — set-up, then
``gc.collect()`` — and reports, per workload:

* the tracked objects in the process after set-up, and how many the
  set-up added (the store, plus the workload's own step list);
* the tracked containers of the store itself (second-level index dicts
  and leaves ``gc.is_tracked`` reports) per stored triple;
* then one timed pass over the workload's steps, with the number of
  gen-0 / 1 / 2 collections and their milliseconds read through
  ``gc.callbacks`` (median of ``REPEATS`` rounds, each on a fresh
  set-up).

Enforced: at most ``STORE_TRACKED_CEILING`` tracked store containers
per stored triple on both workloads (a store whose every leaf is a set
holds about three), at most ``FULL_COLLECTIONS_CEILING`` full (gen-2)
collections in the median ``kb-churn`` pass (a fresh 1-tuple per leaf
runs one), and at most ``gen0_ceiling()`` gen-0 collections in it (a
tracked id 3-tuple per stored triple runs about twice the gen-0
collections).  Milliseconds are reported, not gated.

Results land in ``benchmarks/results/BENCH_A20.json``.
"""

import gc
import statistics
from time import perf_counter

from benchmarks._report import fmt_row, report, report_json
from benchmarks.e2e.workloads import KbChurn, KbQuery

SEED = 7
REPEATS = 3

#: Tracked index containers per stored triple.  Measured 0.032
#: (``kb-churn``) and 0.031 (``kb-query``); 2.9 on both when every leaf
#: is a set.
STORE_TRACKED_CEILING = 0.1

#: Full collections in the median ``kb-churn`` pass: 0 measured when
#: one-member leaves share one ``(id,)`` per term, 1 when each is built
#: afresh.
FULL_COLLECTIONS_CEILING = 0

#: Net tracked allocations the median ``kb-churn`` pass may make, counted
#: in units of the collector's gen-0 threshold: under the default
#: threshold of 700 (CPython 3.11 and 3.12) this allows 90 gen-0
#: collections.  Measured 65 without a set of stored triples, 121 with a
#: tracked ``(s, p, o)`` key tuple per stored triple.
GEN0_ALLOCATIONS_CEILING = 90 * 700


def gen0_ceiling() -> int:
    """Gen-0 collections ``GEN0_ALLOCATIONS_CEILING`` allows under the
    running threshold."""
    return GEN0_ALLOCATIONS_CEILING // gc.get_threshold()[0]


def store_tracked(graph) -> int:
    """Second-level index dicts and leaves the collector tracks."""
    tracked = 0
    for index in (graph._spo, graph._pos, graph._osp):
        for by_second in index.values():
            tracked += gc.is_tracked(by_second)
            tracked += sum(map(gc.is_tracked, by_second.values()))
    return tracked


class CollectionLog:
    """Counts and milliseconds of collections, per generation."""

    def __init__(self) -> None:
        self.counts = [0, 0, 0]
        self.ms = [0.0, 0.0, 0.0]
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = perf_counter()
        else:
            generation = info["generation"]
            self.counts[generation] += 1
            self.ms[generation] += (perf_counter() - self._began) * 1e3


def _round(workload) -> dict:
    gc.collect()
    before = len(gc.get_objects())
    state = workload.setup(SEED)
    try:
        gc.collect()
        after = len(gc.get_objects())
        graph = state.kb.graph
        triples = len(graph)
        in_store = store_tracked(graph)
        log = CollectionLog()
        gc.callbacks.append(log)
        try:
            started = perf_counter()
            for step in state.steps:
                workload.run(state, step)
            pass_ms = (perf_counter() - started) * 1e3
        finally:
            gc.callbacks.remove(log)
    finally:
        workload.teardown(state)
    return {"triples": triples, "tracked_after_setup": after,
            "tracked_added_by_setup": after - before,
            "store_tracked": in_store,
            "store_tracked_per_triple": in_store / triples,
            "collections": log.counts, "collection_ms": log.ms,
            "pass_ms": pass_ms}


def _summary(rounds: list[dict]) -> dict:
    first = rounds[0]
    return {
        "triples": first["triples"],
        "tracked_after_setup": first["tracked_after_setup"],
        "tracked_added_by_setup": first["tracked_added_by_setup"],
        "store_tracked": first["store_tracked"],
        "store_tracked_per_triple": round(first["store_tracked_per_triple"], 4),
        "collections": {f"gen{generation}": statistics.median(
            row["collections"][generation] for row in rounds)
            for generation in range(3)},
        "collection_ms": {f"gen{generation}": round(statistics.median(
            row["collection_ms"][generation] for row in rounds), 1)
            for generation in range(3)},
        "pass_ms": round(statistics.median(row["pass_ms"] for row in rounds), 1),
    }


def test_a20_graph_footprint():
    results = {}
    for workload in (KbChurn("full"), KbQuery("full")):
        rounds = [_round(workload) for _ in range(REPEATS)]
        results[workload.name] = _summary(rounds)

    widths = (32, 12, 12)
    rows = [fmt_row("", "kb-churn", "kb-query", widths=widths)]
    churn, query = results["kb-churn"], results["kb-query"]
    for label, key in (("stored triples", "triples"),
                       ("tracked after set-up", "tracked_after_setup"),
                       ("tracked added by set-up", "tracked_added_by_setup"),
                       ("tracked store containers", "store_tracked"),
                       ("  per stored triple", "store_tracked_per_triple")):
        rows.append(fmt_row(label, churn[key], query[key], widths=widths))
    for generation in range(3):
        gen = f"gen{generation}"
        rows.append(fmt_row(
            f"gen-{generation} collections / ms",
            f"{churn['collections'][gen]:g} / {churn['collection_ms'][gen]}",
            f"{query['collections'][gen]:g} / {query['collection_ms'][gen]}",
            widths=widths))
    rows.append(fmt_row("one pass (ms)", churn["pass_ms"], query["pass_ms"],
                        widths=widths))
    rows.append(f"seed {SEED}, e2e 'full' size; collections: median of "
                f"{REPEATS} passes, each after a fresh set-up and gc.collect()")
    report("A20", "what the PKB store costs the collector", rows)
    report_json("A20", {"seed": SEED, "repeats": REPEATS,
                        "store_tracked_ceiling": STORE_TRACKED_CEILING,
                        "full_collections_ceiling": FULL_COLLECTIONS_CEILING,
                        "gen0_threshold": gc.get_threshold()[0],
                        "gen0_collections_ceiling": gen0_ceiling(),
                        **results})

    for name, result in results.items():
        assert result["store_tracked_per_triple"] <= STORE_TRACKED_CEILING, (
            name, result)
    assert churn["collections"]["gen2"] <= FULL_COLLECTIONS_CEILING, churn
    assert churn["collections"]["gen0"] <= gen0_ceiling(), churn
