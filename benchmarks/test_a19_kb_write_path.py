"""A19 — the PKB write path: one fit per series, rules compiled once.

A ``kb-churn`` write (``benchmarks/e2e``) adds 8 facts, regresses a
30-point series over its day index, stores the fit as 7 statements and
runs delta inference.  It used to fit that series twice (once over
``xs``, once over the index, which ``xs`` already is) and to re-read
every rule pattern per binding inside ``derive``.  This benchmark runs
the write steps of one ``kb-churn`` round (seed 7, after its
2,500-entity preload) on two knowledge bases built alike:

* **new** — the pipeline and reasoner as they are;
* **oracle** — the same store, with ``derive`` swapped for the
  interpreted loop kept as ``tests/stores/reference_derive.py`` and the
  series fitted a second time over the index.

Both must leave equal graphs: the same triples, iterating in the same
order over the same term dictionary (the order ``derive`` adds new
triples in decides interning).  Timed: the write steps only, best of
``REPEATS`` alternating rounds, each on a fresh set-up.  ``Triple`` and
``Graph.add`` are shared by both sides, so their part of the saving is
not in this ratio; ``benchmarks/e2e`` shows the whole of it.

Results land in ``benchmarks/results/BENCH_A19.json``.
"""

import time
from contextlib import nullcontext
from functools import partial
from unittest import mock

from benchmarks._report import fmt_row, report, report_json
from benchmarks.e2e.workloads import KbChurn
from repro.kb import pipeline as pipeline_module
from tests.stores.reference_derive import reference_derive

SEED = 7
REPEATS = 5

#: Measured 1.47x (best of 5 rounds; 1.26-1.67x best of 3) on 2 busy
#: shared cores; the floor leaves room for a noisy runner.
SPEEDUP_FLOOR = 1.15


def _setup(oracle: bool):
    workload = KbChurn("full")
    state = workload.setup(SEED)
    writes = [step for step in state.steps if step["kind"] == "write"]
    if oracle:
        reasoner = state.kb.pipeline.reasoner
        reasoner.derive = partial(reference_derive, reasoner)
    return workload, state, writes


def _run(workload, state, writes, oracle: bool) -> float:
    """Seconds for every write step, the oracle with its second fit."""
    fits_twice = (mock.patch.object(pipeline_module, "is_index", lambda xs: False)
                  if oracle else nullcontext())
    with fits_twice:
        started = time.perf_counter()
        for step in writes:
            workload.run(state, step)
        return time.perf_counter() - started


def _graph_state(state):
    graph = state.kb.graph
    return list(graph._terms), list(graph)


def test_a19_kb_write_path():
    best = {"oracle": float("inf"), "new": float("inf")}
    for round_index in range(REPEATS):
        sides = ("oracle", "new") if round_index % 2 == 0 else ("new", "oracle")
        finished = {}
        for side in sides:
            oracle = side == "oracle"
            workload, state, writes = _setup(oracle)
            best[side] = min(best[side], _run(workload, state, writes, oracle))
            finished[side] = state
        assert _graph_state(finished["new"]) == _graph_state(finished["oracle"])
        assert finished["new"].derived == finished["oracle"].derived
    speedup = best["oracle"] / best["new"]
    count = len(writes)
    per_write = {side: seconds / count * 1e6 for side, seconds in best.items()}

    assert speedup >= SPEEDUP_FLOOR, best

    widths = (30, 10, 9, 7)
    report("A19", f"kb-churn write path, seed {SEED}, {count} writes after the "
           "2,500-entity preload, oracle vs new", [
               fmt_row("path", "oracle s", "new s", "x", widths=widths),
               fmt_row("write steps", best["oracle"], best["new"],
                       f"{speedup:.2f}x", widths=widths),
               fmt_row("one write (us)", round(per_write["oracle"], 1),
                       round(per_write["new"], 1), "", widths=widths),
               f"best of {REPEATS} alternating rounds on fresh set-ups; graphs, "
               "term dictionaries and derived counts equal",
               "oracle = reference derive (tests/stores/reference_derive.py) + "
               "a second fit per series",
           ])
    report_json("A19", {
        "seed": SEED,
        "writes": count,
        "repeats": REPEATS,
        "graphs_equal": True,
        "speedup_floor_x": SPEEDUP_FLOOR,
        "write_steps": {"oracle_s": round(best["oracle"], 4),
                        "new_s": round(best["new"], 4),
                        "speedup_x": round(speedup, 2)},
        "one_write_us": {"oracle": round(per_write["oracle"], 1),
                         "new": round(per_write["new"], 1)},
    })
