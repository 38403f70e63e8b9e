"""Round loop, statistics and result assembly.

A *round* is one fresh set-up plus one pass over the workload's fixed
step list.  Rounds repeat for ``--seconds`` of wall time, set-ups
included (at least :data:`MIN_ROUNDS`).  Because every round of a seed
runs the same inputs on a fresh state, counts, simulated seconds, spend
and the answer digest must come out identical in each (a round that
differs is a benchmark error) — and step *i* does the same work in
every round.

That is what the time metrics rest on.  The box is a few cores of a
shared host, and what its neighbours do only ever *adds* time: a spin
loop's fastest pass repeats within 3% from one 5-second window to the
next while its median pass moves by 30%.  So each step's time is the
**fastest of its repeats over the rounds**, which drops the
interference and keeps what the program itself costs, and the
percentiles and the throughput are then taken over the steps.
``setup_s`` is likewise the fastest set-up of the run.  Each round's own
unfiltered numbers are kept beside them (``per_round``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
from time import perf_counter, perf_counter_ns

from benchmarks.e2e.tracer import ROOT_SPAN
from benchmarks.e2e.workloads import GuardError, Workload, extra_threads

MIN_ROUNDS = 2
"""Two rounds can still be checked against each other; more than
``--seconds`` allows would let a slow box overrun the driver's limit."""

#: The eight end-to-end metrics, reported for every workload.  ``bound``
#: is the share by which the metric may worsen before ``--compare``
#: calls it a regression; ``gated`` marks the ones ``BENCHMARK.json``
#: lists (the driver requires metrics that are never 0, which rules out
#: the simulated-time, spend and failure metrics — they are 0 on the
#: knowledge-base workloads — so those are compared by ``--compare``
#: and travel as per-layer metrics and ``failed`` in the driver's JSON).
#: The time bounds are the contract's maximum; see README.md,
#: "Steadiness", for the spreads measured under them.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25, "gated": True},
    {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.25, "gated": True},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25, "gated": True},
    {"name": "op_ms_p95", "unit": "ms", "better": "lower", "bound": 0.25, "gated": True},
    {"name": "sim_s_per_op", "unit": "sim-s", "better": "lower", "bound": 0.005, "gated": False},
    {"name": "spend_usd_per_kop", "unit": "usd", "better": "lower", "bound": 0.005, "gated": False},
    {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0, "gated": False},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10, "gated": True},
]


class BenchmarkError(Exception):
    """The benchmark itself is broken (guard, determinism), not slow."""


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``share`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def canonical(output) -> bytes:
    """Stable bytes for an op output (feeds the answer digest)."""
    if isinstance(output, str):
        return output.encode()
    return json.dumps(output, sort_keys=True, default=str).encode()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(workload: Workload, seed: int, probe=None, verify: bool = True,
              **setup_kwargs) -> dict:
    """One set-up plus one timed pass; returns the round's raw numbers.

    With a ``probe`` (:class:`benchmarks.e2e.layers.LayerProbe`) the
    timing wrappers are installed after set-up, each step runs under a
    root span, and the layers' own counters are read before teardown.
    ``verify=False`` skips the untimed end-of-round correctness pass.
    """
    gc.collect()
    started = perf_counter()
    state = workload.setup(seed, **setup_kwargs)
    setup_s = perf_counter() - started
    run = workload.run
    tracer = probe.tracer if probe is not None else None
    digest = hashlib.sha256()
    step_ns: list[int] = []
    weights: list[int] = []
    attempted = failed = 0
    try:
        if probe is not None:
            probe.attach(state)
            run = tracer.traced(run, ROOT_SPAN)
        gc.collect()
        for index, step in enumerate(state.steps):
            weight = workload.weight(step)
            attempted += weight
            if tracer is not None:
                tracer.begin_op(index)
            begin = perf_counter_ns()
            try:
                output = run(state, step)
            except Exception as error:  # noqa: BLE001 — an op that raises failed
                elapsed = perf_counter_ns() - begin
                failed += weight
                output = f"{type(error).__name__}: {error}"
            else:
                elapsed = perf_counter_ns() - begin
                failed += workload.failures(state, step, output)
            step_ns.append(elapsed)
            weights.append(weight)
            digest.update(canonical(output))
        if probe is not None:
            probe.detach()
        extras = probe.collect(state) if probe is not None else {}
        sim_s = workload.sim_seconds(state)
        spend = workload.spend(state)
        failed_checks = workload.verify(state) if verify else 0
        counters = workload.counters(state)
        workload.guards(state, counters)
        threads = [] if workload.threads_checked_after_teardown else extra_threads()
    finally:
        if probe is not None:
            probe.detach()
        workload.teardown(state)
    if workload.threads_checked_after_teardown:
        threads = extra_threads()
    if threads:
        raise GuardError(f"{workload.name} left threads running: {threads}")
    return {
        "setup_s": setup_s,
        "ops": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "samples": len(step_ns),
        "step_ns": step_ns,
        "weights": weights,
        **time_metrics(step_ns, weights, attempted - failed),
        "sim_s_per_op": sim_s / attempted,
        "spend_usd_per_kop": spend / attempted * 1000.0,
        "counters": counters,
        "extras": extras,
        "answers_digest": digest.hexdigest(),
    }


def time_metrics(step_ns: list[int], weights: list[int], completed: int) -> dict:
    """Wall seconds, throughput and per-op percentiles of one pass over
    the steps (a step of weight *w* gives one sample, its time / *w*)."""
    wall_s = sum(step_ns) / 1e9
    samples_ms = [elapsed / weight / 1e6
                  for elapsed, weight in zip(step_ns, weights)]
    return {
        "wall_s": wall_s,
        "ops_per_s": completed / wall_s,
        "op_ms_p50": percentile(samples_ms, 0.50),
        "op_ms_p95": percentile(samples_ms, 0.95),
        "op_ms_p99": percentile(samples_ms, 0.99),
    }


def fastest_steps(rounds: list[dict]) -> list[int]:
    """Each step's fastest time over the rounds (same step, same work)."""
    return [min(times) for times in zip(*(entry["step_ns"] for entry in rounds))]


#: What must be identical in every round of one seed.
EXACT_KEYS = ("ops", "failed", "samples", "sim_s_per_op", "spend_usd_per_kop",
              "counters", "answers_digest")


def run_rounds(workload: Workload, seed: int, seconds: float,
               min_rounds: int = MIN_ROUNDS) -> list[dict]:
    """Repeat rounds, set-up included, for ``seconds`` of wall time: stop
    when another round as long as the last would overrun it."""
    rounds: list[dict] = []
    started = perf_counter()
    last_s = 0.0
    while (len(rounds) < min_rounds
           or perf_counter() - started + last_s <= seconds):
        began = perf_counter()
        rounds.append(run_round(
            workload, seed,
            verify=not (rounds and workload.verify_first_round_only)))
        last_s = perf_counter() - began
        for key in EXACT_KEYS:
            if rounds[-1][key] != rounds[0][key]:
                raise BenchmarkError(
                    f"{workload.name}: round {len(rounds)} disagrees with "
                    f"round 1 on {key}: {rounds[-1][key]!r} != "
                    f"{rounds[0][key]!r}")
    return rounds


def summarize(workload: Workload, seed: int, rounds: list[dict]) -> dict:
    """Time metrics over each step's fastest repeat, plus the exact
    per-round quantities."""
    first = rounds[0]
    failed = first["failed"] + first["failed_checks"]
    best = time_metrics(fastest_steps(rounds), first["weights"],
                        first["ops"] - first["failed"])
    end_to_end = {
        "setup_s": min(entry["setup_s"] for entry in rounds),
        "ops_per_s": best["ops_per_s"],
        "op_ms_p50": best["op_ms_p50"],
        "op_ms_p95": best["op_ms_p95"],
        "sim_s_per_op": first["sim_s_per_op"],
        "spend_usd_per_kop": first["spend_usd_per_kop"],
        "failed_share": failed / first["ops"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "params": workload.params,
        "rounds": len(rounds),
        "ops_per_round": first["ops"],
        "samples_per_round": first["samples"],
        "attempted": sum(entry["ops"] for entry in rounds),
        "failed": sum(entry["failed"] for entry in rounds) + first["failed_checks"],
        "end_to_end": end_to_end,
        "op_ms_p99": best["op_ms_p99"],
        "per_round": {key: [entry[key] for entry in rounds]
                      for key in ("setup_s", "wall_s", "ops_per_s",
                                  "op_ms_p50", "op_ms_p95", "op_ms_p99")},
        "counters": first["counters"],
        "answers_digest": first["answers_digest"],
    }
