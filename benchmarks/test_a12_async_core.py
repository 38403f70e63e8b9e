"""A12 — event-loop core concurrency ceiling vs the thread-pool core.

The asyncio rebuild of the invocation hot path exists for exactly one
quantitative claim: a single process can hold **10,000+ invocations in
flight simultaneously** on one event loop, where the thread-pool core
is ceilinged at its worker count (one OS thread per in-flight call).

Method: every call targets ``store-standard.put``, whose
``SizeDependentLatency`` is *deterministic* for fixed-size payloads, so
all calls hold the wire open for the same duration.  A wrapper around
the service entry point counts concurrent in-flight calls.  The async
side runs on a virtual-clock world's virtual loop: each call's wire
time is a timer in simulated seconds, all 10k tasks launch before the
first timer is due, so the whole burst overlaps and ends one call's
latency later.  The control is a thread-pool core: blocking
``client.invoke`` calls on a bare 64-worker ``ThreadPoolExecutor``.  It
must overlap real OS threads, so it runs on the wall clock, and its
peak must reach exactly its pool size — a control that read 0 would
measure nothing.  Peak traced
memory is reported per in-flight call to substantiate "flat memory"
(coroutine frames, not thread stacks).

Results land in ``benchmarks/results/BENCH_A12.json`` via
:func:`benchmarks._report.report_json`.
"""

import asyncio
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

from benchmarks._report import fmt_row, report, report_json
from repro import RichClient, build_world
from repro.util.clock import RealClock, run

SEED = 12
ASYNC_CALLS = 10_000
ASYNC_TARGET = 10_000
SYNC_CALLS = 192
SYNC_POOL = 64


def _payload(index: int) -> dict:
    # Zero-padded keys keep every request byte-identical in size, so
    # the size-dependent latency model gives every call one duration.
    return {"key": f"doc-{index:06d}", "value": "x" * 64}


def _measure_async() -> dict:
    world = build_world(seed=SEED, corpus_size=10)
    client = RichClient(world.registry)
    service = world.service("store-standard")
    original = service.ainvoke
    state = {"inflight": 0, "peak": 0}

    async def counting(operation, payload, timeout=None):
        state["inflight"] += 1
        state["peak"] = max(state["peak"], state["inflight"])
        try:
            return await original(operation, payload, timeout=timeout)
        finally:
            state["inflight"] -= 1

    service.ainvoke = counting

    async def burst():
        start = client.clock.now()
        tasks = [
            asyncio.ensure_future(client.aio.ainvoke(
                "store-standard", "put", _payload(index),
                use_cache=False, coalesce=False))
            for index in range(ASYNC_CALLS)
        ]
        results = await asyncio.gather(*tasks)
        return results, client.clock.now() - start

    tracemalloc.start()
    threads_before = threading.active_count()
    results, elapsed = run(burst(), world.clock)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    client.close()
    assert all(result.value["stored"] for result in results)
    return {
        "calls": ASYNC_CALLS,
        "peak_inflight": state["peak"],
        "elapsed_simulated_s": elapsed,
        "peak_traced_mib": peak_bytes / 2**20,
        "bytes_per_inflight_call": peak_bytes / ASYNC_CALLS,
        "extra_threads": threading.active_count() - threads_before,
    }


def _measure_sync() -> dict:
    world = build_world(seed=SEED, corpus_size=10, clock=RealClock())
    client = RichClient(world.registry)
    service = world.service("store-standard")
    original = service.invoke
    lock = threading.Lock()
    state = {"inflight": 0, "peak": 0}

    def counting(operation, payload, timeout=None):
        with lock:
            state["inflight"] += 1
            state["peak"] = max(state["peak"], state["inflight"])
        try:
            return original(operation, payload, timeout=timeout)
        finally:
            with lock:
                state["inflight"] -= 1

    service.invoke = counting
    start = client.clock.now()
    with ThreadPoolExecutor(max_workers=SYNC_POOL) as pool:
        futures = [pool.submit(client.invoke, "store-standard", "put",
                               _payload(index), use_cache=False,
                               coalesce=False)
                   for index in range(SYNC_CALLS)]
        results = [future.result() for future in futures]
    elapsed = client.clock.now() - start
    client.close()
    assert all(result.value["stored"] for result in results)
    return {
        "calls": SYNC_CALLS,
        "pool_size": SYNC_POOL,
        "peak_inflight": state["peak"],
        "elapsed_simulated_s": elapsed,
    }


def test_event_loop_core_sustains_10k_inflight_invocations():
    async_run = _measure_async()
    sync_run = _measure_sync()

    report("A12.async-core",
           "in-flight invocation ceiling: event loop vs thread pool", [
               fmt_row("core", "calls", "peak in-flight"),
               fmt_row("event loop", async_run["calls"],
                       async_run["peak_inflight"]),
               fmt_row("thread pool", sync_run["calls"],
                       sync_run["peak_inflight"]),
               f"thread-pool ceiling: {sync_run['pool_size']} workers",
               f"async peak traced memory: "
               f"{async_run['peak_traced_mib']:.1f} MiB "
               f"({async_run['bytes_per_inflight_call']:.0f} B per call)",
               f"async extra threads: {async_run['extra_threads']}",
           ])
    report_json("A12", {
        "experiment": "A12.async-core",
        "seed": SEED,
        "async": {
            "calls": async_run["calls"],
            "peak_inflight": async_run["peak_inflight"],
            "elapsed_simulated_s": round(
                async_run["elapsed_simulated_s"], 6),
            "peak_traced_mib": round(async_run["peak_traced_mib"], 3),
            "bytes_per_inflight_call": round(
                async_run["bytes_per_inflight_call"]),
            "extra_threads": async_run["extra_threads"],
        },
        "sync": {
            "calls": sync_run["calls"],
            "pool_size": sync_run["pool_size"],
            "peak_inflight": sync_run["peak_inflight"],
            "elapsed_simulated_s": round(sync_run["elapsed_simulated_s"], 6),
        },
    })

    # The tentpole claim: 10k+ truly concurrent in-flight invocations
    # in one process, on one loop, with no extra threads.
    assert async_run["peak_inflight"] >= ASYNC_TARGET
    assert async_run["extra_threads"] == 0
    # The thread-pool core fills its workers and cannot exceed them.
    assert sync_run["peak_inflight"] == SYNC_POOL
    # Flat memory: well under 64 KiB per in-flight call (a thread
    # stack alone defaults to megabytes).
    assert async_run["bytes_per_inflight_call"] < 65536
