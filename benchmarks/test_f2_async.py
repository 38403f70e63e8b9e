"""F2.async — synchronous vs asynchronous invocation (Figure 2; §2, §2.1).

Paper claims reproduced:
* asynchronous calls let the application keep executing while a remote
  operation is in flight (callbacks via ListenableFuture);
* parallel invocation of several services takes ~max instead of ~sum
  of their latencies;
* a burst of calls cannot spawn unbounded threads (§2.1's corner-case
  concern): every async call is a task on the client's one loop
  thread, and per-service concurrency is the bulkhead's.

The world runs on a virtual clock.  The parallel fan-out and the async
calls run as tasks on a virtual loop, where overlapping waits cost
their maximum in simulated seconds, so every figure here is
deterministic.
"""

import threading

import pytest

from benchmarks._report import fmt_row, report
from repro import RichClient, build_world
from repro.core.admission import AdmissionController, AdmissionLimit

CALLS = 8


@pytest.fixture()
def rt_world():
    return build_world(seed=17, corpus_size=40)


def test_parallel_vs_sequential_wall_clock(rt_world):
    client = RichClient(rt_world.registry)
    texts = [doc.text for doc in rt_world.corpus.documents[:CALLS]]
    calls = [("lexica-prime", "analyze", {"text": text}) for text in texts]

    start = client.clock.now()
    for service, operation, payload in calls:
        client.invoke(service, operation, payload, use_cache=False)
    sequential = client.clock.now() - start

    start = client.clock.now()
    results = client.invoke_all(calls, use_cache=False)
    parallel = client.clock.now() - start

    per_call = [result.latency for result in results]
    report("F2.async.parallel", f"{CALLS} NLU calls: sequential vs parallel", [
        fmt_row("mode", "elapsed (sim s)"),
        fmt_row("sequential sync", sequential),
        fmt_row("parallel (invoke_all)", parallel),
        fmt_row("sum of latencies", sum(per_call)),
        fmt_row("max of latencies", max(per_call)),
        f"speedup: {sequential / parallel:.1f}x",
    ])
    assert all(not isinstance(result, Exception) for result in results)
    assert parallel < sequential / 2  # ~max, not ~sum
    client.close()


def test_async_call_does_not_block_application(rt_world):
    """The paper's store-to-cloud-database example: fire the put, keep
    computing, get notified by the callback."""
    client = RichClient(rt_world.registry)
    notifications = []
    future = client.invoke_async(
        "store-bulk", "put", {"key": "report", "value": "x" * 50_000})
    future.add_listener(
        lambda completed: notifications.append(completed.get().service))
    # The application continues immediately; the store call needs
    # ~0.3 simulated seconds, so nothing has completed yet.
    assert not future.is_done() or notifications  # either still running or done
    progress = sum(range(10_000))  # foreground work proceeds
    assert progress > 0
    result = future.get(timeout=30)
    assert result.value["stored"] == "report"
    assert notifications == ["store-bulk"]
    report("F2.async.callback", "async store with completion callback", [
        fmt_row("store latency (sim s)", result.latency),
        "application continued executing while the store was in flight",
        "callback fired exactly once on completion",
    ])
    client.close()


def test_burst_runs_on_one_loop_thread_under_admission(rt_world):
    """60 calls through ``invoke_async``: all complete on the client's
    one loop thread, and the per-service bulkhead keeps at most 4 in
    flight."""
    limit = AdmissionLimit(max_concurrent=4, max_queue=64, queue_timeout=60)
    client = RichClient(rt_world.registry, admission=AdmissionController(
        rt_world.clock, default_limit=limit))
    text = rt_world.corpus.documents[0].text
    threads_before = threading.active_count()
    start = client.clock.now()
    futures = [
        client.invoke_async("wordsmith-lite", "analyze",
                            {"text": f"{text} variant {index}"}, use_cache=False)
        for index in range(60)
    ]
    extra_threads = threading.active_count() - threads_before
    results = [future.get(timeout=60) for future in futures]
    elapsed = client.clock.now() - start
    stats = client.aio.admission.bulkhead_for("wordsmith-lite").stats
    client.close()
    left_running = threading.active_count() - threads_before
    assert len(results) == 60
    assert stats.peak_inflight == limit.max_concurrent
    assert stats.shed == 0
    assert (extra_threads, left_running) == (1, 0)
    report("F2.async.bounded",
           "60-call burst through invoke_async, bulkhead of 4", [
               fmt_row("submitted", 60),
               fmt_row("completed", len(results)),
               fmt_row("peak in flight", stats.peak_inflight),
               fmt_row("extra threads", extra_threads),
               fmt_row("threads after close", left_running),
               fmt_row("elapsed (sim s)", elapsed),
           ])


def test_bench_async_dispatch_overhead(benchmark, rt_world):
    """pytest-benchmark: submit + await one already-cached async call."""
    client = RichClient(rt_world.registry)
    text = rt_world.corpus.documents[0].text
    client.invoke("glotta", "analyze", {"text": text})

    def dispatch():
        return client.invoke_async("glotta", "analyze", {"text": text}).get(
            timeout=10)

    result = benchmark(dispatch)
    assert result.cached
    client.close()
