"""Sync/async parity: both cores must be observably identical.

Each test builds two worlds from the same seed — one served by the
thread-pool core (``client.invoke*``), one by the event-loop core
(``await client.aio.ainvoke*``) — and asserts results, error types,
monitor records and stats match field-for-field.  Both run the same
coroutine bodies (:mod:`repro.core.aio.invoker`); what these tests pin
is the two *drivers* — the blocking binding under ``run_sync`` and the
loop-native binding under asyncio.
"""

import ast
import asyncio
import importlib
import inspect
import pkgutil
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import pytest

import repro.core
import repro.core.aio.invoker
import repro.services.base
from repro import RichClient, build_world
from repro.core.admission import (
    AdmissionController,
    AdmissionLimit,
    AdmissionRejectedError,
)
from repro.core.aio import (
    AsyncAdmissionController,
    AsyncBulkhead,
    LoopRunner,
)
from repro.core.futures import run_sync
from repro.core.aio.invoker import _folded
from repro.core.invoker import InvocationResult
from repro.core.quota import BudgetExceededError
from repro.core.retry import AttemptLog
from repro.services.base import ScriptedFailures, ServiceRequest
from repro.tenancy.context import tenant_scope
from repro.simnet.errors import RemoteServiceError, ServiceTimeoutError
from repro.util.clock import ManualClock
from repro.util.deadline import Deadline, DeadlineExceededError

TEXT = "IBM announced excellent results while Initech struggled badly."
OTHER = "Globex thrives while Vandelay Industries imports nothing."


@pytest.fixture
def pair():
    """Two identical worlds: (sync world, sync client, async world, async client)."""
    sync_world = build_world(seed=42, corpus_size=30)
    async_world = build_world(seed=42, corpus_size=30)
    sync_client = RichClient(sync_world.registry)
    async_client = RichClient(async_world.registry)
    yield sync_world, sync_client, async_world, async_client
    sync_client.close()
    async_client.close()


def arun(coro):
    return asyncio.run(coro)


class TestResultParity:
    def test_invoke_results_are_byte_identical(self, pair):
        _, sync_client, _, async_client = pair
        sync_result = sync_client.invoke("lexica-prime", "analyze",
                                         {"text": TEXT})
        async_result = arun(async_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        assert async_result.value == sync_result.value
        assert async_result.latency == sync_result.latency
        assert async_result.cost == sync_result.cost
        assert async_result.service == sync_result.service

    def test_cache_hits_match(self, pair):
        _, sync_client, _, async_client = pair
        sync_client.invoke("lexica-prime", "analyze", {"text": TEXT})
        async_first = arun(async_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        sync_hit = sync_client.invoke("lexica-prime", "analyze", {"text": TEXT})
        async_hit = arun(async_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        assert not async_first.cached
        assert sync_hit.cached and async_hit.cached
        assert async_hit.latency == sync_hit.latency == 0.0
        assert async_hit.value == sync_hit.value

    def test_monitor_records_match(self, pair):
        _, sync_client, _, async_client = pair
        for text in (TEXT, OTHER):
            sync_client.invoke("lexica-prime", "analyze", {"text": text},
                               use_cache=False)
            arun(async_client.aio.ainvoke(
                "lexica-prime", "analyze", {"text": text}, use_cache=False))
        assert (async_client.monitor.call_count("lexica-prime")
                == sync_client.monitor.call_count("lexica-prime") == 2)
        assert (async_client.monitor.latencies("lexica-prime")
                == sync_client.monitor.latencies("lexica-prime"))
        assert (async_client.monitor.availability("lexica-prime")
                == sync_client.monitor.availability("lexica-prime") == 1.0)


class TestErrorParity:
    def test_remote_failures_raise_the_same_type(self, pair):
        sync_world, sync_client, async_world, async_client = pair
        sync_world.service("glotta").failures = ScriptedFailures({0})
        async_world.service("glotta").failures = ScriptedFailures({0})
        with pytest.raises(RemoteServiceError) as sync_error:
            sync_client.invoke("glotta", "analyze", {"text": TEXT},
                               use_cache=False)
        with pytest.raises(RemoteServiceError) as async_error:
            arun(async_client.aio.ainvoke("glotta", "analyze", {"text": TEXT},
                                          use_cache=False))
        assert str(async_error.value) == str(sync_error.value)
        assert (async_client.monitor.failure_count("glotta")
                == sync_client.monitor.failure_count("glotta") == 1)

    def test_timeouts_raise_the_same_type(self, pair):
        _, sync_client, _, async_client = pair
        with pytest.raises(ServiceTimeoutError):
            sync_client.invoke("lexica-prime", "analyze", {"text": TEXT},
                               timeout=1e-6, use_cache=False)
        with pytest.raises(ServiceTimeoutError):
            arun(async_client.aio.ainvoke(
                "lexica-prime", "analyze", {"text": TEXT},
                timeout=1e-6, use_cache=False))

    def test_budget_exhaustion_raises_the_same_type(self, pair):
        _, sync_client, _, async_client = pair
        sync_client.quota.set_budget("lexica-prime", max_calls=1)
        async_client.quota.set_budget("lexica-prime", max_calls=1)
        sync_client.invoke("lexica-prime", "analyze", {"text": TEXT},
                           use_cache=False)
        arun(async_client.aio.ainvoke("lexica-prime", "analyze",
                                      {"text": TEXT}, use_cache=False))
        with pytest.raises(BudgetExceededError):
            sync_client.invoke("lexica-prime", "analyze", {"text": OTHER},
                               use_cache=False)
        with pytest.raises(BudgetExceededError):
            arun(async_client.aio.ainvoke("lexica-prime", "analyze",
                                          {"text": OTHER}, use_cache=False))

    def test_spent_deadlines_raise_the_same_type(self, pair):
        sync_world, sync_client, async_world, async_client = pair
        sync_deadline = Deadline.after(sync_world.clock, 0.0)
        async_deadline = Deadline.after(async_world.clock, 0.0)
        sync_world.clock.advance(0.1)
        async_world.clock.advance(0.1)
        with pytest.raises(DeadlineExceededError):
            sync_client.invoke("lexica-prime", "analyze", {"text": TEXT},
                               use_cache=False, deadline=sync_deadline)
        with pytest.raises(DeadlineExceededError):
            arun(async_client.aio.ainvoke(
                "lexica-prime", "analyze", {"text": TEXT},
                use_cache=False, deadline=async_deadline))


class TestCompositeParity:
    def test_failover_walks_the_same_ranking(self, pair):
        sync_world, sync_client, async_world, async_client = pair
        sync_world.service("glotta").failures = ScriptedFailures({0, 1, 2, 3})
        async_world.service("glotta").failures = ScriptedFailures({0, 1, 2, 3})
        sync_result = sync_client.invoke_with_failover(
            "nlu", "analyze", {"text": TEXT}, use_cache=False)
        async_result = arun(async_client.aio.ainvoke_with_failover(
            "nlu", "analyze", {"text": TEXT}, use_cache=False))
        assert async_result.service == sync_result.service
        assert async_result.value == sync_result.value
        assert len(async_result.attempts) == len(sync_result.attempts)
        assert [(a.service, a.error is None) for a in async_result.attempts] \
            == [(a.service, a.error is None) for a in sync_result.attempts]

    def test_invoke_batched_outcomes_match(self, pair):
        _, sync_client, _, async_client = pair
        payloads = [{"text": TEXT}, {"text": OTHER}]
        sync_outcomes = sync_client.invoke_batched("glotta", "analyze",
                                                   payloads)
        async_outcomes = arun(async_client.aio.ainvoke_batched(
            "glotta", "analyze", payloads))
        assert len(async_outcomes) == len(sync_outcomes) == 2
        for sync_out, async_out in zip(sync_outcomes, async_outcomes):
            assert async_out.value == sync_out.value
            assert async_out.latency == sync_out.latency
            assert async_out.batched and sync_out.batched

    def test_invoke_many_dedup_and_results_match(self, pair):
        _, sync_client, _, async_client = pair
        payloads = [{"text": TEXT}, {"text": OTHER}, {"text": TEXT}]
        sync_results = sync_client.invoke_many("glotta", "analyze", payloads)
        async_results = arun(async_client.aio.ainvoke_many(
            "glotta", "analyze", payloads))
        assert len(async_results) == len(sync_results) == 3
        for sync_out, async_out in zip(sync_results, async_results):
            assert async_out.value == sync_out.value
        assert async_results[2].coalesced and sync_results[2].coalesced
        assert (async_client.aio.coalescer.stats.coalesced
                == sync_client.coalescer.stats.coalesced == 1)

    def test_invoke_all_fans_out_identically(self, pair):
        _, sync_client, _, async_client = pair
        calls = [("lexica-prime", "analyze", {"text": TEXT}),
                 ("glotta", "analyze", {"text": OTHER})]
        sync_results = sync_client.invoke_all(calls, use_cache=False)
        async_results = arun(async_client.aio.ainvoke_all(
            calls, use_cache=False))
        assert [r.value for r in async_results] \
            == [r.value for r in sync_results]
        assert [r.service for r in async_results] \
            == [r.service for r in sync_results]


    def test_micro_batcher_windows_flush_identically(self, pair):
        sync_world, sync_client, async_world, async_client = pair
        texts = [TEXT, OTHER, "Initech files a memo.", TEXT]

        def drive_sync():
            batcher = sync_client.batcher(max_batch_size=2, max_wait=0.05)
            futures = [batcher.submit("glotta", "analyze", {"text": text},
                                      use_cache=False) for text in texts[:3]]
            sync_world.clock.advance(0.05)
            sent = batcher.flush_due()
            futures.append(batcher.submit("glotta", "analyze",
                                          {"text": texts[3]}, use_cache=False))
            sent += batcher.flush_all() + batcher.flush_all()
            return batcher, sent, [future.get().value for future in futures]

        async def drive_async():
            batcher = async_client.aio.batcher(max_batch_size=2, max_wait=0.05)
            futures = [await batcher.submit("glotta", "analyze", {"text": text},
                                            use_cache=False)
                       for text in texts[:3]]
            async_world.clock.advance(0.05)
            sent = await batcher.flush_due()
            futures.append(await batcher.submit(
                "glotta", "analyze", {"text": texts[3]}, use_cache=False))
            sent += await batcher.flush_all() + await batcher.flush_all()
            return batcher, sent, [(await future).value for future in futures]

        sync_batcher, sync_sent, sync_values = drive_sync()
        async_batcher, async_sent, async_values = arun(drive_async())
        assert async_values == sync_values
        assert async_sent == sync_sent == 2
        assert asdict(async_batcher.stats) == asdict(sync_batcher.stats)
        assert sync_batcher.stats.size_flushes == 1
        assert sync_batcher.stats.deadline_flushes == 1
        assert sync_batcher.stats.empty_flushes == 1


@pytest.fixture(params=["blocking", "loop"])
def bound(request):
    """The batch entry points of one binding, over a world of its own."""
    world = build_world(seed=42, corpus_size=5)
    client = RichClient(world.registry)
    if request.param == "blocking":
        many, batched = client.invoke_many, client.invoke_batched
    else:
        def many(*args, **kwargs):
            return arun(client.aio.ainvoke_many(*args, **kwargs))

        def batched(*args, **kwargs):
            return arun(client.aio.ainvoke_batched(*args, **kwargs))
    yield SimpleNamespace(world=world, client=client, many=many, batched=batched)
    client.close()


def documents(count):
    return [{"text": f"Initech files memo number {n}."} for n in range(count)]


def every_field(result):
    """All of a result's fields, ``entry_key`` (left out of ``==``) too."""
    return [getattr(result, field.name) for field in fields(InvocationResult)]


def shared_result():
    return InvocationResult(
        value={"v": 1}, latency=0.3, cost=0.2, service="glotta",
        operation="analyze", cached=True,
        attempts=(AttemptLog("glotta", 1, None),), batched=True,
        degraded=True, stale_age=4.0, entry_key="k")


class TestFoldedResults:
    """An in-burst duplicate and a coalesced follower report the shared
    result at no cost: ``replace(shared, coalesced=True, cost=0.0)``."""

    def test_folded_is_replace_on_every_field(self):
        shared = shared_result()
        folded = _folded(shared)
        assert every_field(folded) == every_field(
            replace(shared, coalesced=True, cost=0.0))
        assert folded.value is shared.value

    @pytest.mark.parametrize("driver", ["blocking", "loop"])
    def test_invoke_many_duplicates(self, pair, driver):
        _, sync_client, _, async_client = pair
        payloads = [{"text": TEXT}, {"text": OTHER}, {"text": TEXT},
                    {"text": TEXT}]
        if driver == "blocking":
            results = sync_client.invoke_many("glotta", "analyze", payloads,
                                              use_cache=False)
        else:
            results = arun(async_client.aio.ainvoke_many(
                "glotta", "analyze", payloads, use_cache=False))
        expected = every_field(replace(results[0], coalesced=True, cost=0.0))
        assert results[0].cost > 0 and not results[0].coalesced
        assert every_field(results[2]) == every_field(results[3]) == expected

    def test_loop_follower(self, pair):
        _, _, _, client = pair
        shared = shared_result()

        async def scenario():
            key = client._request_key("glotta", "analyze", {"text": TEXT})
            leader, flight = client.aio.coalescer.lead_or_join(key)
            assert leader
            follower = asyncio.ensure_future(
                client.aio.ainvoke("glotta", "analyze", {"text": TEXT}))
            await asyncio.sleep(0)
            client.aio.coalescer.complete(flight, shared)
            return await follower

        assert every_field(arun(scenario())) == every_field(
            replace(shared, coalesced=True, cost=0.0))

    def test_blocking_follower(self, pair):
        _, client, _, _ = pair
        shared = shared_result()
        key = client._request_key("glotta", "analyze", {"text": TEXT})
        leader, flight = client.coalescer.lead_or_join(key)
        assert leader
        with ThreadPoolExecutor(max_workers=1) as pool:
            follower = pool.submit(client.invoke, "glotta", "analyze",
                                   {"text": TEXT})
            give_up = time.monotonic() + 10.0
            while (client.coalescer.stats.coalesced == 0
                   and time.monotonic() < give_up):
                time.sleep(0.001)
            client.coalescer.complete(flight, shared)
            result = follower.result(timeout=10.0)
        assert every_field(result) == every_field(
            replace(shared, coalesced=True, cost=0.0))


class TestABatchIsNCallsInOneRoundTrip:
    """The budget, the monitor and the per-item promise see a batch as
    N calls — on both bindings.  The second copy of the upstream
    envelope had drifted on each of these: it checked for one more call
    whatever the batch size, never looked at ``max_cost``, recorded
    nothing when the wire raised and rated nothing, and ``invoke_many``
    raised for a failed chunk."""

    def test_a_batch_that_does_not_fit_max_calls_sends_nothing(self, bound):
        bound.client.quota.set_budget("lexica-prime", max_calls=3)
        sent = bound.world.transport.stats.calls
        results = bound.many("lexica-prime", "analyze", documents(12),
                             use_cache=False)
        assert len(results) == 12
        assert all(isinstance(item, BudgetExceededError) for item in results)
        assert bound.world.transport.stats.calls == sent
        assert bound.client.quota.calls("lexica-prime") == 0

    def test_a_batch_that_fits_charges_one_slot_per_item(self, bound):
        bound.client.quota.set_budget("lexica-prime", max_calls=12)
        results = bound.many("lexica-prime", "analyze", documents(12),
                             use_cache=False)
        assert all(isinstance(item, InvocationResult) for item in results)
        assert bound.client.quota.calls("lexica-prime") == 12
        assert bound.client.quota.cost("lexica-prime") == pytest.approx(
            sum(item.cost for item in results))
        with pytest.raises(BudgetExceededError):
            bound.batched("lexica-prime", "analyze", [{"text": OTHER}])

    def test_a_failed_item_gets_its_slot_back(self, bound):
        bound.world.service("lexica-prime").failures = ScriptedFailures({4})
        bound.client.quota.set_budget("lexica-prime", max_calls=12)
        results = bound.batched("lexica-prime", "analyze", documents(12),
                                use_cache=False)
        assert isinstance(results[4], RemoteServiceError)
        assert bound.client.quota.calls("lexica-prime") == 11
        assert bound.client.monitor.failure_count("lexica-prime") == 1

    def test_max_cost_refuses_a_batch_whose_summed_estimate_does_not_fit(
            self, bound):
        service = bound.world.service("lexica-prime")
        one = service.cost_model.cost(ServiceRequest("analyze", documents(1)[0]))
        bound.client.quota.set_budget("lexica-prime", max_cost=one * 3.5)
        with pytest.raises(BudgetExceededError):
            bound.batched("lexica-prime", "analyze", documents(4),
                          use_cache=False)
        assert service.stats.calls == 0
        assert bound.client.quota.cost("lexica-prime") == 0.0
        results = bound.batched("lexica-prime", "analyze", documents(3),
                                use_cache=False)
        assert bound.client.quota.cost("lexica-prime") == pytest.approx(
            sum(item.cost for item in results))

    def test_a_failed_chunk_is_its_items_outcome_and_other_chunks_stand(
            self, bound):
        limit = bound.world.service("lexica-prime").batch_max_size
        bound.client.quota.set_budget("lexica-prime", max_calls=limit)
        results = bound.many("lexica-prime", "analyze", documents(limit + 4),
                             use_cache=False)
        assert all(isinstance(item, InvocationResult)
                   for item in results[:limit])
        assert all(isinstance(item, BudgetExceededError)
                   for item in results[limit:])
        assert bound.client.quota.calls("lexica-prime") == limit

    def test_a_timed_out_batch_is_returned_per_item_and_recorded(self, bound):
        results = bound.many("lexica-prime", "analyze", documents(4),
                             timeout=1e-9, use_cache=False)
        assert len(results) == 4
        assert all(isinstance(item, ServiceTimeoutError) for item in results)
        monitor = bound.client.monitor
        assert monitor.call_count("lexica-prime") == 4
        assert monitor.failure_count("lexica-prime") == 4
        assert monitor.availability("lexica-prime") == 0.0
        assert bound.client.quota.calls("lexica-prime") == 0

    def test_invoke_batched_still_raises_for_a_whole_batch_wire_failure(
            self, bound):
        with pytest.raises(ServiceTimeoutError):
            bound.batched("lexica-prime", "analyze", documents(3),
                          timeout=1e-9, use_cache=False)
        assert bound.client.monitor.failure_count("lexica-prime") == 3

    def test_batch_items_are_quality_rated(self, bound):
        bound.client.quality_raters["analyze"] = lambda value: 0.25
        bound.batched("lexica-prime", "analyze", documents(2), use_cache=False)
        records = bound.client.monitor.records("lexica-prime")
        assert [record.quality for record in records] == [0.25, 0.25]
        assert bound.client.monitor.mean_quality("lexica-prime") == 0.25


class TestBatchCancellationRefunds:
    """Cancelling a batch mid-queue or mid-wire on the loop binding (the
    blocking binding's ``KeyboardInterrupt`` twin lives in
    ``tests/core/test_blocking_driver.py``)."""

    @staticmethod
    async def cancelled(*args, **kwargs):
        raise asyncio.CancelledError

    def assert_nothing_leaked(self, client):
        assert client.quota.calls("glotta") == 0
        assert client.quota.cost("glotta") == 0.0
        assert client.tenancy.usage("alpha")["calls"] == 0
        assert client.aio.admission.bulkhead_for("glotta").inflight == 0

    def test_cancel_in_the_bulkhead_queue(self, guarded, monkeypatch):
        gate = guarded.aio.admission.bulkhead_for("glotta")
        monkeypatch.setattr(gate, "acquire", self.cancelled)
        with tenant_scope("alpha"), pytest.raises(asyncio.CancelledError):
            arun(guarded.aio.ainvoke_batched(
                "glotta", "analyze", [{"text": TEXT}, {"text": OTHER}]))
        self.assert_nothing_leaked(guarded)

    def test_cancel_on_the_wire(self, world, guarded, monkeypatch):
        monkeypatch.setattr(world.service("glotta"), "ainvoke_batch",
                            self.cancelled)
        with tenant_scope("alpha"), pytest.raises(asyncio.CancelledError):
            arun(guarded.aio.ainvoke_batched(
                "glotta", "analyze", [{"text": TEXT}, {"text": OTHER}]))
        self.assert_nothing_leaked(guarded)
        assert guarded.monitor.call_count("glotta") == 0


#: name -> (limit, fair, script).  Script steps: ("acquire", tenant,
#: budget-or-None), ("release",), ("advance", seconds).  On a virtual
#: clock a queued acquire charges its whole window and is then shed,
#: so every step has one deterministic outcome under either binding.
ADMISSION_SCRIPTS = {
    "queue-timeout-and-deadline-sheds": (
        AdmissionLimit(max_concurrent=2, max_queue=1, queue_timeout=0.5), False,
        [("acquire", "a", None), ("acquire", "b", None),
         ("acquire", "a", None),      # queues 0.5 s, shed queue-timeout
         ("acquire", "b", 0.2),       # window clamped to 0.2 s, shed deadline
         ("advance", 1.0),
         ("acquire", "a", 0.0),       # spent budget: shed without queueing
         ("release",), ("acquire", None, 3.0), ("release",), ("release",)]),
    "queue-full-fast-fail": (
        AdmissionLimit(max_concurrent=1, max_queue=0, queue_timeout=0.25), False,
        [("acquire", "a", None), ("acquire", "b", None), ("acquire", "b", 1.0),
         ("release",), ("acquire", "b", None), ("release",)]),
    "fair-queue-same-verdicts": (
        AdmissionLimit(max_concurrent=1, max_queue=2, queue_timeout=0.5), True,
        [("acquire", "hog", None), ("acquire", "hog", None),
         ("acquire", "mouse", 0.1), ("release",), ("acquire", "mouse", None),
         ("acquire", "hog", 0.0), ("release",)]),
}


class TestAdmissionParity:
    """The same arrival/release script through both park bindings."""

    @staticmethod
    async def play(controller, script):
        """Run ``script``; the blocking binding's acquire returns a float,
        the loop binding's an awaitable of one."""
        bulkhead = controller.bulkhead_for("svc")
        verdicts = []
        for step in script:
            if step[0] == "release":
                bulkhead.release()
            elif step[0] == "advance":
                controller.clock.advance(step[1])
            else:
                _, tenant, budget = step
                deadline = (Deadline.after(controller.clock, budget)
                            if budget is not None else None)
                try:
                    waited = bulkhead.acquire(deadline=deadline, tenant=tenant)
                    if inspect.isawaitable(waited):
                        waited = await waited
                    verdicts.append(("admitted", waited))
                except AdmissionRejectedError as shed:
                    verdicts.append(("shed", shed.reason, shed.retry_after,
                                     str(shed)))
        return verdicts, bulkhead, controller.clock.now()

    @pytest.mark.parametrize("name", sorted(ADMISSION_SCRIPTS))
    def test_script_gives_identical_verdicts_and_stats(self, name):
        limit, fair, script = ADMISSION_SCRIPTS[name]
        blocking = AdmissionController(ManualClock(), default_limit=limit,
                                       fair=fair)
        loop = AsyncAdmissionController.from_sync(
            AdmissionController(ManualClock(), default_limit=limit, fair=fair))
        sync_verdicts, sync_gate, sync_now = run_sync(self.play(blocking, script))
        async_verdicts, async_gate, async_now = arun(self.play(loop, script))
        assert isinstance(async_gate, AsyncBulkhead)
        assert not isinstance(sync_gate, AsyncBulkhead)
        assert async_verdicts == sync_verdicts
        assert any(verdict[0] == "shed" for verdict in sync_verdicts)
        assert asdict(async_gate.stats) == asdict(sync_gate.stats)
        assert async_now == sync_now
        assert async_gate.inflight == sync_gate.inflight == 0
        assert async_gate.queue_depth == sync_gate.queue_depth == 0
        # Every shed verdict is counted once, on both bindings.
        assert async_gate.stats.shed == sync_gate.stats.shed == sum(
            verdict[0] == "shed" for verdict in sync_verdicts)


#: Waiting-policy methods that PR 13 reduced to one definition each.  A
#: second class under ``repro.core`` defining one of them means a policy
#: has been forked per driver again.
SINGLE_DEFINITION = {
    # admission
    "_arrive", "_resume", "_withdraw", "_maybe_grant", "_return_permit",
    "_admit", "_count_shed", "_shed", "_queue_window", "_timed_out", "_wait",
    # coalescing
    "lead_or_join", "count_folded", "_discard",
    # micro-batching
    "_limit_for", "_submit", "_enqueue", "_detach", "_flush", "_flush_window",
    "_fan_out",
    # hedging
    "deadline_for", "_rank", "_hedged", "_race",
}


class TestPoliciesAreWrittenOnce:
    def test_no_policy_method_is_defined_by_two_classes(self):
        owners = {}
        for info in pkgutil.walk_packages(repro.core.__path__, "repro.core."):
            module = importlib.import_module(info.name)
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == info.name:
                    for name in SINGLE_DEFINITION & set(vars(cls)):
                        owners.setdefault(name, []).append(cls.__qualname__)
        forked = {name: classes for name, classes in owners.items()
                  if len(classes) > 1}
        assert not forked
        assert {"_arrive", "lead_or_join", "_flush_window", "_race"} <= set(owners)

    def test_loop_bindings_inherit_their_accounting(self):
        # bind_metrics is a name many classes legitimately own; what
        # must not come back is a second copy on a loop binding.
        for binding in (AsyncBulkhead, AsyncAdmissionController):
            assert "bind_metrics" not in vars(binding)
            assert "stats" not in vars(binding)


    @staticmethod
    def call_sites(tree):
        """Dotted name of every call in ``tree``: ``self.quota.reserve`` ..."""
        return Counter(ast.unparse(node.func) for node in ast.walk(tree)
                       if isinstance(node, ast.Call))

    def test_the_upstream_envelope_is_spelled_out_once(self):
        # A batch is N calls in one round trip: a second copy of the
        # protections (or of the record) is how the batch path drifted.
        calls = self.call_sites(ast.parse(
            inspect.getsource(repro.core.aio.invoker)))
        for site in ("self.tenancy.authorize", "self.quota.reserve",
                     "self.rate_limiter.acquire_or_raise",
                     "self.admission.bulkhead_for", "bulkhead.release",
                     "InvocationRecord", "self.quota.settle",
                     "self.tenancy.settle"):
            assert calls[site] == 1, site
        # The racy sequential-caller pair is API, not something we use.
        assert not calls["self.quota.check"] and not calls["self.quota.record"]

    def test_a_service_has_one_per_request_serve_path(self):
        calls = self.call_sites(ast.parse(inspect.getsource(
            repro.services.base.SimulatedService)))
        for site in ("self.quota.consume", "self.failures.should_fail",
                     "self._handle", "self.cost_model.cost"):
            assert calls[site] == 1, site


class TestFacadeParity:
    """Blocking callers served by the loop: ``LoopRunner`` + ``client.aio``.

    The runner's own tests use bare coroutines; these pin the
    composition the docs recommend for loop-served blocking calls —
    the client's coroutines crossing the runner with results, error
    types and futures unchanged.
    """

    @pytest.fixture
    def runner(self):
        runner = LoopRunner()
        yield runner
        runner.shutdown()

    def test_invoke_through_the_shim_matches_the_thread_core(self, pair, runner):
        _, thread_client, _, loop_client = pair
        thread_result = thread_client.invoke("lexica-prime", "analyze",
                                             {"text": TEXT})
        loop_result = runner.run(loop_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        assert loop_result.value == thread_result.value
        assert loop_result.latency == thread_result.latency
        assert loop_result.cost == thread_result.cost
        assert runner.run(loop_client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT})).cached

    def test_invoke_async_through_the_shim_returns_a_listenable(self, pair, runner):
        _, _, _, client = pair
        future = runner.submit_listenable(client.aio.ainvoke(
            "lexica-prime", "analyze", {"text": TEXT}))
        result = future.get(timeout=10)
        assert result.service == "lexica-prime"
        assert result.value["entities"]

    def test_error_types_cross_the_shim_unchanged(self, pair, runner):
        _, _, world, client = pair
        world.service("glotta").failures = ScriptedFailures({0})
        with pytest.raises(RemoteServiceError):
            runner.run(client.aio.ainvoke(
                "glotta", "analyze", {"text": TEXT}, use_cache=False))
        with pytest.raises(ServiceTimeoutError):
            runner.run(client.aio.ainvoke(
                "lexica-prime", "analyze", {"text": TEXT},
                timeout=1e-6, use_cache=False))

    def test_invoke_batched_through_the_shim(self, pair, runner):
        _, _, _, client = pair
        outcomes = runner.run(client.aio.ainvoke_batched(
            "glotta", "analyze", [{"text": TEXT}, {"text": OTHER}]))
        assert len(outcomes) == 2
        assert all(outcome.batched for outcome in outcomes)
