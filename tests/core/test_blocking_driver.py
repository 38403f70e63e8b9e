"""The blocking driver of the single invocation body.

``RichClient.invoke*`` run the ``repro.core.aio.invoker`` coroutines on
the caller's thread (``run_sync``).  These tests pin what that buys and
what it must not cost: no thread or event loop is started, and the
body's ``BaseException`` cleanup — written for task cancellation — also
covers a ``KeyboardInterrupt`` / ``SystemExit`` raised under a blocking
wait (the TestBaseExceptionCleanup cases failed before the merge,
when the sync bodies caught ``Exception`` only).
"""

import asyncio
import threading
import time

import pytest

from repro.tenancy.context import tenant_scope

TEXT = "IBM announced excellent results while Initech struggled badly."
OTHER = "Globex thrives while Vandelay Industries imports nothing."


def interrupted(*args, **kwargs):
    raise KeyboardInterrupt


class TestNoThreadNoLoop:
    def test_the_sync_api_leaves_the_thread_set_unchanged(self, world, client):
        before = set(threading.enumerate())
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        client.invoke("lexica-prime", "analyze", {"text": TEXT})  # cache hit
        client.invoke_many("glotta", "analyze",
                           [{"text": TEXT}, {"text": TEXT}, {"text": OTHER}])
        client.invoke_batched("glotta", "analyze",
                              [{"text": "one"}, {"text": "two"}])
        client.invoke_with_failover("nlu", "analyze", {"text": OTHER})
        client.invoke_redundant(["glotta", "lexica-prime"], "analyze",
                                {"text": "redundant"}, parallel=False)
        # The fan-outs run their legs as tasks on a loop in this thread.
        client.invoke_all([("glotta", "analyze", {"text": "fan one"}),
                           ("lexica-prime", "analyze", {"text": "fan two"})])
        client.invoke_redundant(["glotta", "lexica-prime"], "analyze",
                                {"text": "parallel"}, parallel=True)
        assert set(threading.enumerate()) == before

    def test_the_sync_api_needs_and_starts_no_event_loop(self, client,
                                                         monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the blocking driver started an event loop")

        monkeypatch.setattr(asyncio, "new_event_loop", forbidden)
        monkeypatch.setattr(asyncio, "get_running_loop", forbidden)
        result = client.invoke_with_failover("nlu", "analyze", {"text": TEXT})
        assert result.attempts

    def test_nested_hops_go_through_the_clients_own_attributes(self, client):
        seen = []
        for name in ("invoke", "invoke_batched"):
            def spy(*args, _inner=getattr(client, name), _name=name, **kwargs):
                seen.append(_name)
                return _inner(*args, **kwargs)
            setattr(client, name, spy)
        walk = client.failover.invoke
        client.failover.invoke = lambda *a, **k: (seen.append("failover.invoke"),
                                                  walk(*a, **k))[1]
        client.invoke_many("glotta", "analyze", [{"text": TEXT}])
        client.invoke_with_failover("nlu", "analyze", {"text": OTHER})
        assert seen == ["invoke_batched", "failover.invoke", "invoke"]


class TestBaseExceptionCleanup:
    def test_followers_of_an_interrupted_leader_are_released(self, world,
                                                             client,
                                                             monkeypatch):
        entered, die = threading.Event(), threading.Event()

        def wire(*args, **kwargs):
            entered.set()
            die.wait(5)
            raise KeyboardInterrupt

        monkeypatch.setattr(world.service("lexica-prime"), "invoke", wire)
        outcomes = {}

        def call(role):
            try:
                outcomes[role] = client.invoke("lexica-prime", "analyze",
                                               {"text": TEXT})
            except BaseException as error:  # noqa: BLE001 — asserted below
                outcomes[role] = error

        leader = threading.Thread(target=call, args=("leader",), daemon=True)
        leader.start()
        assert entered.wait(5)
        follower = threading.Thread(target=call, args=("follower",),
                                    daemon=True)
        follower.start()
        give_up = time.monotonic() + 5
        while client.coalescer.stats.coalesced < 1:
            assert time.monotonic() < give_up, "follower never joined"
            time.sleep(0.001)
        die.set()
        leader.join(5)
        follower.join(5)
        assert not follower.is_alive(), "follower stranded on a dead leader"
        assert isinstance(outcomes["leader"], KeyboardInterrupt)
        assert isinstance(outcomes["follower"], KeyboardInterrupt)
        assert len(client.coalescer) == 0

    def test_interrupt_in_the_bulkhead_queue_refunds_the_reservations(
            self, guarded, monkeypatch):
        gate = guarded.admission.bulkhead_for("lexica-prime")
        monkeypatch.setattr(gate, "acquire", interrupted)
        with tenant_scope("alpha"), pytest.raises(KeyboardInterrupt):
            guarded.invoke("lexica-prime", "analyze", {"text": TEXT})
        assert guarded.quota.calls("lexica-prime") == 0
        assert guarded.tenancy.usage("alpha")["calls"] == 0

    def test_interrupt_on_the_wire_refunds_and_releases_the_permit(
            self, world, guarded, monkeypatch):
        monkeypatch.setattr(world.service("lexica-prime"), "invoke",
                            interrupted)
        with tenant_scope("alpha"), pytest.raises(KeyboardInterrupt):
            guarded.invoke("lexica-prime", "analyze", {"text": TEXT})
        assert guarded.quota.calls("lexica-prime") == 0
        assert guarded.tenancy.usage("alpha")["calls"] == 0
        assert guarded.admission.bulkhead_for("lexica-prime").inflight == 0

    def test_interrupt_in_the_bulkhead_queue_of_a_batch_refunds_the_reservations(
            self, guarded, monkeypatch):
        gate = guarded.admission.bulkhead_for("glotta")
        monkeypatch.setattr(gate, "acquire", interrupted)
        with tenant_scope("alpha"), pytest.raises(KeyboardInterrupt):
            guarded.invoke_batched("glotta", "analyze",
                                   [{"text": TEXT}, {"text": OTHER}])
        assert guarded.quota.calls("glotta") == 0
        assert guarded.tenancy.usage("alpha")["calls"] == 0
        assert gate.inflight == 0

    def test_interrupt_in_a_batch_call_refunds_the_tenant_charge(
            self, world, guarded, monkeypatch):
        monkeypatch.setattr(world.service("glotta"), "invoke_batch",
                            interrupted)
        with tenant_scope("alpha"), pytest.raises(KeyboardInterrupt):
            guarded.invoke_batched("glotta", "analyze",
                                   [{"text": TEXT}, {"text": OTHER}])
        assert guarded.quota.calls("glotta") == 0
        assert guarded.tenancy.usage("alpha")["calls"] == 0
        assert guarded.admission.bulkhead_for("glotta").inflight == 0

    def test_interrupted_flush_fails_every_rider_of_the_window(
            self, client, monkeypatch):
        batcher = client.batcher(max_batch_size=2)
        first = batcher.submit("glotta", "analyze", {"text": TEXT},
                               use_cache=False)
        monkeypatch.setattr(client, "invoke_batched", interrupted)
        with pytest.raises(KeyboardInterrupt):
            batcher.submit("glotta", "analyze", {"text": OTHER},
                           use_cache=False)
        # The window left the table when the flush began, so a rider
        # not failed here would wait forever.
        assert batcher.pending() == 0
        assert first.is_done()
        assert isinstance(first.exception(), KeyboardInterrupt)
        assert batcher.stats.flushes == 1
