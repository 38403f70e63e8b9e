"""RA007 — blocking calls inside ``async def`` bodies."""

from __future__ import annotations

from tests.analysis.conftest import rule_ids

# -- true positives -----------------------------------------------------------


def test_ra007_flags_sleep_charge_and_acquire_in_coroutines(analyze):
    report = analyze({"worker.py": """\
        import time

        class Worker:
            async def bad_sleep(self):
                time.sleep(1.0)

            async def bad_charge(self, clock):
                clock.charge(1.0)

            async def bad_acquire(self):
                self._lock.acquire()
        """}, select=["RA007"])
    assert rule_ids(report) == ["RA007", "RA007", "RA007"]
    assert all("stalls the event loop" in finding.message
               for finding in report.findings)


def test_ra007_flags_future_waits_and_sync_transport(analyze):
    report = analyze({"worker.py": """\
        async def bad_result(future):
            return future.result()

        async def bad_get(queue):
            return queue.get()

        async def bad_wire(transport, request):
            return transport.call("svc", request)
        """}, select=["RA007"])
    assert rule_ids(report) == ["RA007", "RA007", "RA007"]
    assert any("acall" in finding.message for finding in report.findings)


def test_ra007_flags_blocking_fan_outs_on_any_receiver(analyze):
    report = analyze({"worker.py": """\
        async def page(client, calls):
            return client.invoke_all(calls)

        async def redundant(invoker, services):
            return invoker.invoke_redundant(services, "analyze", {})

        async def fine(client, calls):
            return await client.aio.ainvoke_all(calls)
        """}, select=["RA007"])
    assert rule_ids(report) == ["RA007", "RA007"]
    assert all("event loop of its own" in finding.message
               for finding in report.findings)


def test_ra007_flags_nested_coroutines_too(analyze):
    report = analyze({"worker.py": """\
        async def outer(clock):
            async def inner():
                clock.charge(1.0)
            await inner()
        """}, select=["RA007"])
    assert rule_ids(report) == ["RA007"]


# -- true negatives -----------------------------------------------------------


def test_ra007_awaited_calls_and_asyncio_receivers_are_exempt(analyze):
    report = analyze({"worker.py": """\
        import asyncio

        async def good(bulkhead, tasks):
            await asyncio.sleep(0.1)
            await bulkhead.acquire()
            done, pending = await asyncio.wait(tasks)
            return done, pending
        """}, select=["RA007"])
    assert report.findings == []


def test_ra007_sync_functions_and_nested_defs_are_out_of_scope(analyze):
    report = analyze({"worker.py": """\
        import time

        def plain(clock):
            clock.charge(1.0)
            time.sleep(0.5)

        async def schedules_off_loop(pool, clock):
            def later():
                clock.charge(1.0)
            pool.submit(later)
        """}, select=["RA007"])
    assert report.findings == []


def test_ra007_dict_get_with_key_is_not_a_queue_wait(analyze):
    report = analyze({"worker.py": """\
        async def lookup(future_cache, key):
            return future_cache.get(key)
        """}, select=["RA007"])
    assert report.findings == []


# -- suppression --------------------------------------------------------------


def test_ra007_suppression(analyze):
    report = analyze({"worker.py": """\
        async def acharge(clock, seconds):
            clock.charge(seconds)  # repro: ignore[RA007] virtual clock
        """}, select=["RA007"])
    assert report.findings == []
    assert len(report.suppressed) == 1
