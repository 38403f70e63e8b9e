"""Tests for the deficit-round-robin scheduler."""

import pytest

from repro.tenancy.scheduling import DEFAULT_TENANT, DrrScheduler


def drain(scheduler):
    items = []
    while scheduler:
        items.append(scheduler.pop_next())
    return items


class TestBasics:
    def test_empty_pops_none(self):
        assert DrrScheduler().pop_next() is None

    def test_single_tenant_is_fifo(self):
        scheduler = DrrScheduler()
        for item in ("a", "b", "c"):
            scheduler.push("t1", item)
        assert drain(scheduler) == ["a", "b", "c"]

    def test_none_tenant_uses_default_queue(self):
        scheduler = DrrScheduler()
        scheduler.push(None, "x")
        assert scheduler.tenants() == [DEFAULT_TENANT]
        assert scheduler.pop_next() == "x"

    def test_depth_and_len(self):
        scheduler = DrrScheduler()
        scheduler.push("t1", "a")
        scheduler.push("t1", "b")
        scheduler.push("t2", "c")
        assert scheduler.depth("t1") == 2
        assert scheduler.depth("t2") == 1
        assert scheduler.depth("ghost") == 0
        assert len(scheduler) == 3
        assert bool(scheduler)

    def test_invalid_quantum(self):
        with pytest.raises(ValueError):
            DrrScheduler(quantum=0)


class TestFairness:
    def test_equal_weights_round_robin(self):
        scheduler = DrrScheduler()
        for index in range(3):
            scheduler.push("t1", f"a{index}")
            scheduler.push("t2", f"b{index}")
        # One item per tenant per cycle: perfect interleave.
        assert drain(scheduler) == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_weighted_tenant_drains_proportionally(self):
        weights = {"heavy": 2.0, "light": 1.0}
        scheduler = DrrScheduler(weight_of=weights.__getitem__)
        for index in range(30):
            scheduler.push("heavy", ("heavy", index))
            scheduler.push("light", ("light", index))
        first_cycle = [scheduler.pop_next() for _ in range(9)]
        heavy = sum(1 for tenant, _ in first_cycle if tenant == "heavy")
        assert heavy == 6  # 2:1 share while both stay backlogged

    def test_heavy_head_yields_the_ring(self):
        # Regression: crediting the head in place let a high-weight
        # tenant re-earn deficit after every serve and starve the ring.
        # Credit happens at rotation, so weight-5 serves its burst and
        # then must yield one slot to weight-1.
        weights = {"big": 5.0, "small": 1.0}
        scheduler = DrrScheduler(weight_of=weights.__getitem__)
        for index in range(10):
            scheduler.push("big", ("big", index))
            scheduler.push("small", ("small", index))
        served = [scheduler.pop_next()[0] for _ in range(12)]
        assert served[:6] == ["big"] * 5 + ["small"]
        assert served[6:12] == ["big"] * 5 + ["small"]

    def test_idle_tenant_forfeits_deficit(self):
        scheduler = DrrScheduler()
        scheduler.push("t1", "a")
        scheduler.push("t2", "b")
        assert drain(scheduler) == ["a", "b"]
        # t1 re-arrives alone with no banked credit: exactly one cycle
        # of credit is needed again (no instant multi-serve from the
        # previous round's residue).
        scheduler.push("t1", "c")
        assert scheduler.pop_next() == "c"

    def test_determinism(self):
        def build():
            scheduler = DrrScheduler(
                weight_of={"x": 3.0, "y": 1.0, "z": 2.0}.__getitem__)
            for index in range(20):
                scheduler.push("x", ("x", index))
                scheduler.push("y", ("y", index))
                scheduler.push("z", ("z", index))
            return drain(scheduler)

        assert build() == build()


class TestRemoval:
    def test_remove_withdraws_item(self):
        scheduler = DrrScheduler()
        scheduler.push("t1", "a")
        scheduler.push("t1", "b")
        assert scheduler.remove("t1", "a")
        assert drain(scheduler) == ["b"]

    def test_remove_missing_is_false(self):
        scheduler = DrrScheduler()
        scheduler.push("t1", "a")
        assert not scheduler.remove("t1", "ghost")
        assert not scheduler.remove("ghost", "a")

    def test_stale_ring_entry_is_skipped(self):
        scheduler = DrrScheduler()
        scheduler.push("t1", "a")
        scheduler.push("t2", "b")
        # Draining t1 via remove leaves its ring slot stale; pop_next
        # must skip it and serve t2.
        assert scheduler.remove("t1", "a")
        assert scheduler.pop_next() == "b"
        assert scheduler.pop_next() is None

    def test_push_after_remove_does_not_duplicate_ring_slot(self):
        scheduler = DrrScheduler()
        scheduler.push("t1", "a")
        scheduler.push("t2", "b")
        scheduler.remove("t1", "a")
        # Re-push while the stale slot is still in the ring: the tenant
        # must not gain a second slot (double service per cycle).
        scheduler.push("t1", "a2")
        assert sorted(scheduler.tenants()) == ["t1", "t2"]
        served = drain(scheduler)
        assert sorted(served) == ["a2", "b"]

    def test_withdrawn_tenants_leave_no_empty_lane_behind(self):
        # Each one-shot tenant whose only waiter times out must not
        # keep an empty sub-queue: depth() and __bool__ walk them all.
        scheduler = DrrScheduler()
        for index in range(100):
            scheduler.push(f"t{index}", index)
            assert scheduler.remove(f"t{index}", index)
        assert scheduler.pop_next() is None
        assert not scheduler._queues and not scheduler._ring


class TestWeights:
    def test_default_weight_is_one(self):
        assert DrrScheduler().weight("anyone") == 1.0

    def test_weight_floor_guards_bad_callables(self):
        scheduler = DrrScheduler(weight_of=lambda tenant: 0.0)
        assert scheduler.weight("t1") == pytest.approx(1e-9)


class TestPushOut:
    def test_the_longest_lane_gives_up_its_newest_item(self):
        scheduler = DrrScheduler()
        for item in ("h0", "h1", "h2"):
            scheduler.push("hog", item)
        scheduler.push("mouse", "m0")
        assert scheduler.push_out("mouse") == "h2"
        assert scheduler.depth("hog") == 2
        assert drain(scheduler) == ["h0", "m0", "h1"]

    def test_no_push_out_unless_the_newcomer_stays_shorter(self):
        scheduler = DrrScheduler()
        scheduler.push("hog", "h0")
        scheduler.push("hog", "h1")
        scheduler.push("mouse", "m0")
        assert scheduler.push_out("mouse") is None
        assert scheduler.push_out("hog") is None
        assert len(scheduler) == 3

    def test_one_lane_never_pushes_out(self):
        scheduler = DrrScheduler()
        for item in ("a", "b", "c"):
            scheduler.push(None, item)
        assert scheduler.push_out(None) is None
        assert scheduler.push_out(None) is None
        assert DrrScheduler().push_out("anyone") is None

    def test_the_untenanted_lane_counts_only_its_own_items(self):
        scheduler = DrrScheduler()
        scheduler.push(None, "d0")
        for item in ("h0", "h1", "h2"):
            scheduler.push("hog", item)
        # The default lane holds 1 (depth(None) would say 4): 2 < 3.
        assert scheduler.push_out(None) == "h2"

    def test_lengths_are_weighted(self):
        weights = {"big": 4.0, "small": 1.0, "tiny": 0.5}
        scheduler = DrrScheduler(weight_of=weights.__getitem__)
        for index in range(4):
            scheduler.push("big", ("big", index))
        scheduler.push("small", ("small", 0))
        # big: 4 / 4 = 1; small with a second item: 2 / 1 = 2.
        assert scheduler.push_out("small") is None
        # tiny's first item weighs 1 / 0.5 = 2, no shorter than small.
        assert scheduler.push_out("tiny") is None
        scheduler.push("small", ("small", 1))
        # small 2 / 1 is now the longest; a fresh big lane item: 5/4.
        assert scheduler.push_out("big") == ("small", 1)

    def test_ties_go_to_the_lane_first_in_the_ring(self):
        scheduler = DrrScheduler()
        scheduler.push("a", "a0")
        scheduler.push("b", "b0")
        scheduler.push("a", "a1")
        scheduler.push("b", "b1")
        assert scheduler.push_out("c") == "a1"
        assert scheduler.push_out("c") == "b1"
