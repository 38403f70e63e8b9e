"""Tests for declarative fault plans (repro.chaos.plan)."""

import pytest

from repro.chaos.plan import (
    ClockSkew,
    ErrorBurst,
    FaultPlan,
    FlappingLink,
    LatencySpike,
    Partition,
    PayloadCorruption,
    Window,
)


class TestWindow:
    def test_half_open_interval(self):
        window = Window(1.0, 3.0)
        assert not window.contains(0.999)
        assert window.contains(1.0)
        assert window.contains(2.999)
        assert not window.contains(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Window(5.0, 4.0)

    def test_describe_is_stable(self):
        assert Window(0.5, 2.0).describe() == "[0.5, 2)"


class TestSpecValidation:
    def test_error_burst_probability_bounds(self):
        with pytest.raises(ValueError):
            ErrorBurst(Window(0, 1), probability=0.0)
        with pytest.raises(ValueError):
            ErrorBurst(Window(0, 1), probability=1.5)

    def test_error_burst_status_bounds(self):
        with pytest.raises(ValueError):
            ErrorBurst(Window(0, 1), status=200)

    def test_latency_spike_bounds(self):
        with pytest.raises(ValueError):
            LatencySpike(Window(0, 1), extra=-0.1)
        with pytest.raises(ValueError):
            LatencySpike(Window(0, 1), factor=0.5)

    def test_flapping_bounds(self):
        with pytest.raises(ValueError):
            FlappingLink(Window(0, 1), period=0.0)
        with pytest.raises(ValueError):
            FlappingLink(Window(0, 1), period=1.0, duty_offline=1.0)


class TestSpecScoping:
    def test_endpoint_scope(self):
        burst = ErrorBurst(Window(0.0, 10.0), endpoint="glotta")
        assert burst.active("glotta", 5.0)
        assert not burst.active("lexica-prime", 5.0)
        assert not burst.active("glotta", 10.0)  # window is half-open

    def test_unscoped_spec_hits_every_endpoint(self):
        partition = Partition(Window(1.0, 2.0))
        assert partition.active("anything", 1.5)

    def test_flapping_duty_cycle(self):
        # period 2s, first half offline: [1,2) down, [2,3) up, [3,4) down...
        flap = FlappingLink(Window(1.0, 9.0), period=2.0, duty_offline=0.5)
        assert flap.active("svc", 1.5)
        assert not flap.active("svc", 2.5)
        assert flap.active("svc", 3.5)
        assert not flap.active("svc", 9.5)  # outside the envelope

    def test_flapping_offline_windows_expand_duty_cycle(self):
        flap = FlappingLink(Window(1.0, 9.0), period=2.0, duty_offline=0.5)
        assert flap.offline_windows() == [
            Window(1.0, 2.0), Window(3.0, 4.0),
            Window(5.0, 6.0), Window(7.0, 8.0)]


class TestFaultPlan:
    def test_offline_windows_merges_partitions_and_flaps(self):
        plan = FaultPlan((
            Partition(Window(10.0, 12.0)),
            FlappingLink(Window(0.0, 4.0), period=2.0, duty_offline=0.5),
            Partition(Window(20.0, 21.0), endpoint="other"),
        ), seed=7)
        assert plan.offline_windows() == [
            Window(0.0, 1.0), Window(2.0, 3.0), Window(10.0, 12.0)]
        # Endpoint-scoped query also sees the endpoint's own partitions.
        assert Window(20.0, 21.0) in plan.offline_windows("other")

    def test_skew_at_sums_active_skews(self):
        plan = FaultPlan((
            ClockSkew(Window(0.0, 10.0), offset=-45.0),
            ClockSkew(Window(5.0, 10.0), offset=2.0),
        ))
        assert plan.skew_at(1.0) == -45.0
        assert plan.skew_at(6.0) == -43.0
        assert plan.skew_at(10.0) == 0.0

    def test_describe_is_stable_and_ordered(self):
        plan = FaultPlan((
            ErrorBurst(Window(5.0, 60.0), endpoint="lexica-prime"),
            PayloadCorruption(Window(0.0, 1.0)),
        ), seed=13)
        assert plan.describe() == (
            "fault-plan seed=13 specs=2\n"
            "  - error-burst lexica-prime [5, 60) status=500 p=1\n"
            "  - corruption * [0, 1) p=1")

    def test_of_type_preserves_order(self):
        first = Partition(Window(0.0, 1.0))
        second = Partition(Window(2.0, 3.0))
        plan = FaultPlan((first, ErrorBurst(Window(0, 1)), second))
        assert plan.of_type(Partition) == [first, second]

