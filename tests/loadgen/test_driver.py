"""Tests for the deterministic load driver."""

import pytest

from repro.loadgen import Aggressor, LoadSpec, run_spec
from repro.loadgen.driver import LIMIT, LoadDriver


class TestSpecValidation:
    def test_defaults_are_valid(self):
        LoadSpec()

    def test_bad_discipline(self):
        with pytest.raises(ValueError):
            LoadSpec(discipline="lifo")

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            LoadSpec(tenants=0)
        with pytest.raises(ValueError):
            LoadSpec(duration=0)
        with pytest.raises(ValueError):
            LoadSpec(arrival_rate=-1.0)

    def test_aggressor_must_name_a_real_tenant(self):
        with pytest.raises(ValueError):
            LoadSpec(tenants=10, aggressors=(Aggressor(rank=10),))


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        spec = LoadSpec(tenants=30, arrival_rate=65.0, duration=3.0, seed=7,
                        aggressors=(Aggressor(rank=0, multiplier=5.0),))
        assert run_spec(spec).to_dict() == run_spec(spec).to_dict()

    def test_different_seed_different_run(self):
        base = LoadSpec(tenants=30, arrival_rate=65.0, duration=3.0, seed=7)
        other = LoadSpec(tenants=30, arrival_rate=65.0, duration=3.0, seed=8)
        assert run_spec(base).to_dict() != run_spec(other).to_dict()

    def test_a_driver_runs_the_same_twice(self):
        # Each run builds its own world, so nothing carries over.
        driver = LoadDriver(LoadSpec(tenants=10, arrival_rate=65.0,
                                     duration=2.0, seed=7, discipline="fifo"))
        assert driver.run().to_dict() == driver.run().to_dict()


class TestConservation:
    def test_every_arrival_is_served_or_shed(self):
        # The run waits for every request after arrivals stop, so the
        # ledger balances: nothing is lost in the queue at the end.
        report = run_spec(LoadSpec(tenants=30, arrival_rate=300.0,
                                   duration=3.0, seed=7))
        assert report.total_sheds > 0
        assert (report.total_completions + report.total_sheds
                == report.total_arrivals)

    def test_fifo_conserves_as_well(self):
        report = run_spec(LoadSpec(tenants=30, arrival_rate=300.0,
                                   duration=3.0, seed=7, discipline="fifo"))
        assert report.total_sheds > 0
        assert (report.total_completions + report.total_sheds
                == report.total_arrivals)

    def test_an_idle_service_sheds_nothing_and_costs_its_latency(self):
        report = run_spec(LoadSpec(tenants=10, arrival_rate=5.0,
                                   duration=4.0, seed=7))
        assert report.total_sheds == 0
        # geosphere's LogNormal latency: median 0.07 s, sigma 0.25.
        assert 0.05 < report.overall_percentile(0.50) < 0.09


class TestModes:
    def test_aggressor_floods_its_rank(self):
        calm = run_spec(LoadSpec(tenants=30, arrival_rate=65.0,
                                 duration=3.0, seed=7))
        stormy = run_spec(LoadSpec(tenants=30, arrival_rate=65.0,
                                   duration=3.0, seed=7,
                                   aggressors=(Aggressor(rank=0,
                                                         multiplier=10.0),)))
        assert (stormy.tenant("t00000").arrivals
                > 5 * calm.tenant("t00000").arrivals)

    def test_aggressor_window_is_respected(self):
        report = run_spec(LoadSpec(
            tenants=30, arrival_rate=50.0, duration=4.0, seed=7,
            aggressors=(Aggressor(rank=0, multiplier=50.0, start=1.0,
                                  stop=2.0),)))
        # The flood ran for a quarter of the run; without a window it
        # would dwarf the background stream entirely.
        flooded = report.tenant("t00000").arrivals
        assert 0 < flooded < report.total_arrivals

    def test_weights_are_recorded_in_stats(self):
        report = run_spec(LoadSpec(tenants=4, zipf_exponent=0.0,
                                   arrival_rate=100.0, duration=2.0, seed=7,
                                   weights={1: 3.0}))
        assert report.tenant("t00001").weight == 3.0
        assert report.tenant("t00000").weight == 1.0


class TestFairnessSatellite:
    """A11's headline property, at unit-test scale.

    An aggressor at 10x its fair share must not push a well-behaved
    victim's p99 past 2x its solo baseline under fair admission; the
    FIFO control demonstrably violates the same bound.
    """

    VICTIM = "t00001"
    AGGRESSOR = Aggressor(rank=0, multiplier=10.0)

    @staticmethod
    def _run(discipline, aggressors=()):
        return run_spec(LoadSpec(tenants=50, arrival_rate=65.0,
                                 duration=6.0, seed=7,
                                 discipline=discipline,
                                 aggressors=aggressors))

    @pytest.fixture(scope="class")
    def baseline_p99(self):
        return self._run("fair").tenant(self.VICTIM).latency_percentile(0.99)

    def test_fair_discipline_bounds_victim_p99(self, baseline_p99):
        flooded = self._run("fair", (self.AGGRESSOR,))
        victim = flooded.tenant(self.VICTIM)
        assert victim.latency_percentile(0.99) <= 2.0 * baseline_p99
        assert victim.sheds == 0
        assert flooded.fairness() >= 0.9

    def test_fifo_control_violates_the_bound(self, baseline_p99):
        flooded = self._run("fifo", (self.AGGRESSOR,))
        fifo_p99 = flooded.tenant(self.VICTIM).latency_percentile(0.99)
        assert fifo_p99 > 2.0 * baseline_p99
        # FIFO also sheds the victim: its requests find the shared
        # queue already full of the aggressor's backlog.
        assert flooded.tenant(self.VICTIM).shed_rate > 0.1


class TestDriverInternals:
    def test_clock_ends_at_the_last_event(self):
        driver = LoadDriver(LoadSpec(tenants=10, arrival_rate=100.0,
                                     duration=2.0, seed=7))
        driver.run()
        # The run waits past the last arrival while calls finish, so
        # the clock advances through most of the window.
        assert driver.clock.now() > 1.5

    def test_population_can_be_shared(self):
        from repro.loadgen.workload import TenantPopulation
        population = TenantPopulation(10, zipf_exponent=1.0)
        spec = LoadSpec(tenants=10, arrival_rate=65.0, duration=1.0, seed=7)
        a = LoadDriver(spec, population=population).run()
        b = LoadDriver(spec, population=population).run()
        assert a.to_dict() == b.to_dict()

    def test_the_shipped_bulkhead_decides(self):
        # A flood far over capacity: the bulkhead sheds most of it, and
        # no served call waited longer than its queue window.
        report = run_spec(LoadSpec(tenants=5, arrival_rate=1_000.0,
                                   duration=1.0, seed=7, discipline="fifo"))
        assert report.total_sheds > report.total_completions
        slowest = max(max(stats.latencies)
                      for stats in report.tenants.values() if stats.latencies)
        assert slowest < LIMIT.queue_timeout + 0.5
