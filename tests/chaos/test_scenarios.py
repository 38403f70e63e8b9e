"""Tests for the chaos scenario suite (repro.chaos.scenarios).

The heart of the acceptance criteria lives here:

* with protections ON every applicable invariant passes;
* with protections OFF (the naive-caller control) the deadline and
  lost-update invariants demonstrably FAIL;
* same seed => byte-identical invariant reports;
* the scenario scaffold's timed call keeps counter-consistency honest.
"""

import pytest

from repro.chaos.invariants import check_all
from repro.chaos.scenarios import SCENARIOS, _Stage, run_all, run_scenario
from repro.core.invoker import RichClient

#: Scenario -> invariants its protections-off control must fail.
EXPECTED_CONTROL_FAILURES = {
    "error_burst": {"deadline-honored"},
    "latency_spike": {"deadline-honored"},
    "partition_sync": {"no-lost-updates"},
    "flapping_link": {"no-lost-updates"},
    "burst_partition": {"deadline-honored"},
    "clock_skew_sync": {"no-lost-updates"},
    "deadline_storm": {"deadline-honored"},
}


@pytest.fixture(scope="module")
def protected_results():
    return run_all(seed=7, protections=True)


@pytest.fixture(scope="module")
def control_results():
    return run_all(seed=7, protections=False)


class TestProtectionsOn:
    def test_suite_has_at_least_six_scenarios(self):
        assert len(SCENARIOS) >= 6

    def test_every_scenario_passes_every_applicable_invariant(
            self, protected_results):
        failing = {result.name: [failure.name for failure
                                 in result.report.failures()]
                   for result in protected_results if not result.passed}
        assert failing == {}

    def test_every_invariant_is_exercised_somewhere(self, protected_results):
        passed_names = {
            check.name
            for result in protected_results
            for check in result.report.results
            if check.applicable and check.passed}
        assert passed_names == {
            "deadline-honored", "no-lost-updates", "breaker-conformance",
            "bounded-staleness", "counter-consistency"}

    def test_faults_actually_fired(self, protected_results):
        by_name = {result.name: result for result in protected_results}
        assert by_name["error_burst"].report.injected["errors"] > 0
        assert by_name["latency_spike"].report.injected["latency"] > 0
        assert by_name["partition_sync"].report.injected["partitions"] > 0
        assert by_name["corrupt_payload"].report.injected["corruptions"] > 0

    def test_degradation_served_answers_under_fire(self, protected_results):
        by_name = {result.name: result for result in protected_results}
        assert by_name["error_burst"].metrics["degraded"] > 0
        assert by_name["burst_partition"].metrics["success_rate"] > 0.9

    def test_metrics_are_consistent(self, protected_results):
        for result in protected_results:
            metrics = result.metrics
            accounted = (metrics["successes"] + metrics["degraded"]
                         + metrics["failures"] + metrics["sheds"])
            assert accounted == metrics["requests"]
            assert 0.0 <= metrics["success_rate"] <= 1.0
            assert metrics["p99_latency"] >= 0.0


class TestProtectionsOffControl:
    def test_expected_invariants_fail(self, control_results):
        by_name = {result.name: result for result in control_results}
        for name, expected in EXPECTED_CONTROL_FAILURES.items():
            failed = {failure.name
                      for failure in by_name[name].report.failures()}
            assert expected <= failed, (
                f"{name}: expected {expected} to fail, got {failed}")

    def test_controls_never_fail_counter_consistency(self, control_results):
        # The control is naive, not mis-instrumented: its ledger still
        # balances, which is what isolates the deadline/lost-update
        # failures as genuine.
        for result in control_results:
            failed = {failure.name for failure in result.report.failures()}
            assert "counter-consistency" not in failed


class TestDeterminism:
    def test_same_seed_renders_byte_identical_reports(self):
        first = [result.render() for result in run_all(seed=7)]
        second = [result.render() for result in run_all(seed=7)]
        assert first == second

    def test_different_seed_changes_at_least_one_report(self):
        baseline = [result.render() for result in run_all(seed=7)]
        other = [result.render() for result in run_all(seed=13)]
        assert baseline != other

    def test_control_replays_byte_identically_too(self):
        first = run_scenario("partition_sync", seed=7, protections=False)
        second = run_scenario("partition_sync", seed=7, protections=False)
        assert first.render() == second.render()


class TestRunScenario:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("not-a-scenario")

    def test_single_scenario_roundtrip(self):
        result = run_scenario("deadline_storm", seed=7)
        assert result.passed
        assert result.name == "deadline_storm"
        assert "deadline_storm" in result.render()


class TestTimedCall:
    """The scaffold logs ``issue`` and the outcome as two ledger events."""

    @staticmethod
    def _counter_consistency(run):
        results = {result.name: result for result in check_all(run).results}
        return results["counter-consistency"]

    def test_unclassified_call_fails_counter_consistency(self):
        stage = _Stage("unclassified", seed=7, protections=True)
        client = RichClient(stage.world.registry)
        with stage.drive(client):
            with stage.call() as call:
                call.served(client.invoke("glotta", "analyze",
                                          {"text": "IBM thrives."}))
            with stage.call():
                assert stage.run.requests == 2  # issued on entry
                client.invoke("glotta", "analyze", {"text": "Globex grows."})
        assert len(stage.run.calls) == 1
        verdict = self._counter_consistency(stage.run)
        assert verdict.verdict == "FAIL"
        assert verdict.detail == "2 issued but 1 accounted (1+0+0+0)"

    def test_raising_call_is_issued_but_never_recorded(self):
        stage = _Stage("raises", seed=7, protections=True)
        with pytest.raises(RuntimeError):
            with stage.call() as call:
                call.classify("success")
                raise RuntimeError("the body never finished")
        assert (stage.run.requests, stage.run.calls) == (1, [])
        assert self._counter_consistency(stage.run).verdict == "FAIL"

    def test_classified_call_records_its_budget(self):
        stage = _Stage("budgeted", seed=7, protections=True)
        stage.advance_to(1.25)
        with stage.call(0.5) as call:
            assert stage.run.calls == []  # recorded only on exit
            call.classify("shed", "queue full")
        (recorded,) = stage.run.calls
        assert (recorded.kind, recorded.started, recorded.ended,
                recorded.deadline_expires, recorded.detail) == (
            "shed", 1.25, 1.25, 1.75, "queue full")
        assert self._counter_consistency(stage.run).verdict == "PASS"
