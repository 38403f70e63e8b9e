"""Tests for the service framework: cost, failure, quota, invocation."""

import pytest

from repro.services.base import (
    FreeCost,
    NeverFails,
    OutageWindows,
    PerCallCost,
    Quota,
    QuotaExceededError,
    RandomFailures,
    ScriptedFailures,
    ServiceRegistry,
    ServiceRequest,
    SimulatedService,
    SizeBasedCost,
)
from repro.simnet.errors import RemoteServiceError
from repro.simnet.latency import ConstantLatency, LogNormalLatency
from repro.simnet.transport import Transport
from repro.util.clock import ManualClock
from repro.util.errors import NotFoundError
from repro.util.rng import SeededRng


class EchoService(SimulatedService):
    """Minimal concrete service for framework tests."""

    def _handle(self, request: ServiceRequest):
        if request.operation == "fail":
            raise RemoteServiceError(self.name, "requested failure", status=400)
        return {"echo": dict(request.payload)}


@pytest.fixture
def service(transport):
    return EchoService("echo", "test", transport, latency=ConstantLatency(0.05))


class TestCostModels:
    def test_free(self):
        assert FreeCost().cost(ServiceRequest("op")) == 0.0

    def test_per_call(self):
        assert PerCallCost(0.01).cost(ServiceRequest("op")) == 0.01

    def test_per_call_rejects_negative(self):
        with pytest.raises(ValueError):
            PerCallCost(-1.0)

    def test_size_based_grows_with_payload(self):
        model = SizeBasedCost(fee=0.001, per_kilobyte=0.01)
        small = model.cost(ServiceRequest("op", {"v": "x"}))
        large = model.cost(ServiceRequest("op", {"v": "x" * 10_000}))
        assert large > small > 0.001


class TestFailureModels:
    def test_never_fails(self, rng):
        assert not NeverFails().should_fail(0, 0.0, rng)

    def test_random_failures_rate(self, rng):
        model = RandomFailures(0.5)
        outcomes = [model.should_fail(i, 0.0, rng) for i in range(2000)]
        assert 0.4 < sum(outcomes) / 2000 < 0.6

    def test_random_failures_bounds(self):
        with pytest.raises(ValueError):
            RandomFailures(1.5)

    def test_scripted_failures(self, rng):
        model = ScriptedFailures({0, 2})
        assert model.should_fail(0, 0.0, rng)
        assert not model.should_fail(1, 0.0, rng)
        assert model.should_fail(2, 0.0, rng)

    def test_outage_windows(self, rng):
        model = OutageWindows([(10.0, 20.0)])
        assert not model.should_fail(0, 5.0, rng)
        assert model.should_fail(0, 10.0, rng)
        assert model.should_fail(0, 19.9, rng)
        assert not model.should_fail(0, 20.0, rng)

    def test_outage_window_validated(self):
        with pytest.raises(ValueError):
            OutageWindows([(5.0, 1.0)])


class TestQuota:
    def test_consume_until_limit(self):
        quota = Quota(limit=2, window=100.0)
        assert quota.consume(0.0)
        assert quota.consume(1.0)
        assert not quota.consume(2.0)

    def test_window_expiry_frees_slots(self):
        quota = Quota(limit=1, window=10.0)
        assert quota.consume(0.0)
        assert not quota.consume(5.0)
        assert quota.consume(11.0)

    def test_remaining(self):
        quota = Quota(limit=3, window=10.0)
        quota.consume(0.0)
        assert quota.remaining(0.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Quota(limit=0)
        with pytest.raises(ValueError):
            Quota(limit=1, window=0)


class TestSimulatedService:
    def test_invoke_returns_response(self, service):
        response = service.invoke("echo", {"x": 1})
        assert response.value == {"echo": {"x": 1}}
        assert response.latency == pytest.approx(0.05)
        assert response.service_name == "echo"

    def test_latency_charged_to_shared_clock(self, service, clock):
        service.invoke("echo", {})
        assert clock.now() == pytest.approx(0.05)

    def test_cost_billed(self, transport):
        service = EchoService("paid", "test", transport, cost_model=PerCallCost(0.02))
        response = service.invoke("echo", {})
        assert response.cost == 0.02
        assert service.stats.revenue == pytest.approx(0.02)

    def test_failures_injected(self, transport):
        service = EchoService("flaky", "test", transport,
                              failures=ScriptedFailures({0}))
        with pytest.raises(RemoteServiceError):
            service.invoke("echo", {})
        response = service.invoke("echo", {})  # second call succeeds
        assert response.value == {"echo": {}}
        assert service.stats.failures == 1

    def test_quota_enforced(self, transport):
        service = EchoService("limited", "test", transport,
                              quota=Quota(limit=1, window=1000.0))
        service.invoke("echo", {})
        with pytest.raises(QuotaExceededError):
            service.invoke("echo", {})
        assert service.stats.quota_rejections == 1

    def test_default_latency_params_expose_size(self, service):
        params = service.latency_params(ServiceRequest("echo", {"v": "abc"}))
        assert params["size"] > 0

    def test_application_error_propagates(self, service):
        with pytest.raises(RemoteServiceError) as excinfo:
            service.invoke("fail", {})
        assert excinfo.value.status == 400

    def test_stats_count_calls(self, service):
        service.invoke("echo", {})
        service.invoke("echo", {})
        assert service.stats.calls == 2


class MoodyService(SimulatedService):
    """Each payload picks its own fate, so one batch can mix them."""

    def _handle(self, request: ServiceRequest):
        mode = request.payload.get("mode")
        if mode == "bad":
            raise RemoteServiceError(self.name, "bad request", status=400)
        if mode == "crash":
            raise RuntimeError("boom")
        return {"echo": request.payload["n"]}


class TestOneServePath:
    """``invoke`` and ``invoke_batch`` reach the same per-request path.

    The same requests are served one by one on one service and as one
    batch on its twin: every item must meet the same quota, the same
    failure-model verdict, the same handler outcome and the same bill,
    and the service RNG must have been drawn from identically — which
    is what keeps simulated time independent of how a burst was shaped.
    """

    PAYLOADS = [{"n": 0}, {"n": 1}, {"n": 2, "mode": "bad"}, {"n": 3},
                {"n": 4, "mode": "crash"}, {"n": 5}, {"n": 6}, {"n": 7}]

    @staticmethod
    def twin(failures):
        service = MoodyService(
            "moody", "test", Transport(clock=ManualClock(), rng=SeededRng(123)),
            latency=LogNormalLatency(median=0.05, sigma=0.4),
            failures=failures, cost_model=SizeBasedCost(0.01, 0.5),
            quota=Quota(limit=len(TestOneServePath.PAYLOADS) - 1,
                        window=1000.0))
        service.batch_max_size = 16
        return service

    @staticmethod
    def one_by_one(service, payloads):
        """(value, cost, status) per request; a handler crash propagates
        raw from a single call, the batch endpoint reports it as 500."""
        outcomes = []
        for payload in payloads:
            try:
                response = service.invoke("serve", payload)
                outcomes.append((response.value, response.cost, None))
            except RemoteServiceError as error:
                outcomes.append((error.message, None, error.status))
            except RuntimeError as error:
                outcomes.append((str(error), None, 500))
        return outcomes

    @staticmethod
    def as_a_batch(service, payloads):
        return [(item.message, None, item.status)
                if isinstance(item, RemoteServiceError)
                else (item.value, item.cost, None)
                for item in service.invoke_batch("serve", payloads)]

    @pytest.mark.parametrize("failures, statuses", [
        # injected failure, the handler's 400, a crash, quota spent on the last
        (lambda: ScriptedFailures({1}), [None, 500, 400, None, 500, None, None, 429]),
        (lambda: RandomFailures(0.4), None),   # draws from the service RNG
    ], ids=["scripted", "random"])
    def test_single_and_batch_agree_item_for_item(self, failures, statuses):
        single, batched = self.twin(failures()), self.twin(failures())
        singles = self.one_by_one(single, self.PAYLOADS)
        assert self.as_a_batch(batched, self.PAYLOADS) == singles
        if statuses is not None:
            assert [status for _, _, status in singles] == statuses
        assert batched.stats == single.stats
        assert batched.stats.calls == len(self.PAYLOADS)
        assert batched._call_index == single._call_index
        assert batched._rng._random.getstate() == single._rng._random.getstate()


class KeepingService(SimulatedService):
    """Keeps every payload its handler was given."""

    def __init__(self, transport):
        super().__init__("keeper", "test", transport)
        self.batch_max_size = 4
        self.seen = []

    def _handle(self, request: ServiceRequest):
        self.seen.append(request.payload)
        return {"ok": True}


class TestServesTheWireCopy:
    """The handler gets the request that crossed the wire: a decoded copy
    that shares no object with the caller and holds only JSON types."""

    @staticmethod
    def payload():
        return {"value": {"n": [1, 2]}, "pair": (1, 2), 3: "int key"}

    @pytest.mark.parametrize("endpoint", ["invoke", "invoke_batch"])
    def test_handler_never_sees_the_callers_objects(self, transport, endpoint):
        service = KeepingService(transport)
        sent = self.payload()
        if endpoint == "invoke":
            service.invoke("keep", sent)
        else:
            service.invoke_batch("keep", [sent, sent])
        for seen in service.seen:
            assert seen == {"value": {"n": [1, 2]}, "pair": [1, 2],
                            "3": "int key"}
            assert seen is not sent and seen["value"] is not sent["value"]
        sent["value"]["n"].append(99)
        assert all(seen["value"]["n"] == [1, 2] for seen in service.seen)


class TestServiceRegistry:
    def test_register_and_get(self, service):
        registry = ServiceRegistry([service])
        assert registry.get("echo") is service
        assert "echo" in registry
        assert len(registry) == 1

    def test_duplicate_rejected(self, service):
        registry = ServiceRegistry([service])
        with pytest.raises(ValueError):
            registry.register(service)

    def test_unknown_service(self):
        with pytest.raises(NotFoundError):
            ServiceRegistry().get("ghost")

    def test_services_of_kind(self, transport):
        first = EchoService("a", "kind1", transport)
        second = EchoService("b", "kind1", transport)
        third = EchoService("c", "kind2", transport)
        registry = ServiceRegistry([first, second, third])
        assert {service.name for service in registry.services_of_kind("kind1")} == {"a", "b"}
        assert registry.kinds() == {"kind1", "kind2"}
