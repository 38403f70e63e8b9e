"""Telemetry off is the null bundle, never a ``None``.

Every instrumented class starts out holding ``repro.obs``'s null
instruments (:data:`~repro.obs.NULL_INSTRUMENT`,
:data:`~repro.obs.NULL_TRACER`); binding a bundle swaps in real ones,
so no call site asks whether telemetry is on.  Each class runs the same
operations three ways: with no bundle, with ``Observability.disabled()``
and with a default bundle, whose counts are pinned.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro import RichClient, build_world
from repro.chaos.plan import ErrorBurst, FaultPlan, Window
from repro.core.admission import (
    AdmissionController,
    AdmissionLimit,
    AdmissionRejectedError,
)
from repro.core.batching import RequestCoalescer
from repro.core.caching import ServiceCache
from repro.core.circuitbreaker import CircuitBreakerRegistry, CircuitOpenError
from repro.core.hedging import HedgedInvoker
from repro.core.monitoring import InvocationRecord, ServiceMonitor
from repro.core.retry import FailoverInvoker, RetryPolicy
from repro.kb import PersonalKnowledgeBase
from repro.kb.pipeline import AnalysisPipeline
from repro.obs import (
    NULL_INSTRUMENT,
    NULL_METRICS,
    NULL_TRACER,
    Observability,
)
from repro.simnet.errors import RemoteServiceError, ServiceTimeoutError
from repro.simnet.latency import ConstantLatency
from repro.simnet.transport import Transport
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.graph import RDFS, Graph
from repro.stores.rdf.materialize import MaterializedGraph
from repro.stores.rdf.shard import ShardedGraph
from repro.tenancy.limits import TenantBudgetExceededError
from repro.tenancy.model import Tenant
from repro.tenancy.runtime import Tenancy
from repro.util.clock import ManualClock, run
from repro.util.deadline import Deadline, DeadlineExceededError

TEXT = "Acme Corp shares rallied in Paris."


def _bind_metrics(target, obs):
    if obs is not None:
        target.bind_metrics(obs.metrics)


def _bind_obs(target, obs):
    if obs is not None:
        target.bind_obs(obs)


def cache_case(obs):
    clock = ManualClock()
    cache = ServiceCache(capacity=2, ttl=1.0, clock=clock, stale_grace=1.0)
    _bind_metrics(cache, obs)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    cache.put("b", 2)
    cache.put("c", 3)             # evicts "a"
    cache.invalidate("b")
    clock.advance(1.5)
    cache.get_stale("c")          # expired, within grace: a stale serve
    clock.advance(1.0)
    cache.get("c")                # beyond grace: an expiration
    return [cache]


def monitor_case(obs):
    monitor = ServiceMonitor()
    _bind_metrics(monitor, obs)
    for success in (True, True, False):
        monitor.record(InvocationRecord(
            service="svc", operation="op", timestamp=0.0,
            latency=0.1 if success else None, cost=0.01, success=success))
    monitor.record_hit("svc")
    return [monitor]


def coalescer_case(obs):
    coalescer = RequestCoalescer()
    _bind_metrics(coalescer, obs)
    _, flight = coalescer.lead_or_join("k")
    coalescer.lead_or_join("k")
    coalescer.complete(flight, 1)
    coalescer.count_folded(2)
    _, flight = coalescer.lead_or_join("k2")
    coalescer.fail(flight, KeyboardInterrupt())
    return [coalescer]


def admission_case(obs):
    controller = AdmissionController(
        ManualClock(), default_limit=AdmissionLimit(max_concurrent=1, max_queue=0),
        fair=True)
    _bind_metrics(controller, obs)
    bulkhead = controller.bulkhead_for("svc")
    bulkhead.acquire(tenant="acme")
    with pytest.raises(AdmissionRejectedError):
        bulkhead.acquire(tenant="acme")
    bulkhead.release()
    return [controller, bulkhead]


def tenancy_case(obs):
    tenancy = Tenancy(clock=ManualClock())
    tenancy.registry.register(Tenant("acme", max_calls=2))
    _bind_metrics(tenancy, obs)
    tenant = tenancy.registry.resolve("acme")
    tenancy.settle(tenant, tenancy.authorize(tenant, 0.5), 0.25)
    tenancy.cancel(tenant, tenancy.authorize(tenant, 0.5))
    tenancy.settle(tenant, tenancy.authorize(tenant, 0.5), 0.25)
    with pytest.raises(TenantBudgetExceededError):
        tenancy.authorize(tenant, 0.5)
    return [tenancy]


def breaker_case(obs):
    breakers = CircuitBreakerRegistry(ManualClock(), failure_threshold=1,
                                      cooldown=5.0)
    _bind_metrics(breakers, obs)

    def boom():
        raise RemoteServiceError("a", "down", status=503)

    with pytest.raises(RemoteServiceError):
        breakers.call("a", boom)
    with pytest.raises(CircuitOpenError):
        breakers.call("a", lambda: 1)
    return [breakers, breakers.breaker("a")]


def transport_case(obs):
    transport = Transport(clock=ManualClock(),
                          network_latency=ConstantLatency(0.01))
    _bind_obs(transport, obs)

    def echo(payload):
        return payload, 0.05

    transport.call("svc", echo, {"x": 1})
    with pytest.raises(ServiceTimeoutError):
        transport.call("svc", echo, {"x": 1}, timeout=0.02)
    return [transport]


def failover_case(obs):
    failover = FailoverInvoker(RetryPolicy(max_attempts=2, backoff=0.1),
                               clock=ManualClock())
    _bind_obs(failover, obs)

    def once(service):
        if service == "down":
            raise RemoteServiceError(service, "down", status=503)
        return service

    assert failover.invoke(["down", "up"], once)[0] == "up"
    return [failover]


def chaos_case(obs):
    plan = FaultPlan((ErrorBurst(Window(0.0, 1.0), status=503),), seed=1)
    injector = plan.injector(obs)
    assert injector.error_status("svc", 0.5) == 503
    assert injector.error_status("svc", 2.0) is None
    return [injector]


def pipeline_case(obs):
    pipeline = AnalysisPipeline(obs=obs)
    pipeline.analyze_series("repro:c1", [0, 1, 2], [1.0, 2.0, 3.0])
    pipeline.infer()
    pipeline.analyze_series("repro:c2", [0, 1, 2], [3.0, 2.0, 1.0])
    pipeline.infer()
    return [pipeline]


def materialized_case(obs):
    view = MaterializedGraph(Graph(), obs=obs)
    view.add(("repro:Company", RDFS.subClassOf, "repro:Organization"))
    view.add(("repro:acme", "rdf:type", "repro:Company"))
    for _ in range(2):
        view.select([("?s", "rdf:type", "repro:Organization")])
    return [view]


def sqlite_case(obs):
    store = SqliteTripleStore(":memory:", obs=obs)
    store.add(("repro:acme", "repro:reading", 1.5))
    store.match("repro:acme", None, None)
    store.close()
    return [store]


def sharded_case(obs):
    sharded = ShardedGraph(2, obs=obs)
    for index in range(6):
        sharded.add((f"repro:s{index}", "repro:reading", float(index)))
    sharded.select([("?s", "repro:reading", "?v")])
    return [sharded]


def kb_case(obs):
    kb = PersonalKnowledgeBase(obs=obs)
    for index in range(3):
        kb.add_fact(f"repro:s{index}", "repro:reading", float(index),
                    disambiguate=False)
    kb.query([("?s", "repro:reading", "?v")])
    kb.enable_materialization()
    kb.query([("?s", "repro:reading", "?v")])
    return [kb, kb.pipeline, kb.view]


def client_case(obs):
    world = build_world(seed=7, corpus_size=5)
    client = RichClient(world.registry, obs=obs)
    try:
        client.invoke("lexica-prime", "analyze", {"text": TEXT})
        client.invoke("lexica-prime", "analyze", {"text": TEXT})  # cache hit
        client.invoke_many("glotta", "analyze",
                           [{"text": f"memo {index % 2}"} for index in range(4)])
        client.invoke_with_failover("nlu", "analyze", {"text": "IBM thrives."})
        with pytest.raises(DeadlineExceededError):
            client.invoke("glotta", "analyze", {"text": TEXT},
                          deadline=Deadline.after(client.clock, 0.0))
        kb = PersonalKnowledgeBase(client)
        kb.add_fact("repro:acme", "repro:reading", 1.0, disambiguate=False)
        kb.query([("?s", "repro:reading", "?v")])
    finally:
        client.close()
    return [client, client.cache, client.monitor, client.coalescer,
            client.failover, client.aio.coalescer, world.transport, kb,
            kb.pipeline]


def hedger_case(obs):
    world = build_world(seed=7, corpus_size=5)
    client = RichClient(world.registry, obs=obs)
    hedger = HedgedInvoker(client.aio)
    hedger.deadline_for = lambda service: 0.0
    try:
        run(hedger.ainvoke("nlu", "analyze", {"text": TEXT}, use_cache=False),
            client.clock)
    finally:
        client.close()
    return [hedger]


#: Each instrument's total under a default bundle (counters and gauges
#: summed over their label sets, histograms counted) and the spans
#: collected: the figures the guarded code produced.
DEFAULT_TOTALS = {
    cache_case: {
        "cache_evictions_total": 1, "cache_expirations_total": 1,
        "cache_hits_total": 1, "cache_invalidations_total": 1,
        "cache_misses_total": 2, "cache_stale_serves_total": 1, "spans": 0},
    monitor_case: {
        "sdk_invocation_latency_seconds": 2, "sdk_invocations_total": 4,
        "spans": 0},
    coalescer_case: {
        "coalesce_cancelled_total": 1, "coalesce_flights_total": 2,
        "coalesce_hits_total": 3, "spans": 0},
    admission_case: {
        "admission_admitted_total": 1, "admission_fair_grants_total": 0,
        "admission_inflight": 0, "admission_queue_depth": 0,
        "admission_queue_wait_seconds_total": 0, "admission_shed_total": 1,
        "spans": 0},
    tenancy_case: {
        "tenant_cost_total": 0.5, "tenant_rejected_total": 1,
        "tenant_requests_total": 3, "spans": 0},
    breaker_case: {
        "circuit_rejected_total": 1, "circuit_transitions_total": 1,
        "spans": 0},
    transport_case: {
        "transport_bytes_received_total": 7,
        "transport_bytes_sent_total": 14, "transport_calls_total": 2,
        "transport_offline_failures_total": 0, "transport_timeouts_total": 1,
        "spans": 2},
    failover_case: {
        "failover_exhausted_total": 1, "retry_backoff_seconds_total": 0.1,
        "spans": 3},
    chaos_case: {
        "chaos_faults_injected_total": 1, "spans": 0},
    pipeline_case: {
        "kb_facts_inferred_total": 3, "kb_infer_delta_total": 1,
        "kb_infer_full_total": 1, "kb_series_analyzed_total": 2, "spans": 4},
    materialized_case: {
        "rdf_materialize_delta_total": 2, "rdf_materialize_full_total": 1,
        "rdf_query_cache_hits_total": 1, "rdf_query_cache_misses_total": 1,
        "spans": 0},
    sqlite_case: {
        "storage_backend_ops_total": 2, "spans": 0},
    sharded_case: {
        "kb_shard_fanout_ms": 1, "kb_shard_scans_total": 2, "spans": 1},
    kb_case: {
        "kb_facts_inferred_total": 0, "kb_infer_delta_total": 0,
        "kb_infer_full_total": 0, "kb_queries_total": 2,
        "kb_series_analyzed_total": 0, "rdf_materialize_delta_total": 0,
        "rdf_materialize_full_total": 1, "rdf_query_cache_hits_total": 0,
        "rdf_query_cache_misses_total": 1, "spans": 2},
    client_case: {
        "batch_flushes_total": 1, "batch_items_total": 2, "batch_size": 1,
        "cache_evictions_total": 0, "cache_expirations_total": 0,
        "cache_hits_total": 1, "cache_invalidations_total": 0,
        "cache_misses_total": 7, "cache_stale_serves_total": 0,
        "coalesce_cancelled_total": 0, "coalesce_flights_total": 2,
        "coalesce_hits_total": 2, "deadline_expired_total": 1,
        "degraded_responses_total": 0, "failover_exhausted_total": 0,
        "kb_facts_inferred_total": 0, "kb_infer_delta_total": 0,
        "kb_infer_full_total": 0, "kb_queries_total": 1,
        "kb_series_analyzed_total": 0, "retry_backoff_seconds_total": 0,
        "sdk_invocation_latency_seconds": 4, "sdk_invocations_total": 5,
        "transport_bytes_received_total": 2074,
        "transport_bytes_sent_total": 205, "transport_calls_total": 3,
        "transport_offline_failures_total": 0, "transport_timeouts_total": 0,
        "spans": 9},
    hedger_case: {
        "batch_flushes_total": 0, "batch_items_total": 0, "batch_size": 0,
        "cache_evictions_total": 0, "cache_expirations_total": 0,
        "cache_hits_total": 0, "cache_invalidations_total": 0,
        "cache_misses_total": 0, "cache_stale_serves_total": 0,
        "coalesce_cancelled_total": 0, "coalesce_flights_total": 0,
        "coalesce_hits_total": 0, "deadline_expired_total": 0,
        "degraded_responses_total": 0, "failover_exhausted_total": 0,
        "hedge_requests_total": 1, "hedge_wins_total": 0,
        "hedges_fired_total": 1, "retry_backoff_seconds_total": 0,
        "sdk_invocation_latency_seconds": 1, "sdk_invocations_total": 1,
        "transport_bytes_received_total": 1099,
        "transport_bytes_sent_total": 79, "transport_calls_total": 2,
        "transport_offline_failures_total": 0, "transport_timeouts_total": 0,
        "spans": 4},
}

#: Classes that read their bundle off a client: "no bundle" there means
#: the client's own default one, which is the third mode.
TAKES_A_CLIENT = {client_case, hedger_case}

CASES = [(case, mode) for case in DEFAULT_TOTALS
         for mode in ("none", "disabled", "default")
         if not (mode == "none" and case in TAKES_A_CLIENT)]


def _totals(obs) -> dict:
    totals = {}
    for name in obs.metrics.names():
        metric = obs.metrics.get(name)
        if metric.kind == "histogram":
            totals[name] = sum(cell.histogram.total
                               for cell in metric.series().values())
        else:
            totals[name] = sum(metric.series().values())
    totals["spans"] = len(obs.collector)
    return totals


def _hooks(target):
    """The instrument-holding attributes of one instrumented object."""
    return {name: value for name, value in vars(target).items()
            if name.startswith(("_metric", "_gauge"))
            or name in ("tracer", "_tracer")}


@pytest.mark.parametrize(("case", "mode"), CASES, ids=[
    f"{case.__name__}-{mode}" for case, mode in CASES])
def test_each_instrumented_class_under_each_bundle(case, mode):
    obs = {"none": None, "disabled": Observability.disabled(),
           "default": Observability()}[mode]
    targets = case(obs)
    if mode == "default":
        assert _totals(obs) == pytest.approx(DEFAULT_TOTALS[case])
        return
    if obs is not None:
        assert obs.metrics.names() == []
        assert len(obs.collector) == 0
    assert NULL_METRICS.names() == []
    assert len(NULL_TRACER.collector) == 0
    for target in targets:
        hooks = _hooks(target)
        assert hooks, type(target).__name__
        for name, value in hooks.items():
            assert value in (NULL_INSTRUMENT, NULL_METRICS, NULL_TRACER), (
                type(target).__name__, name)


class TestNoGuardOutsideObs:
    """Only ``repro.obs`` decides that telemetry may be off."""

    HOOK_PREFIXES = ("_metric", "_gauge")
    HOOK_NAMES = ("tracer", "_tracer")

    @classmethod
    def is_hook(cls, node) -> bool:
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else "")
        return name.startswith(cls.HOOK_PREFIXES) or name in cls.HOOK_NAMES

    @staticmethod
    def is_none(node) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    @staticmethod
    def reads_enabled(node) -> bool:
        """``obs.enabled`` / ``self.obs.enabled`` / ``tracer.enabled``,
        or ``getattr(obs, "enabled", ...)``."""
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            owner = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "enabled"):
            owner = node.args[0]
        else:
            return False
        name = (owner.id if isinstance(owner, ast.Name)
                else owner.attr if isinstance(owner, ast.Attribute) else "")
        return name.endswith("obs") or name.endswith("tracer")

    def findings(self, tree) -> list[int]:
        lines = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if (any(map(self.is_hook, operands))
                        and any(map(self.is_none, operands))):
                    lines.append(node.lineno)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if self.is_none(node.value) and any(map(self.is_hook, targets)):
                    lines.append(node.lineno)
            elif self.reads_enabled(node):
                lines.append(node.lineno)
        return lines

    def test_no_module_outside_obs_asks_whether_telemetry_is_on(self):
        package = Path(repro.__file__).parent
        found = {}
        for path in sorted(package.rglob("*.py")):
            relative = path.relative_to(package)
            if relative.parts[0] == "obs":
                continue
            lines = self.findings(ast.parse(path.read_text(encoding="utf-8")))
            if lines:
                found[str(relative)] = lines
        assert found == {}

    @pytest.mark.parametrize("source", [
        "if self._metric_hits is not None:\n    pass",
        "self._tracer = None",
        "self._metric_a = self._metric_b = None",
        "if tracer is None:\n    pass",
        "if obs is not None and obs.enabled:\n    pass",
        "enabled = self.client.obs.enabled",
        "enabled = getattr(obs, 'enabled', False)",
    ])
    def test_the_guard_sees_each_spelling(self, source):
        assert self.findings(ast.parse(source))

    def test_a_parameter_default_is_not_a_guard(self):
        assert not self.findings(ast.parse(
            "obs = obs if obs is not None else NULL_OBS"))
