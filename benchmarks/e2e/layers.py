"""Per-layer metrics: where the wrappers go and what is computed from them.

The layers are this repository's modules.  :class:`LayerProbe` installs
the tracer's timing wrappers on the objects a workload built, from this
side of each layer's public functions, and reads the layer's own
counters when the round ends.  :data:`PER_LAYER` names every metric the
traced run reports (every workload reports all of them; a layer that is
not on a workload's path reads 0) and how it is derived.

Time metrics are mean *self* time per call of the named function(s):
span duration minus child spans.  Counts are exact totals for one round.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns

import repro.core.aio.invoker as aio_invoker_module
import repro.core.invoker as invoker_module
import repro.kb.pipeline as pipeline_module
import repro.stores.rdf.plan as plan_module
from repro import Observability
from repro.core.aggregation import DocumentSetAggregator
from repro.core.aio import LoopRunner
from repro.obs import names as obs_names
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf import ShardedGraph
from repro.stores.rdf import query as query_module

from benchmarks.e2e import RESULTS_DIR
from benchmarks.e2e.harness import EXACT_KEYS, BenchmarkError, run_round
from benchmarks.e2e.tracer import ROOT_SPAN, Tracer, layer_of
from benchmarks.e2e.workloads import BURST_SERVICE, canonical_rows, query_kwargs

SERVICE_LAYERS = {"nlu": "services.nlu", "search": "services.search",
                  "web": "services.web", "knowledge": "services.datasources",
                  "marketdata": "services.datasources",
                  "geodata": "services.datasources"}

#: name, unit, better, how.  ``how`` is one of
#:   ("calls", span)            total calls of the span
#:   ("mean", span, ...)        self time of the spans / calls of the first
#:   ("extra", key)             read from the round's counters / extras
PER_LAYER = [
    {"name": name, "unit": unit, "better": better, "how": how}
    for name, unit, better, how in [
        ("sim_s_per_op", "sim-s", "lower", ("extra", "sim_s_per_op")),
        ("spend_usd_per_kop", "usd", "lower", ("extra", "spend_usd_per_kop")),
        ("services.nlu.calls", "count", "lower", ("calls", "services.nlu:handle")),
        ("services.nlu.analyze_ms", "ms", "lower", ("mean", "services.nlu:analyze")),
        ("services.nlu.extract_entities_ms", "ms", "lower",
         ("mean", "services.nlu:extract_entities")),
        ("services.search.calls", "count", "lower",
         ("calls", "services.search:handle")),
        ("services.search.query_ms", "ms", "lower", ("mean", "services.search:handle")),
        ("services.web.fetch_us", "us", "lower", ("mean", "services.web:handle")),
        ("services.datasources.lookup_us", "us", "lower",
         ("mean", "services.datasources:handle")),
        ("simnet.transport.calls_per_op", "count", "lower",
         ("extra", "transport_calls_per_op")),
        ("simnet.transport.self_us", "us", "lower", ("mean", "simnet.transport:call")),
        ("core.invoker.calls", "count", "lower", ("calls", "core.invoker:invoke")),
        ("core.invoker.self_us", "us", "lower",
         ("mean", "core.invoker:invoke", "core.invoker:cached_result")),
        ("core.monitoring.record_us", "us", "lower",
         ("mean", "core.monitoring:record")),
        ("core.quota.reserve_settle_us", "us", "lower",
         ("mean", "core.quota:reserve", "core.quota:settle", "core.quota:cancel")),
        ("core.caching.lookups", "count", "lower", ("extra", "cache_lookups")),
        ("core.caching.hit_ratio", "ratio", "higher", ("extra", "cache_hit_ratio")),
        ("core.caching.evictions", "count", "lower", ("extra", "cache_evictions")),
        ("core.caching.key_us", "us", "lower", ("mean", "core.caching:key")),
        ("core.caching.get_us", "us", "lower", ("mean", "core.caching:get")),
        ("core.caching.put_us", "us", "lower", ("mean", "core.caching:put")),
        ("core.ranking.calls", "count", "lower", ("calls", "core.ranking:rank")),
        ("core.ranking.best_service_us", "us", "lower",
         ("mean", "core.ranking:rank", "core.ranking:rank_services",
          "core.ranking:best_service")),
        ("core.gateway.envelopes", "count", "lower",
         ("calls", "core.gateway:handle_json")),
        ("core.gateway.self_us", "us", "lower", ("mean", "core.gateway:handle_json")),
        ("core.gateway.error_envelopes", "count", "lower",
         ("extra", "error_envelopes")),
        ("tenancy.reserve_settle_us", "us", "lower",
         ("mean", "tenancy:authorize", "tenancy:settle", "tenancy:cancel")),
        ("tenancy.rejected", "count", "lower", ("extra", "tenancy_rejected")),
        ("core.batching.per_request_us", "us", "lower",
         ("extra", "sync_per_request_us")),
        ("core.batching.folded_share", "ratio", "higher",
         ("extra", "sync_folded_share")),
        ("core.batching.mean_batch_size", "count", "higher",
         ("extra", "sync_mean_batch")),
        ("core.aio.invoker.per_request_us", "us", "lower",
         ("extra", "async_per_request_us")),
        ("core.aio.batching.folded_share", "ratio", "higher",
         ("extra", "async_folded_share")),
        ("core.aio.batching.mean_batch_size", "count", "higher",
         ("extra", "async_mean_batch")),
        ("core.aio.admission.admitted", "count", "higher", ("extra", "async_batches")),
        ("core.aio.admission.shed", "count", "lower", ("extra", "async_shed")),
        ("core.aio.runner.hop_us", "us", "lower", ("extra", "runner_hop_us")),
        ("core.retry.retries", "count", "lower", ("extra", "retries")),
        ("core.retry.failovers", "count", "lower", ("extra", "failovers")),
        ("core.websearch.self_ms", "ms", "lower",
         ("mean", "core.websearch:analyze_search_results", "core.websearch:search",
          "core.websearch:fetch", "core.websearch:analyze_url")),
        ("core.aggregation.add_analysis_us", "us", "lower",
         ("mean", "core.aggregation:add_analysis")),
        ("kb.disambiguation.resolve_us", "us", "lower",
         ("mean", "kb.disambiguation:resolve")),
        ("analytics.regression.fit_us", "us", "lower",
         ("mean", "analytics.regression:fit")),
        ("kb.knowledge_base.add_fact_us", "us", "lower",
         ("mean", "kb.knowledge_base:add_fact")),
        ("kb.knowledge_base.query_ms", "ms", "lower",
         ("mean", "kb.knowledge_base:query")),
        ("kb.pipeline.analyze_series_us", "us", "lower",
         ("mean", "kb.pipeline:analyze_series")),
        ("kb.pipeline.infer_ms", "ms", "lower", ("mean", "kb.pipeline:infer")),
        ("kb.pipeline.delta_share", "ratio", "higher", ("extra", "delta_share")),
        ("kb.pipeline.facts_derived", "count", "higher", ("extra", "facts_derived")),
        ("stores.rdf.rules.forward_ms", "ms", "lower",
         ("mean", "stores.rdf.rules:forward")),
        ("stores.rdf.rules.forward_delta_ms", "ms", "lower",
         ("mean", "stores.rdf.rules:forward_delta")),
        ("stores.rdf.plan.build_us", "us", "lower", ("mean", "stores.rdf.plan:build")),
        ("stores.rdf.query.select_ms", "ms", "lower",
         ("mean", "stores.rdf.query:select")),
        ("stores.rdf.query.rows_returned", "count", "lower",
         ("extra", "rows_returned")),
        ("stores.rdf.graph.match_us", "us", "lower",
         ("mean", "stores.rdf.graph:match")),
        ("stores.rdf.graph.add_us", "us", "lower", ("mean", "stores.rdf.graph:add")),
        ("stores.rdf.graph.remove_us", "us", "lower",
         ("mean", "stores.rdf.graph:remove")),
        ("stores.backends.sqlite.add_us", "us", "lower",
         ("mean", "stores.backends.sqlite:add")),
        ("stores.backends.sqlite.match_us", "us", "lower",
         ("mean", "stores.backends.sqlite:match")),
        ("stores.backends.sqlite.scan_numeric_ms", "ms", "lower",
         ("mean", "stores.backends.sqlite:scan_numeric")),
        ("stores.backends.sqlite.disk_bytes_per_triple", "B", "lower",
         ("extra", "disk_bytes_per_triple")),
        ("stores.rdf.shard.select_ms", "ms", "lower",
         ("mean", "stores.rdf.shard:select")),
        ("stores.rdf.shard.fanout_ratio", "ratio", "lower", ("extra", "fanout_ratio")),
        ("obs.spans_per_op", "count", "lower", ("extra", "obs_spans_per_op")),
        ("obs.enabled_overhead_share", "ratio", "lower",
         ("extra", "obs_overhead_share")),
        ("trace.overhead_share", "ratio", "lower", ("extra", "trace_overhead_share")),
        ("trace.unattributed_share", "ratio", "lower",
         ("extra", "trace_unattributed_share")),
    ]
]

UNIT_NS = {"ms": 1e6, "us": 1e3}


class LayerProbe:
    """Installs the wrappers on one round's state and reads its layers."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.retries = 0
        self.failovers = 0

    # -- installing --------------------------------------------------------

    def attach(self, state) -> None:
        install = self.tracer.install
        world = getattr(state, "world", None)
        client = getattr(state, "client", None)
        kb = getattr(state, "kb", None)
        if world is not None:
            self._attach_world(world)
        if client is not None:
            self._attach_client(client, with_aio=hasattr(state, "loop"))
        if hasattr(state, "gateway"):
            install(state.gateway, "handle_json", "core.gateway:handle_json")
        if hasattr(state, "analyzer"):
            for method in ("analyze_search_results", "search", "fetch",
                           "analyze_url"):
                install(state.analyzer, method, f"core.websearch:{method}")
            # The analyzer builds its aggregator itself, so the class is
            # wrapped, not an instance.
            install(DocumentSetAggregator, "add_analysis",
                    "core.aggregation:add_analysis")
            install(DocumentSetAggregator, "entity_sentiment_report",
                    "core.aggregation:entity_sentiment_report")
        if kb is not None:
            self._attach_kb(kb)

    def _attach_world(self, world) -> None:
        install = self.tracer.install
        install(world.transport, "call", "simnet.transport:call")
        install(world.transport, "acall", "simnet.transport:call")
        for service in world.registry:
            layer = SERVICE_LAYERS.get(service.kind, "services.other")
            # _handle is where the wire ends and the engine starts; it
            # separates transport self time from service work.
            install(service, "_handle", f"{layer}:handle")
            for method in ("invoke", "invoke_batch", "ainvoke", "ainvoke_batch"):
                install(service, method, f"services.base:{method}")
            if service.kind == "nlu":
                for method in ("analyze", "extract_entities", "disambiguate"):
                    install(service.engine, method, f"services.nlu:{method}")

    def _attach_client(self, client, with_aio: bool) -> None:
        install = self.tracer.install
        install(client, "invoke", "core.invoker:invoke")
        install(client, "cached_result", "core.invoker:cached_result")
        install(client, "invoke_many", "core.batching:invoke_many")
        install(client, "invoke_batched", "core.batching:invoke_batched")
        install(client, "invoke_with_failover", "core.retry:invoke_with_failover")
        install(client, "rank_services", "core.ranking:rank_services")
        install(client, "best_service", "core.ranking:best_service")
        install(client.ranker, "rank", "core.ranking:rank")
        install(client.cache, "get", "core.caching:get")
        install(client.cache, "put", "core.caching:put")
        install(invoker_module, "cache_key", "core.caching:key")
        install(client.monitor, "record", "core.monitoring:record")
        for method in ("reserve", "settle", "cancel", "record", "check"):
            install(client.quota, method, f"core.quota:{method}")
        if client.tenancy is not None:
            for method in ("authorize", "settle", "cancel"):
                install(client.tenancy, method, f"tenancy:{method}")
        if client.admission is not None:
            gate = client.admission.bulkhead_for(BURST_SERVICE)
            install(gate, "acquire", "core.admission:acquire")
            install(gate, "release", "core.admission:release")
        self._count_failover(client.failover)
        if with_aio:
            aio = client.aio
            install(aio, "ainvoke_many", "core.aio.invoker:ainvoke_many")
            install(aio, "ainvoke_batched", "core.aio.batching:ainvoke_batched")
            install(aio_invoker_module, "cache_key", "core.caching:key")
            gate = aio.admission.bulkhead_for(BURST_SERVICE)
            install(gate, "acquire", "core.aio.admission:acquire")
            install(gate, "release", "core.aio.admission:release")

    def _count_failover(self, failover) -> None:
        """Count retries and failovers from each walk's attempt log."""
        walk = failover.invoke

        def counted(*args, **kwargs):
            served_by, result, attempts = walk(*args, **kwargs)
            services = {log.service for log in attempts}
            self.failovers += len(services) - 1
            self.retries += len(attempts) - len(services)
            return served_by, result, attempts

        self.tracer.install(failover, "invoke", "core.retry:failover",
                            function=counted)

    def _attach_kb(self, kb) -> None:
        install = self.tracer.install
        for method in ("add_fact", "query", "ingest_entity"):
            install(kb, method, f"kb.knowledge_base:{method}")
        if kb.disambiguator is not None:
            install(kb.disambiguator, "resolve", "kb.disambiguation:resolve")
        install(kb.pipeline, "analyze_series", "kb.pipeline:analyze_series")
        install(kb.pipeline, "infer", "kb.pipeline:infer")
        install(kb.pipeline.reasoner, "forward", "stores.rdf.rules:forward")
        install(kb.pipeline.reasoner, "forward_delta",
                "stores.rdf.rules:forward_delta")
        install(pipeline_module, "LinearRegression", "analytics.regression:fit")
        self.attach_store(kb.graph)

    def attach_store(self, graph) -> None:
        """Wrap a triple store: the in-memory graph or the shard router."""
        install = self.tracer.install
        if isinstance(graph, ShardedGraph):
            for method in ("add", "add_all", "remove", "match", "select"):
                install(graph, method, f"stores.rdf.shard:{method}")
            for backend in graph.shards:
                self.attach_backend(backend)
            return
        for method in ("add", "add_all", "remove", "match"):
            install(graph, method, f"stores.rdf.graph:{method}")
        # PersonalKnowledgeBase.query calls ``graph.select`` when the
        # store has one; giving the plain graph one routes the module
        # function through a wrapper.  select() looks build_plan up in
        # its module on every call, so that attribute is wrapped too.
        install(graph, "select", "stores.rdf.query:select",
                function=functools.partial(query_module.select, graph))
        install(plan_module, "build_plan", "stores.rdf.plan:build")

    def attach_backend(self, backend) -> None:
        for method in ("add", "add_all", "remove", "match", "scan_numeric"):
            self.tracer.install(backend, method,
                                f"stores.backends.sqlite:{method}")

    def detach(self) -> None:
        self.tracer.uninstall()

    # -- reading -----------------------------------------------------------

    def collect(self, state) -> dict:
        """Layer counters the state still holds at the end of the round."""
        extras = {"retries": self.retries, "failovers": self.failovers}
        client = getattr(state, "client", None)
        if client is not None:
            collector = client.obs.collector
            extras["obs_spans"] = len(collector) + collector.dropped
            rejected = client.obs.metrics.get(obs_names.TENANT_REJECTED_TOTAL)
            extras["tenancy_rejected"] = (
                sum(rejected.series().values()) if rejected is not None else 0)
        return extras


def runner_hop_us(hops: int = 2000) -> float:
    """A no-op coroutine through ``LoopRunner.run``: the sync facade's
    cost per call once it runs on the asyncio core."""
    async def noop() -> None:
        return None

    runner = LoopRunner()
    try:
        runner.run(noop())
        begin = perf_counter_ns()
        for _ in range(hops):
            runner.run(noop())
        return (perf_counter_ns() - begin) / hops / 1e3
    finally:
        runner.shutdown()


def replay_backends(state, every: int = 8) -> tuple[dict, float, int]:
    """Replay part of the kb-query suite on the other storage engines.

    Builds a single ``SqliteTripleStore(":memory:")`` and a 4-shard
    SQLite ``ShardedGraph`` from the workload's closed store, answers
    every ``every``-th query on each and compares with the in-memory
    graph's answer.  Returns the stores' traced totals, the wall time
    of the 4-shard answers over the single store's, and the number of
    queries whose answers differed.
    """
    tracer = Tracer(span_ops=0)
    probe = LayerProbe(tracer)
    triples = state.kb.graph.to_list()
    single = SqliteTripleStore(":memory:")
    sharded = ShardedGraph(shards=4,
                           backend_factory=lambda index: SqliteTripleStore(":memory:"))
    mismatches = 0
    single_ns = sharded_ns = 0
    try:
        single.add_all(tuple(triple) for triple in triples)
        sharded.add_all(tuple(triple) for triple in triples)
        probe.attach_backend(single)
        probe.attach_store(sharded)
        for step in state.steps[::every]:
            kwargs = query_kwargs(step)
            expected = canonical_rows(state.kb.query(step["patterns"], **kwargs))
            begin = perf_counter_ns()
            from_single = query_module.select(single, step["patterns"], **kwargs)
            middle = perf_counter_ns()
            from_sharded = sharded.select(step["patterns"], **kwargs)
            sharded_ns += perf_counter_ns() - middle
            single_ns += middle - begin
            for answer in (from_single, from_sharded):
                mismatches += canonical_rows(answer) != expected
    finally:
        probe.detach()
        sharded.close()
        single.close()
    return tracer.totals()["all"], sharded_ns / single_ns, mismatches


def _mean(totals: dict, spans: list[str], unit: str) -> float:
    """Self time of ``spans`` per call of the first, in ``unit``."""
    calls = totals["calls"].get(spans[0], 0)
    if not calls:
        return 0.0
    self_ns = sum(totals["self_ns"].get(span, 0) for span in spans)
    return self_ns / calls / UNIT_NS[unit]


def layer_shares(share_by_layer: dict) -> list[tuple[str, float]]:
    """Layers by share of the traced op wall, largest first."""
    return sorted(share_by_layer.items(), key=lambda item: -item[1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


BURST_CORES = {
    "sync": ("core.batching:invoke_many", "core.batching:invoke_batched",
             "core.admission:acquire", "core.admission:release"),
    "async": ("core.aio.invoker:ainvoke_many",
              "core.aio.batching:ainvoke_batched",
              "core.aio.admission:acquire", "core.aio.admission:release"),
}


def _burst_extras(counters: dict, self_ns: dict) -> dict:
    """Per-core batching figures of a burst-batch round."""
    requests = counters["requests_per_core"]
    extras = {"async_batches": counters["async_batches"],
              "async_shed": counters["async_shed"]}
    for core, spans in BURST_CORES.items():
        folded = counters[f"{core}_folded"]
        extras[f"{core}_per_request_us"] = (
            sum(self_ns.get(span, 0) for span in spans) / requests / 1e3)
        extras[f"{core}_folded_share"] = folded / requests
        extras[f"{core}_mean_batch"] = ((requests - folded)
                                        / counters[f"{core}_batches"])
    return extras


def _obs_overhead_share(workload, seed: int, plain_wall_s: float) -> float:
    """Default client over ``Observability.disabled()``, minus one.

    The difference is a few percent, so each side is the best of two
    rounds rather than one possibly disturbed round.
    """
    with_obs = min(plain_wall_s, run_round(workload, seed)["wall_s"])
    without = min(
        run_round(workload, seed, obs=Observability.disabled())["wall_s"]
        for _ in range(2))
    return with_obs / without - 1.0


def traced_run(workload, seed: int) -> dict:
    """The per-layer run: one plain round, one traced round, extras."""
    plain = run_round(workload, seed)
    tracer = Tracer()
    traced = run_round(workload, seed, probe=LayerProbe(tracer))
    for key in EXACT_KEYS:
        if traced[key] != plain[key]:
            raise BenchmarkError(
                f"{workload.name}: tracing changed {key}: "
                f"{traced[key]!r} != {plain[key]!r}")
    totals = tracer.totals()
    everywhere, driver = totals["all"], totals["driver"]
    counters = traced["counters"]
    ops = traced["ops"]
    op_wall_ns = sum(driver["self_ns"].values())
    failed = traced["failed"] + traced["failed_checks"]

    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    extras = dict(
        traced["extras"],
        sim_s_per_op=traced["sim_s_per_op"],
        spend_usd_per_kop=traced["spend_usd_per_kop"],
        transport_calls_per_op=everywhere["calls"].get(
            "simnet.transport:call", 0) / ops,
        cache_lookups=lookups,
        cache_hit_ratio=_ratio(counters.get("cache_hits", 0), lookups),
        cache_evictions=counters.get("cache_evictions", 0),
        error_envelopes=counters.get("error_envelopes", 0),
        facts_derived=counters.get("facts_derived", 0),
        rows_returned=counters.get("rows_returned", 0),
        delta_share=_ratio(counters.get("delta_infers", 0),
                           counters.get("infer_calls", 0)),
        disk_bytes_per_triple=_ratio(counters.get("disk_bytes", 0),
                                     counters.get("triples", 0)),
        obs_spans_per_op=traced["extras"].get("obs_spans", 0) / ops,
        trace_overhead_share=traced["wall_s"] / plain["wall_s"] - 1.0,
        trace_unattributed_share=(driver["self_ns"].get(ROOT_SPAN, 0)
                                  / op_wall_ns),
    )
    if "requests_per_core" in counters:
        extras.update(_burst_extras(counters, everywhere["self_ns"]))
    if "wire_calls" in counters:
        # Only the workloads that drive a RichClient would pay the hop.
        extras["runner_hop_us"] = runner_hop_us()
    if workload.name == "serve-hot":
        extras["obs_overhead_share"] = _obs_overhead_share(
            workload, seed, plain["wall_s"])
    if workload.name == "kb-query":
        state = workload.setup(seed)
        try:
            store_totals, extras["fanout_ratio"], mismatches = (
                replay_backends(state))
        finally:
            workload.teardown(state)
        failed += mismatches
        # The other engines are not on this workload's own path, so the
        # replay is the only source of their spans.
        everywhere["self_ns"].update(store_totals["self_ns"])
        everywhere["calls"].update(store_totals["calls"])

    per_layer = {}
    for metric in PER_LAYER:
        kind, *args = metric["how"]
        if kind == "calls":
            value = everywhere["calls"].get(args[0], 0)
        elif kind == "mean":
            value = _mean(everywhere, args, metric["unit"])
        else:
            value = extras.get(args[0], 0)
        per_layer[metric["name"]] = value

    share_by_layer: dict[str, float] = {}
    for span, self_ns in driver["self_ns"].items():
        layer = layer_of(span)
        share_by_layer[layer] = share_by_layer.get(layer, 0.0) + self_ns / op_wall_ns

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"trace.{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "ops": ops,
        "span_ops": tracer.span_ops, "self_ns": everywhere["self_ns"],
        "calls": everywhere["calls"], "driver_self_ns": driver["self_ns"],
        "spans": tracer.span_records(),
    }, indent=1) + "\n")
    return {"workload": workload.name, "seed": seed, "attempted": ops,
            "failed": failed, "per_layer": per_layer,
            "layer_share": share_by_layer,
            "traced_wall_s": traced["wall_s"], "plain_wall_s": plain["wall_s"]}
