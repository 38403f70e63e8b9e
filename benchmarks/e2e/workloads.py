"""The six workloads.

Each workload is a closed loop with one client: set-up builds a fresh
world / knowledge base and generates every input from the seed, then
the driver runs the steps one after another.  Step counts are constants
of the size table below, never a time budget, so counts, simulated
seconds, spend and answer digests repeat exactly for a seed.

A *step* is what the driver times as one unit; it carries ``weight``
ops (1 everywhere except ``burst-batch``, where a step is one burst and
every request in it is an op).
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import tempfile
import threading
from pathlib import Path

from benchmarks.e2e import TMP_ROOT
from repro import PersonalKnowledgeBase, RichClient, WebSearchAnalyzer, build_world
from repro.core import SdkGateway
from repro.core.admission import AdmissionController, AdmissionLimit
from repro.kb.disambiguation import EntityDisambiguator, ServiceBackedStrategy
from repro.services.datasources import StockDataService
from repro.stores.rdf import RDF, REPRO, RangeFilter
from repro.tenancy import Tenancy, Tenant, TenantRegistry

SIZES = {
    # Sized so one round (set-up + timed pass) takes 1.5-4 s on the
    # 2-core box the suite was defined on: every step then gets 5-16
    # repeats in a 24 s run, and its fastest repeat is what counts.
    "full": {
        "ingest-cold": {"corpus": 1000, "ops": 100},
        "serve-hot": {"corpus": 300, "working_set": 300, "ops": 12000},
        "burst-batch": {"corpus": 30, "bursts": 200, "burst": 256},
        "kb-query": {"entities": 5000, "ops": 200},
        "kb-churn": {"entities": 2500, "ops": 5000},
        "kb-durable": {"entities": 2500, "ops": 1600},
    },
    "smoke": {
        "ingest-cold": {"corpus": 120, "ops": 12},
        "serve-hot": {"corpus": 60, "working_set": 60, "ops": 600},
        "burst-batch": {"corpus": 30, "bursts": 8, "burst": 64},
        "kb-query": {"entities": 500, "ops": 40},
        "kb-churn": {"entities": 200, "ops": 200},
        "kb-durable": {"entities": 200, "ops": 120},
    },
}


#: The simulated world (corpus, service latency streams) is the
#: program's environment and stays fixed; ``--seed`` drives only the
#: generated inputs (queries, picks, payloads, triples).
WORLD_SEED = 42


class GuardError(Exception):
    """A workload-shape guard failed: the run is not the intended workload."""


class Workload:
    """Base class: set-up, steps, per-step checks, guards, teardown."""

    name = ""
    why = ""
    #: The no-extra-threads guard runs before :meth:`teardown`, except
    #: where the store under test owns a pool that teardown must stop.
    threads_checked_after_teardown = False
    #: :meth:`verify` runs after every round, except where it only
    #: re-checks answers that the digest pins for the later rounds.
    verify_first_round_only = False
    #: Listed in ``BENCHMARK.json``, so the driver runs and gates it.
    in_benchmark_json = True

    def __init__(self, size: str = "full") -> None:
        self.params = SIZES[size][self.name]

    def setup(self, seed: int):
        """Build the state and the step list (untimed)."""
        raise NotImplementedError

    def weight(self, step) -> int:
        return 1

    def run(self, state, step):
        """One timed step; returns a JSON-able output."""
        raise NotImplementedError

    def failures(self, state, step, output) -> int:
        """Ops of this step that failed their correctness check."""
        return 0

    def verify(self, state) -> int:
        """Untimed end-of-round correctness pass; returns failed ops."""
        return 0

    def sim_seconds(self, state) -> float:
        return 0.0

    def spend(self, state) -> float:
        return 0.0

    def counters(self, state) -> dict:
        """Exact counts describing the round (must repeat for a seed)."""
        return {}

    def guards(self, state, counters: dict) -> None:
        """Raise :class:`GuardError` when the round lost its shape."""

    def teardown(self, state) -> None:
        """Release threads, loops and files the state owns."""


class State:
    """Plain attribute bag; :mod:`layers` looks for well-known names
    (``world``, ``client``, ``gateway``, ``analyzer``, ``kb``)."""

    def __init__(self, **attributes) -> None:
        self.steps: list = []
        self.__dict__.update(attributes)


def _sdk_counters(state) -> dict:
    cache = state.client.cache.stats
    transport = state.world.transport.stats
    return {
        "cache_hits": cache.hits - state.cache_hits0,
        "cache_misses": cache.misses - state.cache_misses0,
        "cache_evictions": cache.evictions,
        "wire_calls": transport.calls - state.wire_calls0,
    }


def _mark_sdk_baseline(state) -> None:
    """Remember the SDK's counters at the end of set-up."""
    state.cache_hits0 = state.client.cache.stats.hits
    state.cache_misses0 = state.client.cache.stats.misses
    state.wire_calls0 = state.world.transport.stats.calls
    state.sim0 = state.world.clock.now()
    state.spend0 = state.client.quota.total_cost()


def _hit_ratio(counters: dict) -> float:
    lookups = counters["cache_hits"] + counters["cache_misses"]
    return counters["cache_hits"] / lookups if lookups else 0.0


class _SdkWorkload(Workload):
    """Shared accounting for the workloads that drive a RichClient."""

    def sim_seconds(self, state) -> float:
        return state.world.clock.now() - state.sim0

    def spend(self, state) -> float:
        return state.client.quota.total_cost() - state.spend0

    def teardown(self, state) -> None:
        state.client.close()


# ---------------------------------------------------------------------------
# 1. ingest-cold
# ---------------------------------------------------------------------------

NLU_PROVIDERS = ("lexica-prime", "glotta", "wordsmith-lite")
KNOWLEDGE_SOURCES = ("dbpedia-sim", "wikidata-sim")


class IngestCold(_SdkWorkload):
    name = "ingest-cold"
    why = ("flagship path search -> fetch -> NLU -> PKB write -> inference -> "
           "query on mostly first-time documents: service engines and "
           "transport do the work, the cache little")
    #: Measured 0.44-0.47 over ten seeds: the gazetteer has 40 entities,
    #: so disambiguation and knowledge lookups are hot by construction;
    #: documents (fetch + NLU) stay ~80% first-time.
    max_hit_ratio = 0.55

    def setup(self, seed: int):
        world = build_world(seed=WORLD_SEED, corpus_size=self.params["corpus"])
        client = RichClient(world.registry)
        kb = PersonalKnowledgeBase(
            client=client,
            disambiguator=EntityDisambiguator(
                [ServiceBackedStrategy(client, "lexica-prime")]))
        state = State(world=world, client=client, kb=kb,
                      analyzer=WebSearchAnalyzer(client), derived=0)
        # Which documents get researched is part of the fixed world (how
        # much of the corpus a run touches sets its cost); the seed
        # decides the order, the query wording, the company and the
        # history window.
        targets = random.Random(WORLD_SEED).sample(
            world.corpus.documents, self.params["ops"])
        rng = random.Random(seed)
        rng.shuffle(targets)
        companies = world.gazetteer.entities_of_type("Company")
        for index, document in enumerate(targets):
            # Each query targets a different document: the surface form
            # it uses for its lead entity plus four consecutive words of
            # its body, which pulls that document and its neighbours.
            lead = next(iter(document.gold_aliases))
            words = document.text.split("\n", 1)[1].split()
            at = rng.randrange(max(1, len(words) - 4))
            mentioned = [entity for entity in companies
                         if entity.entity_id in document.gold_entities]
            company = mentioned[0] if mentioned else rng.choice(companies)
            state.steps.append({
                "query": (document.gold_aliases[lead][0] + " "
                          + " ".join(words[at:at + 4])),
                "nlu": NLU_PROVIDERS[index % len(NLU_PROVIDERS)],
                "company": company.name,
                "entity_id": company.entity_id,
                "symbol": StockDataService.symbol_for(company.name),
                "days": rng.randrange(30, 365),
            })
        _mark_sdk_baseline(state)
        return state

    def run(self, state, step):
        aggregate = state.analyzer.analyze_search_results(
            step["query"], limit=6, nlu_service=step["nlu"])
        rows = 0
        for row in aggregate.entity_sentiment_report():
            if row["mean_sentiment"] is not None:
                state.kb.add_fact(row["name"], REPRO.web_sentiment,
                                  round(row["mean_sentiment"], 6))
                rows += 1
        state.kb.ingest_entity(step["company"], sources=KNOWLEDGE_SOURCES)
        history = state.client.invoke(
            "tickerfeed", "history",
            {"symbol": step["symbol"], "days": step["days"]}).value
        state.kb.pipeline.analyze_series(
            step["entity_id"], history["days"], history["closes"],
            entity_type="Company")
        derived = state.kb.pipeline.infer()
        state.derived += derived
        answer = state.kb.query(
            [("?s", RDF.type, REPRO.Company),
             ("?s", REPRO.recommendation, "?r")], order_by="?s")
        return {"documents": aggregate.documents_analyzed, "rows": rows,
                "derived": derived, "answer": answer}

    def failures(self, state, step, output) -> int:
        return 0 if output["rows"] >= 1 else 1

    def verify(self, state) -> int:
        # The run as a whole must have inferred something.
        return 0 if state.derived > 0 else len(state.steps)

    def counters(self, state) -> dict:
        counters = _sdk_counters(state)
        counters.update(
            documents_archived=len(state.analyzer.archive.document_urls()),
            facts=len(state.kb.graph),
            facts_derived=state.derived,
        )
        return counters

    def guards(self, state, counters: dict) -> None:
        ratio = _hit_ratio(counters)
        if ratio > self.max_hit_ratio:
            raise GuardError(
                f"ingest-cold ran warm: cache hit ratio {ratio:.3f} > "
                f"{self.max_hit_ratio}")


# ---------------------------------------------------------------------------
# 2. serve-hot
# ---------------------------------------------------------------------------

TENANTS = 8
SEARCH_ENGINES = ("goggle", "bung", "yahu")
KNOWLEDGE_BASES = ("dbpedia-sim", "wikidata-sim", "yago-sim")


class ServeHot(_SdkWorkload):
    name = "serve-hot"
    why = ("JSON envelopes over a warm 300-request working set across 8 "
           "tenants: gateway, tenancy, cache, monitor, quota and ranking do "
           "the work, service engines almost none")
    min_hit_ratio = 0.95

    def setup(self, seed: int, obs=None):
        world = build_world(seed=WORLD_SEED, corpus_size=self.params["corpus"])
        tenants = TenantRegistry(auto_register=False)
        for index in range(TENANTS):
            tenants.register(Tenant(f"tenant-{index}"))
        client = RichClient(world.registry, tenancy=Tenancy(tenants), obs=obs)
        state = State(world=world, client=client, gateway=SdkGateway(client))
        # The working set belongs to the fixed world: the rank-1 request
        # alone draws ~23% of Zipf(1.1) traffic, so letting the seed pick
        # its document would let one response size set the whole run.
        # The seed draws the traffic over it.
        rng = random.Random(WORLD_SEED)
        documents = world.corpus.documents
        entities = list(world.gazetteer)

        def envelope(index: int, method: str, params: dict) -> str:
            return json.dumps({"method": method, "params": params,
                               "tenant": f"tenant-{index % TENANTS}"})

        working_set = []
        for index in range(self.params["working_set"]):
            document = rng.choice(documents)
            provider = index // 3 % 3
            if index % 3 == 0:
                params = {"service": NLU_PROVIDERS[provider],
                          "operation": "analyze",
                          "payload": {"text": document.text.split("\n")[1]}}
            elif index % 3 == 1:
                words = document.text.split()
                at = rng.randrange(max(1, len(words) - 3))
                params = {"service": SEARCH_ENGINES[provider],
                          "operation": "search",
                          "payload": {"query": document.title + " "
                                      + " ".join(words[at:at + 3]),
                                      "limit": 5}}
            else:
                service = world.service(KNOWLEDGE_BASES[provider])
                covered = [entity for entity in entities
                           if service.covers(entity.entity_id)]
                params = {"service": service.name, "operation": "lookup",
                          "payload": {"entity": rng.choice(covered).name}}
            working_set.append(envelope(index, "invoke", params))
        best_service = [envelope(index, "best_service", {"kind": kind})
                        for index, kind in enumerate(
                            ("nlu", "search", "knowledge", "storage"))]
        # Ranked failover over the knowledge bases: entities one provider
        # does not cover make the retry / failover walk do real work.
        anywhere = [entity for entity in entities
                    if any(world.service(name).covers(entity.entity_id)
                           for name in KNOWLEDGE_BASES)]
        failover = [envelope(index, "invoke_failover",
                             {"kind": "knowledge", "operation": "lookup",
                              "payload": {"entity": entity.name}})
                    for index, entity in enumerate(rng.sample(anywhere, 12))]

        # Zipf(1.1) over the working set; 5% best_service and 1%
        # invoke_failover envelopes at fixed positions.
        rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** 1.1
                   for rank in range(len(working_set))]
        picks = rng.choices(range(len(working_set)), weights,
                            k=self.params["ops"])
        for index, pick in enumerate(picks):
            if index % 100 == 99:
                state.steps.append(rng.choice(failover))
            elif index % 20 == 9:
                state.steps.append(rng.choice(best_service))
            else:
                state.steps.append(working_set[pick])
        # Warm-up: every distinct envelope once.
        for text in working_set + best_service + failover:
            state.gateway.handle_json(text)
        _mark_sdk_baseline(state)
        state.errors0 = state.gateway.errors_returned
        return state

    def run(self, state, step):
        return state.gateway.handle_json(step)

    def failures(self, state, step, output) -> int:
        return 0 if json.loads(output)["status"] == 200 else 1

    def counters(self, state) -> dict:
        counters = _sdk_counters(state)
        counters["error_envelopes"] = (state.gateway.errors_returned
                                       - state.errors0)
        return counters

    def guards(self, state, counters: dict) -> None:
        ratio = _hit_ratio(counters)
        if ratio < self.min_hit_ratio:
            raise GuardError(
                f"serve-hot ran cold: cache hit ratio {ratio:.3f} < "
                f"{self.min_hit_ratio}")


# ---------------------------------------------------------------------------
# 3. burst-batch
# ---------------------------------------------------------------------------

BURST_SERVICE = "glotta"
_ADJECTIVES = ("excellent", "terrible", "remarkable", "disappointing",
               "reliable", "costly", "brilliant", "defective")


class BurstBatch(_SdkWorkload):
    name = "burst-batch"
    why = ("bursts of short NLU requests, half of them duplicates, cache "
           "bypassed, alternating the sync and the asyncio batching cores: "
           "dedup, chunking, admission and batch transport do the work")

    def setup(self, seed: int):
        world = build_world(seed=WORLD_SEED, corpus_size=self.params["corpus"])
        admission = AdmissionController(
            world.clock,
            default_limit=AdmissionLimit(max_concurrent=8, max_queue=64))
        client = RichClient(world.registry, admission=admission)
        state = State(world=world, client=client,
                      loop=asyncio.new_event_loop(), last_sync=None)
        rng = random.Random(seed)
        names = [entity.name for entity in world.gazetteer]
        unique = self.params["burst"] // 2
        for pair in range(self.params["bursts"] // 2):
            payloads = [
                {"text": (f"{rng.choice(names)} reported "
                          f"{rng.choice(_ADJECTIVES)} results in period "
                          f"{pair}-{index} and analysts were "
                          f"{rng.choice(_ADJECTIVES)}."),
                 "features": ["sentiment", "keywords"]}
                for index in range(unique)]
            burst = payloads + [dict(payload) for payload in payloads]
            rng.shuffle(burst)
            state.steps.append(("sync", burst))
            state.steps.append(("async", burst))
        _mark_sdk_baseline(state)
        return state

    def weight(self, step) -> int:
        return len(step[1])

    def run(self, state, step):
        core, burst = step
        if core == "sync":
            outcomes = state.client.invoke_many(
                BURST_SERVICE, "analyze", burst, use_cache=False)
        else:
            outcomes = state.loop.run_until_complete(
                state.client.aio.ainvoke_many(
                    BURST_SERVICE, "analyze", burst, use_cache=False))
        return [None if isinstance(outcome, Exception) else outcome.value
                for outcome in outcomes]

    def failures(self, state, step, output) -> int:
        failed = sum(1 for value in output if value is None)
        if step[0] == "sync":
            state.last_sync = output
            return failed
        # Each async burst must reproduce its sync twin value for value.
        return failed + sum(1 for ours, theirs in zip(output, state.last_sync)
                            if ours != theirs and ours is not None)

    def counters(self, state) -> dict:
        counters = _sdk_counters(state)
        requests = sum(self.weight(step) for step in state.steps) // 2
        sync_gate = state.client.admission.bulkhead_for(BURST_SERVICE).stats
        async_gate = state.client.aio.admission.bulkhead_for(
            BURST_SERVICE).stats
        counters.update(
            requests_per_core=requests,
            sync_folded=state.client.coalescer.stats.coalesced,
            async_folded=state.client.aio.coalescer.stats.coalesced,
            sync_batches=sync_gate.admitted,
            async_batches=async_gate.admitted,
            sync_shed=sync_gate.shed,
            async_shed=async_gate.shed,
        )
        return counters

    def guards(self, state, counters: dict) -> None:
        for core in ("sync", "async"):
            folded = counters[f"{core}_folded"]
            if folded * 2 != counters["requests_per_core"]:
                raise GuardError(
                    f"burst-batch {core} core folded {folded} of "
                    f"{counters['requests_per_core']} requests, expected half")

    def teardown(self, state) -> None:
        state.loop.close()
        super().teardown(state)


# ---------------------------------------------------------------------------
# 4-6. the knowledge-base workloads
# ---------------------------------------------------------------------------

ENTITY_TYPES = ("Company", "Country", "City", "Person")
PLACES = 50
TRENDS = ("rising", "falling", "flat")
SERIES_DAYS = list(range(30))


def entity_triples(rng: random.Random, count: int) -> list[tuple]:
    """``count`` entities x 8 triples, shaped like the pipeline's output."""
    triples = []
    for index in range(count):
        subject = f"ent:{index:06d}"
        slope = round(rng.uniform(-2.0, 2.0), 6)
        fit = round(rng.random(), 6)
        trend = "rising" if slope > 0.2 else "falling" if slope < -0.2 else "flat"
        triples += [
            (subject, RDF.type, REPRO(ENTITY_TYPES[index % len(ENTITY_TYPES)])),
            (subject, REPRO.slope, slope),
            (subject, REPRO.r_squared, fit),
            (subject, REPRO.trend, trend),
            (subject, REPRO.goodness_of_fit, "strong" if fit >= 0.5 else "weak"),
            (subject, REPRO.locatedIn, f"place:{rng.randrange(PLACES):03d}"),
            (subject, REPRO.favorability, round(rng.uniform(-1.0, 1.0), 6)),
            (subject, REPRO.knows, f"ent:{rng.randrange(count):06d}"),
        ]
    return triples


def _preload(kb: PersonalKnowledgeBase, triples: list[tuple]) -> int:
    """Load triples and close the store under the default rulebase."""
    kb.graph.add_all(triples)
    return kb.pipeline.infer()


def query_kwargs(query: dict) -> dict:
    """The keyword arguments of one suite query (filters built fresh)."""
    kwargs = dict(query["kwargs"])
    if "range" in query:
        kwargs["filters"] = [RangeFilter(*query["range"])]
    return kwargs


def _query(kb: PersonalKnowledgeBase, query: dict, **overrides):
    return kb.query(query["patterns"], **{**query_kwargs(query), **overrides})


def join_topk(rng: random.Random) -> dict:
    return {"kind": "join-topk",
            "patterns": [("?s", RDF.type, REPRO(rng.choice(ENTITY_TYPES))),
                         ("?s", REPRO.trend, rng.choice(TRENDS)),
                         ("?s", REPRO.slope, "?v")],
            "kwargs": {"order_by": "?v", "descending": True, "limit": 10}}


def range_topk(rng: random.Random, limit: int = 100) -> dict:
    low = round(rng.uniform(-0.9, 0.4), 3)
    return {"kind": "range-topk",
            "patterns": [("?s", REPRO.favorability, "?f")],
            "range": ("?f", low, round(low + 0.5, 3)),
            "kwargs": {"order_by": "?f", "descending": True, "limit": limit}}


def point_lookup(rng: random.Random, entities: int) -> dict:
    return {"kind": "point",
            "patterns": [(f"ent:{rng.randrange(entities):06d}", "?p", "?o")],
            "kwargs": {}}


def two_pattern(rng: random.Random, entities: int) -> dict:
    return {"kind": "two-pattern",
            "patterns": [(f"ent:{rng.randrange(entities):06d}",
                          REPRO.knows, "?b"),
                         ("?b", REPRO.trend, "?t")],
            "kwargs": {}}


def three_hop(rng: random.Random) -> dict:
    # Ends in a predicate only the rulebase derives.
    return {"kind": "three-hop",
            "patterns": [("?a", REPRO.locatedIn,
                          f"place:{rng.randrange(PLACES):03d}"),
                         ("?a", REPRO.knows, "?b"),
                         ("?b", REPRO.recommendation, "?r")],
            "kwargs": {}}


def fixed_mix(rng: random.Random, block: dict[str, int], total: int) -> list[str]:
    """``total`` op kinds in the exact proportions of ``block``, shuffled
    block by block: the seed changes the order and the parameters, never
    how many ops of each kind a round holds."""
    kinds: list[str] = []
    while len(kinds) < total:
        chunk = [kind for kind, count in block.items() for _ in range(count)]
        rng.shuffle(chunk)
        kinds += chunk
    return kinds[:total]


def canonical_rows(rows: list[dict]) -> list[str]:
    """Order-free form of a result set, for comparing two engines."""
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


class KbQuery(Workload):
    name = "kb-query"
    why = ("read-only query suite over a 40k-triple closed store: planner, "
           "join engine and graph indexes do all the work, nothing is "
           "written and no service is called")
    verify_first_round_only = True

    def setup(self, seed: int):
        rng = random.Random(seed)
        kb = PersonalKnowledgeBase()
        state = State(kb=kb, triples=entity_triples(rng, self.params["entities"]))
        state.derived = _preload(kb, state.triples)
        entities = self.params["entities"]
        makers = {"join-topk": join_topk, "range-topk": range_topk,
                  "point": lambda rng: point_lookup(rng, entities),
                  "three-hop": three_hop}
        mix = {"join-topk": 5, "range-topk": 3, "point": 7, "three-hop": 5}
        for kind in fixed_mix(rng, mix, self.params["ops"]):
            state.steps.append(makers[kind](rng))
        state.size0 = len(kb.graph)
        state.version0 = kb.graph.version
        state.rows = 0
        return state

    def run(self, state, step):
        return _query(state.kb, step)

    def failures(self, state, step, output) -> int:
        state.rows += len(output)
        return 0

    def verify(self, state) -> int:
        # Re-answer every 20th op with the naive engine and compare.
        failed = 0
        for step in state.steps[::20]:
            planned = canonical_rows(_query(state.kb, step))
            naive = canonical_rows(_query(state.kb, step, optimize=False))
            failed += planned != naive
        return failed

    def counters(self, state) -> dict:
        return {"triples": len(state.kb.graph), "facts_derived": state.derived,
                "rows_returned": state.rows,
                "writes": state.kb.graph.version - state.version0}

    def guards(self, state, counters: dict) -> None:
        if counters["writes"] or counters["triples"] != state.size0:
            raise GuardError("kb-query wrote to the store")


class KbChurn(Workload):
    name = "kb-churn"
    why = ("writes beside reads on the default store: 60% entity write + "
           "delta inference, 30% point / 2-pattern read, 10% removal, so a "
           "layout that speeds scans but slows add / remove shows")
    min_delta_share = 0.9
    range_every = 0

    def make_kb(self, state) -> PersonalKnowledgeBase:
        return PersonalKnowledgeBase()

    def setup(self, seed: int):
        rng = random.Random(seed)
        state = State(infers=0, delta_infers=0, derived=0, rows=0)
        state.kb = self.make_kb(state)
        entities = self.params["entities"]
        state.derived0 = _preload(state.kb, entity_triples(rng, entities))
        written: list[str] = []
        mix = {"write": 12, "point": 3, "two-pattern": 3, "remove": 2}
        kinds = fixed_mix(rng, mix, self.params["ops"])
        for index, kind in enumerate(kinds):
            if self.range_every and index % self.range_every == 0:
                state.steps.append(range_topk(rng, limit=20))
            elif kind == "remove" and written:
                state.steps.append({"kind": "remove", "subject": written.pop(
                    rng.randrange(len(written)))})
            elif kind == "point":
                state.steps.append(point_lookup(rng, entities))
            elif kind == "two-pattern":
                state.steps.append(two_pattern(rng, entities))
            else:
                subject = f"new:{index:06d}"
                written.append(subject)
                drift = rng.uniform(-1.0, 1.3)
                state.steps.append({
                    "kind": "write", "subject": subject,
                    "facts": [
                        (RDF.type, REPRO.Company),
                        (REPRO.locatedIn, f"place:{rng.randrange(PLACES):03d}"),
                        (REPRO.knows, f"ent:{rng.randrange(entities):06d}"),
                        (REPRO.favorability, round(rng.uniform(-1.0, 1.0), 6)),
                        (REPRO.web_sentiment, round(rng.uniform(-1.0, 1.0), 6)),
                        (REPRO.sector, "analytics"),
                        (REPRO.founded, 1900 + rng.randrange(120)),
                        (REPRO.employees, rng.randrange(100_000)),
                    ],
                    "closes": [round(100.0 + drift * day
                                     + rng.uniform(-3.0, 3.0), 2)
                               for day in SERIES_DAYS],
                })
        return state

    def run(self, state, step):
        kb = state.kb
        kind = step["kind"]
        if kind == "write":
            for predicate, value in step["facts"]:
                kb.add_fact(step["subject"], predicate, value)
            kb.pipeline.analyze_series(step["subject"], SERIES_DAYS,
                                       step["closes"])
            derived = kb.pipeline.infer()
            state.infers += 1
            state.delta_infers += kb.pipeline.last_infer_mode == "delta"
            state.derived += derived
            return derived
        if kind == "remove":
            removed = 0
            for triple in kb.graph.match(step["subject"], None, None):
                removed += kb.graph.remove(triple)
            return removed
        return _query(kb, step)

    def failures(self, state, step, output) -> int:
        if step["kind"] == "write":
            return 0
        if step["kind"] == "remove":
            # A written entity holds its 8 facts plus the series results.
            return 0 if output >= 8 else 1
        state.rows += len(output)
        return 0

    def counters(self, state) -> dict:
        return {"triples": len(state.kb.graph), "infer_calls": state.infers,
                "delta_infers": state.delta_infers,
                "facts_derived": state.derived, "rows_returned": state.rows}

    def guards(self, state, counters: dict) -> None:
        share = (counters["delta_infers"] / counters["infer_calls"]
                 if counters["infer_calls"] else 0.0)
        if share < self.min_delta_share:
            raise GuardError(
                f"{self.name}: delta inference share {share:.3f} < "
                f"{self.min_delta_share}")


class KbDurable(KbChurn):
    name = "kb-durable"
    why = ("the kb-churn mix plus range top-k reads on 4 SQLite shards on "
           "disk: the SQLite backend (WAL, batched transactions, interning) "
           "and the shard router do the work; the only row paying "
           "persistence")
    range_every = 20
    threads_checked_after_teardown = True
    # The driver's time limit covers 22 runs per listed workload; five
    # workloads leave each run 24 s, which is what made the numbers
    # steady.  This one shares its op mix with kb-churn, and its store
    # runs a 4-thread pool on a 2-core box, so it is the one left to
    # the suite and ``--compare``.
    in_benchmark_json = False
    storage = {"storage": "sqlite", "shards": 4}

    def make_kb(self, state) -> PersonalKnowledgeBase:
        TMP_ROOT.mkdir(exist_ok=True)
        state.data_dir = tempfile.mkdtemp(prefix="kb-durable-", dir=TMP_ROOT)
        return PersonalKnowledgeBase(data_dir=state.data_dir, **self.storage)

    def verify(self, state) -> int:
        """Reopen from disk: same triple count, same answer to one query."""
        probe = range_topk(random.Random(0), limit=20)
        expected_size = len(state.kb.graph)
        expected = _query(state.kb, probe)
        state.kb.graph.close()
        state.disk_bytes = sum(
            path.stat().st_size
            for path in Path(state.data_dir).rglob("*") if path.is_file())
        state.kb = PersonalKnowledgeBase(data_dir=state.data_dir,
                                         **self.storage)
        state.reopened = (len(state.kb.graph) == expected_size
                          and _query(state.kb, probe) == expected)
        return 0

    def counters(self, state) -> dict:
        counters = super().counters(state)
        counters["disk_bytes"] = state.disk_bytes
        return counters

    def guards(self, state, counters: dict) -> None:
        super().guards(state, counters)
        if not state.reopened:
            raise GuardError("kb-durable: the reopened store differs from "
                             "the one that was closed")

    def teardown(self, state) -> None:
        state.kb.graph.close()
        shutil.rmtree(state.data_dir, ignore_errors=True)


WORKLOADS = {workload.name: workload for workload in (
    IngestCold, ServeHot, BurstBatch, KbQuery, KbChurn, KbDurable)}


def extra_threads() -> list[str]:
    """Threads alive besides the caller's (the sync-workload guard)."""
    return [thread.name for thread in threading.enumerate()
            if thread is not threading.current_thread()]
