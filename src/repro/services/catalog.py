"""Assembles the full simulated world the examples, tests and benchmarks run in.

``build_world`` wires together: one transport (shared clock, seeded
RNG, connectivity model), the synthetic corpus, and a registry holding
every service the paper's application scenarios need — three NLU
providers, three search engines, the web itself, three knowledge bases,
three cloud stores with different size/latency trade-offs, market and
geo data feeds, a metered spell checker and three visual recognition
providers.  Every profile difference (latency, cost, quality, coverage)
is deliberate: it is the raw material for the Rich SDK's monitoring,
ranking and selection machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.corpus import SyntheticCorpus, generate_corpus
from repro.data.gazetteer import Gazetteer, default_gazetteer
from repro.data.lexicon import default_sentiment_lexicon
from repro.data.taxonomy import ConceptTaxonomy, default_taxonomy
from repro.services.base import PerCallCost, ServiceRegistry, SizeBasedCost
from repro.services.datasources import GeoDataService, KnowledgeService, StockDataService
from repro.services.imagesearch import ImageSearchService
from repro.services.nlu import NluEngine, NluService
from repro.services.search import SearchEngineService, WebService
from repro.services.speech import SpeechRecognitionService
from repro.services.spellcheck import SpellChecker, SpellcheckService
from repro.services.storage import CloudStoreService
from repro.services.transform import TransformService
from repro.services.vision import VisualRecognitionService
from repro.simnet.connectivity import ConnectivityModel
from repro.simnet.latency import LogNormalLatency, SizeDependentLatency
from repro.simnet.transport import Transport
from repro.util.clock import Clock, ManualClock
from repro.util.rng import SeededRng


@dataclass
class World:
    """Everything a scenario needs, fully wired."""

    transport: Transport
    gazetteer: Gazetteer
    taxonomy: ConceptTaxonomy
    corpus: SyntheticCorpus
    registry: ServiceRegistry
    web: WebService

    @property
    def clock(self) -> Clock:
        return self.transport.clock

    def service(self, name: str):
        return self.registry.get(name)

    def services_of_kind(self, kind: str):
        return self.registry.services_of_kind(kind)


def build_world(
    seed: int = 42,
    corpus_size: int = 120,
    clock: Clock | None = None,
    connectivity: ConnectivityModel | None = None,
) -> World:
    """Construct the default world; fully deterministic for a given seed."""
    clock = clock if clock is not None else ManualClock()
    rng = SeededRng(seed)
    transport = Transport(clock=clock, rng=rng, connectivity=connectivity)

    gazetteer = default_gazetteer()
    taxonomy = default_taxonomy()
    lexicon = default_sentiment_lexicon()
    corpus = generate_corpus(size=corpus_size, seed=seed, gazetteer=gazetteer)

    registry = ServiceRegistry()

    web = WebService("worldwide-web", transport, corpus,
                     latency=SizeDependentLatency(base=0.06, slope=2e-6))
    registry.register(web)
    fetcher = web.fetcher()

    # --- NLU providers: premium / mid-tier / budget -----------------------
    registry.register(NluService(
        "lexica-prime", transport,
        NluEngine(gazetteer, taxonomy, lexicon, alias_recall=0.98, seed=1),
        web_fetcher=fetcher,
        latency=LogNormalLatency(median=0.18, sigma=0.30),
        cost_model=PerCallCost(0.0030),
    ))
    registry.register(NluService(
        "glotta", transport,
        NluEngine(gazetteer, taxonomy, lexicon.restricted(0.75), alias_recall=0.85, seed=2),
        web_fetcher=fetcher,
        latency=LogNormalLatency(median=0.10, sigma=0.30),
        cost_model=PerCallCost(0.0015),
    ))
    registry.register(NluService(
        "wordsmith-lite", transport,
        NluEngine(gazetteer, taxonomy, lexicon.restricted(0.50), alias_recall=0.70,
                  heuristic_ner=True, seed=3),
        web_fetcher=None,  # the budget provider cannot fetch URLs itself
        latency=LogNormalLatency(median=0.05, sigma=0.40),
        cost_model=PerCallCost(0.0005),
    ))

    # --- Search engines ----------------------------------------------------
    registry.register(SearchEngineService(
        "goggle", transport, corpus, coverage=0.95, k1=1.5, b=0.75, seed=101,
        latency=LogNormalLatency(median=0.12, sigma=0.25),
    ))
    registry.register(SearchEngineService(
        "bung", transport, corpus, coverage=0.80, k1=1.2, b=0.60, seed=102,
        latency=LogNormalLatency(median=0.09, sigma=0.25),
    ))
    registry.register(SearchEngineService(
        "yahu", transport, corpus, coverage=0.65, k1=2.0, b=0.80, seed=103,
        latency=LogNormalLatency(median=0.07, sigma=0.30),
    ))

    # --- Public knowledge bases ---------------------------------------------
    registry.register(KnowledgeService(
        "dbpedia-sim", transport, gazetteer, coverage=0.90, naming_style="camel",
        uri_prefix="http://dbpedia.org/resource/", seed=201,
        latency=LogNormalLatency(median=0.14, sigma=0.30),
    ))
    registry.register(KnowledgeService(
        "wikidata-sim", transport, gazetteer, coverage=0.95, naming_style="pcode",
        uri_prefix="http://www.wikidata.org/entity/", seed=202,
        latency=LogNormalLatency(median=0.11, sigma=0.30),
    ))
    registry.register(KnowledgeService(
        "yago-sim", transport, gazetteer, coverage=0.75, naming_style="underscore",
        uri_prefix="http://yago-knowledge.org/resource/", seed=203,
        latency=LogNormalLatency(median=0.09, sigma=0.30),
    ))

    # --- Cloud stores: the paper's s1 / s2 size crossover --------------------
    registry.register(CloudStoreService(
        "store-small-fast", transport,
        latency=SizeDependentLatency(base=0.02, slope=2e-5),
        cost_model=SizeBasedCost(fee=0.0001, per_kilobyte=0.00008),
    ))
    registry.register(CloudStoreService(
        "store-bulk", transport,
        latency=SizeDependentLatency(base=0.25, slope=1e-6),
        cost_model=SizeBasedCost(fee=0.0004, per_kilobyte=0.00001),
    ))
    registry.register(CloudStoreService(
        "store-standard", transport,
        latency=SizeDependentLatency(base=0.08, slope=8e-6),
        cost_model=SizeBasedCost(fee=0.0002, per_kilobyte=0.00004),
    ))

    # --- Data feeds ----------------------------------------------------------
    registry.register(StockDataService(
        "tickerfeed", transport, gazetteer, seed=17,
        latency=LogNormalLatency(median=0.06, sigma=0.25),
        cost_model=PerCallCost(0.0002),
    ))
    registry.register(GeoDataService(
        "geosphere", transport, gazetteer, seed=23,
        latency=LogNormalLatency(median=0.07, sigma=0.25),
    ))

    # --- Spell check (remote, metered) ---------------------------------------
    # The dictionaries are a by-product of the search engines' tokenise pass.
    known = {surface.lower(): 1 for entity in gazetteer
             for surface in entity.all_surface_forms()}
    checker = SpellChecker({**known, **corpus.word_counts()})
    registry.register(SpellcheckService(
        "orthografix", transport, checker,
        latency=LogNormalLatency(median=0.08, sigma=0.30),
        fee_per_call=0.0002,
    ))

    # --- Speech recognition: premium / budget ---------------------------------
    # Both share the corpus-derived language model; they differ in
    # acuity (how much of the signal they hear) and the premium one has
    # the full dictionary while the budget one decodes with a thinner
    # model built from a fifth of the corpus.
    thin_corpus = SyntheticCorpus(corpus.documents[: max(1, len(corpus) // 5)])
    thin_checker = SpellChecker({**known, **thin_corpus.word_counts()})
    registry.register(SpeechRecognitionService(
        "dictaphone-pro", transport, checker, acuity=0.99, seed=301,
        latency=LogNormalLatency(median=0.22, sigma=0.30),
        cost_model=PerCallCost(0.0035),
    ))
    registry.register(SpeechRecognitionService(
        "mumblecorder", transport, thin_checker, acuity=0.92, seed=302,
        latency=LogNormalLatency(median=0.09, sigma=0.35),
        cost_model=PerCallCost(0.0010),
    ))

    # --- Image search -----------------------------------------------------------
    registry.register(ImageSearchService(
        "pixfinder", transport, mistag_rate=0.15, seed=401,
        latency=LogNormalLatency(median=0.10, sigma=0.25),
    ))

    # --- Data transformation -------------------------------------------------------
    registry.register(TransformService(
        "shapeshift", transport,
        latency=LogNormalLatency(median=0.07, sigma=0.25),
        cost_model=PerCallCost(0.0003),
    ))

    # --- Visual recognition ---------------------------------------------------
    registry.register(VisualRecognitionService(
        "visionary", transport, visible_dims=16, seed=5,
        latency=LogNormalLatency(median=0.20, sigma=0.30),
        cost_model=PerCallCost(0.0040),
    ))
    registry.register(VisualRecognitionService(
        "peek", transport, visible_dims=8, seed=5,
        latency=LogNormalLatency(median=0.11, sigma=0.30),
        cost_model=PerCallCost(0.0020),
    ))
    registry.register(VisualRecognitionService(
        "glance", transport, visible_dims=4, seed=5,
        latency=LogNormalLatency(median=0.06, sigma=0.35),
        cost_model=PerCallCost(0.0008),
    ))

    # --- Batch capability flags ------------------------------------------------
    # The inference-style providers expose batch endpoints (real NLU /
    # vision / spellcheck APIs accept document arrays and amortize the
    # model invocation); stores and feeds stay strictly per-call.  The
    # Rich SDK's MicroBatcher and invoke_many only batch against
    # services flagged here.
    for batchable, batch_size in (
        ("lexica-prime", 16), ("glotta", 16), ("wordsmith-lite", 32),
        ("visionary", 8), ("peek", 8), ("glance", 16),
        ("orthografix", 32),
    ):
        registry.get(batchable).batch_max_size = batch_size

    return World(
        transport=transport,
        gazetteer=gazetteer,
        taxonomy=taxonomy,
        corpus=corpus,
        registry=registry,
        web=web,
    )
