"""The Rich SDK — the paper's primary contribution.

A client-side layer over remote services that adds everything the
paper's Figure 2 depicts: monitoring and data collection, service
quality evaluation, ranking, failure handling, caching, and synchronous
and asynchronous invocation — plus the natural-language-understanding
support layer of Figure 3 (web search → fetch → store → analyze →
aggregate).

Typical entry point::

    from repro.core import RichClient
    from repro.services.catalog import build_world

    world = build_world()
    client = RichClient(world.registry)
    response = client.invoke("lexica-prime", "analyze", {"text": "..."})
"""

from repro.core.admission import (
    AdmissionController,
    AdmissionLimit,
    AdmissionRejectedError,
    Bulkhead,
)
from repro.core.batching import (
    Flight,
    MicroBatcher,
    RequestCoalescer,
)
from repro.core.futures import ListenableFuture
from repro.core.monitoring import ServiceMonitor, InvocationRecord
from repro.core.latency import LatencyPredictor
from repro.core.ranking import (
    Estimate,
    ServiceRanker,
    weighted_score,
    normalized_score,
    Weights,
)
from repro.core.retry import RetryPolicy, FailoverInvoker, AllServicesFailedError
from repro.core.caching import ServiceCache, CacheStats
from repro.core.quota import ClientQuotaTracker
from repro.core.invoker import RichClient
from repro.core.aggregation import DocumentSetAggregator, MultiServiceCombiner
from repro.core.websearch import WebSearchAnalyzer, DocumentArchive
from repro.core.quality import (
    GoldBasedEvaluator,
    AgreementEvaluator,
    CompositeEvaluator,
    RollingQualityTracker,
)
from repro.core.loadbalancer import (
    Balancer,
    RoundRobinBalancer,
    WeightedScoreBalancer,
    LeastSpendBalancer,
    StickyBalancer,
)
from repro.core.gateway import SdkGateway
from repro.core.hedging import HedgedInvoker
from repro.core.imagery import ImageSearchAnalyzer
from repro.core.ratelimit import ServiceRateLimiter, TokenBucket

__all__ = [
    "AdmissionController",
    "AdmissionLimit",
    "AdmissionRejectedError",
    "Bulkhead",
    "Flight",
    "MicroBatcher",
    "RequestCoalescer",
    "ListenableFuture",
    "ServiceMonitor",
    "InvocationRecord",
    "LatencyPredictor",
    "Estimate",
    "ServiceRanker",
    "weighted_score",
    "normalized_score",
    "Weights",
    "RetryPolicy",
    "FailoverInvoker",
    "AllServicesFailedError",
    "ServiceCache",
    "CacheStats",
    "ClientQuotaTracker",
    "RichClient",
    "DocumentSetAggregator",
    "MultiServiceCombiner",
    "WebSearchAnalyzer",
    "DocumentArchive",
    "GoldBasedEvaluator",
    "AgreementEvaluator",
    "CompositeEvaluator",
    "RollingQualityTracker",
    "Balancer",
    "RoundRobinBalancer",
    "WeightedScoreBalancer",
    "LeastSpendBalancer",
    "StickyBalancer",
    "SdkGateway",
    "HedgedInvoker",
    "ImageSearchAnalyzer",
    "ServiceRateLimiter",
    "TokenBucket",
]
