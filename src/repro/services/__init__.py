"""Simulated remote services.

Every external dependency of the paper's Rich SDK — cognitive services,
search engines, knowledge-base endpoints, data feeds, storage services —
is implemented here as a :class:`~repro.services.base.SimulatedService`:
a real local implementation behind the simulated network boundary, with
configurable latency, failure, cost and quota models.
"""

from repro.services.base import (
    ServiceRequest,
    ServiceResponse,
    SimulatedService,
    ServiceRegistry,
    CostModel,
    FreeCost,
    PerCallCost,
    SizeBasedCost,
    FailureModel,
    NeverFails,
    RandomFailures,
    ScriptedFailures,
    Quota,
    QuotaExceededError,
)

__all__ = [
    "ServiceRequest",
    "ServiceResponse",
    "SimulatedService",
    "ServiceRegistry",
    "CostModel",
    "FreeCost",
    "PerCallCost",
    "SizeBasedCost",
    "FailureModel",
    "NeverFails",
    "RandomFailures",
    "ScriptedFailures",
    "Quota",
    "QuotaExceededError",
]
