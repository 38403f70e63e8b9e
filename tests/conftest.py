"""Shared fixtures for the whole test suite."""

import pytest

from repro import RichClient, build_world
from repro.core.admission import AdmissionController, AdmissionLimit
from repro.simnet.transport import Transport
from repro.tenancy import Tenancy, Tenant, TenantRegistry
from repro.util.clock import ManualClock
from repro.util.rng import SeededRng


@pytest.fixture
def world():
    """A small, fully deterministic simulated world."""
    return build_world(seed=42, corpus_size=30)


@pytest.fixture
def client(world):
    """A RichClient over the world's registry (closed after the test)."""
    rich_client = RichClient(world.registry)
    yield rich_client
    rich_client.close()


@pytest.fixture
def guarded(world):
    """A client with every ledger a call can leak: tenant "alpha", a call
    budget on the NLU services and a bulkhead in front of each service."""
    registry = TenantRegistry()
    registry.register(Tenant("alpha", max_calls=10))
    rich_client = RichClient(
        world.registry, tenancy=Tenancy(registry),
        admission=AdmissionController(
            world.clock, default_limit=AdmissionLimit(max_concurrent=2)))
    for service in ("lexica-prime", "glotta"):
        rich_client.quota.set_budget(service, max_calls=10)
    yield rich_client
    rich_client.close()


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def rng():
    return SeededRng(123)


@pytest.fixture
def transport(clock, rng):
    return Transport(clock=clock, rng=rng)
