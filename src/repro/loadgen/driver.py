"""Deterministic load generation against the shipped serving path.

:func:`run_spec` turns one seeded arrival schedule — open-loop Poisson
background arrivals split across tenants by a Zipf law, plus scripted
:class:`~repro.loadgen.workload.Aggressor` floods — into tasks on one
:class:`~repro.util.clock.VirtualLoop`.  Each task is one tenant's call
through ``client.aio.ainvoke`` inside its
:func:`~repro.tenancy.context.tenant_scope`, cache and coalescing off,
on a client whose :class:`~repro.tenancy.runtime.Tenancy` carries the
spec's weights and whose
:class:`~repro.core.admission.AdmissionController` builds weighted-fair
(``"fair"``) or FIFO (``"fifo"``, the control) bulkheads sized
:data:`LIMIT`.  The service time is the simulated service's own latency
model; the bulkhead decides who waits and who is shed.  A completion
records its latency, an :class:`~repro.core.admission.AdmissionRejectedError`
a shed.

Open-loop arrivals keep offering load however slow the service gets,
so a slow queue shows in the latencies instead of being hidden by
callers that wait for their previous answer (coordinated omission).
The schedule's randomness comes from seeded children of one
:class:`~repro.util.rng.SeededRng`, the service's from the world's seed,
and one loop drives the clock, so the same :class:`LoadSpec` always
produces byte-identical reports.  Per-tenant state is created on a
tenant's first arrival and the Zipf sampler draws in O(log n), so
populations of tens of thousands of tenants are cheap.
"""

from __future__ import annotations

import asyncio
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.core.admission import (
    AdmissionController,
    AdmissionLimit,
    AdmissionRejectedError,
)
from repro.core.invoker import RichClient
from repro.loadgen.report import RunReport, TenantStats
from repro.loadgen.workload import Aggressor, TenantPopulation
from repro.obs import Observability
from repro.services.catalog import build_world
from repro.tenancy import Tenancy, Tenant, TenantRegistry, tenant_scope
from repro.util.clock import ManualClock, run
from repro.util.rng import SeededRng

#: Queue disciplines of the bulkhead under test.
DISCIPLINE_FAIR = "fair"
DISCIPLINE_FIFO = "fifo"

#: The one call every arrival makes: a place lookup, whose service
#: time is ``geosphere``'s LogNormal latency (median 0.07 s).
SERVICE = "geosphere"
OPERATION = "locate"
PAYLOAD = {"place": "Germany"}

#: The bulkhead in front of :data:`SERVICE`: about 110 calls/s of
#: capacity and a one-second queue window.  The queue holds four
#: service times of work, so a FIFO queue's wait shows in its callers'
#: p99 (at 16 deep it adds about one median service time).
LIMIT = AdmissionLimit(max_concurrent=8, max_queue=32, queue_timeout=1.0)


@dataclass(frozen=True)
class LoadSpec:
    """One load-generation run, fully specified.

    ``arrival_rate`` is the aggregate background open-loop rate
    (requests per simulated second) split across tenants by the Zipf
    law; aggressors add their scripted floods on top.  ``weights`` maps
    tenant rank to fair-share weight (default: everyone 1.0).
    """

    tenants: int = 100
    zipf_exponent: float = 1.0
    arrival_rate: float = 65.0
    discipline: str = DISCIPLINE_FAIR
    duration: float = 30.0
    seed: int = 7
    aggressors: tuple[Aggressor, ...] = ()
    weights: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        if self.discipline not in (DISCIPLINE_FAIR, DISCIPLINE_FIFO):
            raise ValueError(
                f"discipline must be 'fair' or 'fifo', got {self.discipline!r}")
        if self.tenants <= 0:
            raise ValueError(f"tenants must be positive, got {self.tenants}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.arrival_rate <= 0:
            raise ValueError(
                f"arrival_rate must be positive, got {self.arrival_rate}")
        for aggressor in self.aggressors:
            if aggressor.rank >= self.tenants:
                raise ValueError(
                    f"aggressor rank {aggressor.rank} outside the population")


class LoadDriver:
    """Runs one :class:`LoadSpec` to completion and reports.

    Arrivals stop at ``spec.duration``; the run then waits for every
    request still queued or in flight, so the report accounts for every
    request that ever arrived (no truncation bias at the end).
    """

    def __init__(self, spec: LoadSpec,
                 population: TenantPopulation | None = None) -> None:
        self.spec = spec
        self.population = (population if population is not None
                           else TenantPopulation(spec.tenants,
                                                 spec.zipf_exponent))
        #: The last run's simulated clock.
        self.clock: ManualClock | None = None

    # -- public API ---------------------------------------------------------

    def run(self) -> RunReport:
        """Play the whole schedule; returns its :class:`RunReport`."""
        spec = self.spec
        world = build_world(seed=spec.seed, corpus_size=1)
        self.clock = world.clock
        registry = TenantRegistry()
        for rank, weight in (spec.weights or {}).items():
            registry.register(Tenant(self.population.tenant_id(rank),
                                     weight=weight))
        tenancy = Tenancy(registry)
        admission = AdmissionController(
            self.clock, default_limit=LIMIT,
            fair=spec.discipline == DISCIPLINE_FAIR,
            weight_of=tenancy.weight_of)
        client = RichClient(world.registry, admission=admission,
                            tenancy=tenancy, obs=Observability.disabled())
        self._stats: dict[int, TenantStats] = {}
        try:
            run(self._play(client), self.clock)
        finally:
            client.close()
        tenants = {stats.tenant_id: stats for stats in self._stats.values()}
        return RunReport(discipline=spec.discipline, seed=spec.seed,
                         duration=spec.duration, tenants=tenants)

    # -- the schedule -------------------------------------------------------

    def _arrivals(self) -> list[tuple[float, int]]:
        """Every arrival as ``(time, rank)``, in time order.

        An aggressor offers ``multiplier`` times its rank's share of the
        background rate, on top of it.
        """
        spec = self.spec
        root = SeededRng(spec.seed)
        ranks = root.child("tenants")
        arrivals = [(when, self.population.sampler.draw(ranks))
                    for when in _poisson(root.child("interarrivals"),
                                         spec.arrival_rate, 0.0,
                                         spec.duration)]
        for index, aggressor in enumerate(spec.aggressors):
            rate = aggressor.multiplier * spec.arrival_rate * (
                self.population.arrival_share(aggressor.rank))
            arrivals += [(when, aggressor.rank)
                         for when in _poisson(root.child(f"aggressor:{index}"),
                                              rate, aggressor.start,
                                              aggressor.active_until(
                                                  spec.duration))]
        arrivals.sort(key=lambda arrival: arrival[0])
        return arrivals

    async def _play(self, client: RichClient) -> None:
        loop = asyncio.get_running_loop()
        requests = []
        for when, rank in self._arrivals():
            delay = when - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            requests.append(loop.create_task(
                self._request(client, self._stats_for(rank))))
        await asyncio.gather(*requests)

    async def _request(self, client: RichClient, stats: TenantStats) -> None:
        stats.arrivals += 1
        started = self.clock.now()
        with tenant_scope(stats.tenant_id):
            try:
                await client.aio.ainvoke(SERVICE, OPERATION, PAYLOAD,
                                         use_cache=False, coalesce=False)
            except AdmissionRejectedError:
                stats.sheds += 1
                return
        stats.completions += 1
        stats.latencies.append(self.clock.now() - started)

    def _stats_for(self, rank: int) -> TenantStats:
        stats = self._stats.get(rank)
        if stats is None:
            weight = 1.0
            if self.spec.weights is not None:
                weight = float(self.spec.weights.get(rank, 1.0))
            stats = TenantStats(self.population.tenant_id(rank), weight=weight)
            self._stats[rank] = stats
        return stats


def _poisson(rng: SeededRng, rate: float, start: float,
             stop: float) -> Iterator[float]:
    """Arrival instants of a Poisson stream of ``rate`` in ``(start, stop)``."""
    now = start + rng.exponential(rate)
    while now < stop:
        yield now
        now += rng.exponential(rate)


def run_spec(spec: LoadSpec) -> RunReport:
    """Convenience: build a driver for ``spec`` and run it."""
    return LoadDriver(spec).run()
