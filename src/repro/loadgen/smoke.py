"""Smoke scenario: the tenancy layer end to end on the real SDK stack.

Where :mod:`repro.loadgen.driver` measures admission at scale, the
smoke run exercises the rest of the tenant contract — ``build_world``
services, :class:`RichClient` with a
:class:`~repro.tenancy.runtime.Tenancy`, weighted-fair admission and
the JSON gateway — and machine-checks it:

* budgets refuse with 429 once a tenant's calls run out;
* rate limits refuse with 429 and an honest ``retry_after``;
* suspension refuses with 403;
* cache namespaces keep one tenant's hits invisible to another;
* per-tenant ledgers and tenant metrics add up;
* a brief driver pass covers a 10,000-tenant Zipf population, and a
  fair bulkhead keeps Jain's index high under a 10x aggressor.

Deterministic for a given seed; CI runs ``python -m repro.loadgen
--smoke --seed 7`` and fails on any violated check.
"""

from __future__ import annotations

from repro.core.admission import AdmissionController, AdmissionLimit
from repro.core.gateway import SdkGateway
from repro.core.invoker import RichClient
from repro.loadgen.driver import LoadSpec, run_spec
from repro.loadgen.workload import Aggressor
from repro.obs import Observability, names
from repro.services.catalog import build_world
from repro.tenancy import Tenancy, Tenant, TenantRegistry


def _check(checks: list[tuple[str, bool]], label: str, passed: bool) -> None:
    checks.append((label, passed))


def run_smoke(seed: int = 7, verbose: bool = True) -> int:
    """Run every smoke check; returns a process exit code (0 = pass)."""
    world = build_world(seed=seed)
    registry = TenantRegistry()
    registry.register(Tenant("alpha", weight=2.0))
    registry.register(Tenant("bravo", max_calls=2))
    registry.register(Tenant("charlie", rate=0.5, burst=1))
    registry.register(Tenant("mallory"))
    registry.suspend("mallory")
    tenancy = Tenancy(registry)
    admission = AdmissionController(
        world.clock, default_limit=AdmissionLimit(max_concurrent=4),
        fair=True, weight_of=tenancy.weight_of)
    client = RichClient(world.registry, admission=admission, tenancy=tenancy,
                        obs=Observability(clock=world.clock))
    gateway = SdkGateway(client)

    def invoke(tenant: str | None, text: str) -> dict:
        envelope = {"method": "invoke",
                    "params": {"service": "lexica-prime",
                               "operation": "analyze",
                               "payload": {"text": text}}}
        if tenant is not None:
            envelope["tenant"] = tenant
        return gateway.handle(envelope)

    checks: list[tuple[str, bool]] = []

    # Plain tenanted call succeeds and is charged to the tenant.
    first = invoke("alpha", "Shares of Vantora Systems rallied in Meridian City.")
    _check(checks, "tenanted invoke returns 200", first["status"] == 200)
    usage = gateway.handle({"method": "tenant_usage",
                            "params": {"tenant": "alpha"}})
    _check(checks, "tenant ledger counted the call",
           usage["status"] == 200 and usage["result"]["calls"] == 1
           and usage["result"]["cost"] > 0)

    # Cache isolation: alpha's repeat hits, bravo's identical request
    # must not see alpha's entry.
    repeat = invoke("alpha", "Shares of Vantora Systems rallied in Meridian City.")
    _check(checks, "same tenant repeat served from cache",
           repeat["status"] == 200 and repeat["result"]["cached"])
    other = invoke("bravo", "Shares of Vantora Systems rallied in Meridian City.")
    _check(checks, "other tenant's identical request is not a cache hit",
           other["status"] == 200 and not other["result"]["cached"])

    # Budget: bravo has max_calls=2 and has spent 1; one more passes,
    # the next refuses with 429.
    second = invoke("bravo", "Orchard Grove announced a new park.")
    refused = invoke("bravo", "Northbridge United won the derby.")
    _check(checks, "budgeted tenant exhausts with 429",
           second["status"] == 200 and refused["status"] == 429
           and refused["error_type"] == "TenantBudgetExceededError")

    # Rate: charlie's bucket holds one token at 0.5/s; the second
    # immediate call refuses with a positive retry_after hint.
    burst_ok = invoke("charlie", "Rates held steady this quarter.")
    throttled = invoke("charlie", "Rates held steady this quarter again.")
    _check(checks, "rate-limited tenant refused with retry_after",
           burst_ok["status"] == 200 and throttled["status"] == 429
           and throttled.get("retry_after", 0) > 0)

    # Suspension: 403, not 429 — backoff will not help.
    forbidden = invoke("mallory", "Anything at all.")
    _check(checks, "suspended tenant refused with 403",
           forbidden["status"] == 403)

    # Untenanted requests still work exactly as before.
    legacy = invoke(None, "Harborline Ferries expanded service.")
    _check(checks, "untenanted invoke unaffected", legacy["status"] == 200)

    # Tenant metrics exist and carry the tenant dimension.
    metrics = client.obs.metrics.snapshot()
    _check(checks, "tenant metrics registered",
           names.TENANT_REQUESTS_TOTAL in metrics
           and names.TENANT_REJECTED_TOTAL in metrics)

    # The driver holds a 10,000-tenant Zipf population (brief run, far
    # over the service's ~110 calls/s: most arrivals are shed).
    big = run_spec(LoadSpec(tenants=10_000, arrival_rate=2_000.0,
                            duration=2.0, seed=seed, discipline="fair"))
    _check(checks, "driver handles a 10k-tenant population",
           big.total_arrivals > 1_000 and len(big.tenants) > 500)

    # A 10x aggressor on a population offering ~60% of the service's
    # capacity: the fair bulkhead must keep Jain's index high.
    fair = run_spec(LoadSpec(tenants=50, arrival_rate=65.0, duration=5.0,
                             seed=seed, discipline="fair",
                             aggressors=(Aggressor(rank=0, multiplier=10.0),)))
    _check(checks, "fair discipline keeps Jain index high under an aggressor",
           fair.fairness() >= 0.9)

    failed = [label for label, passed in checks if not passed]
    if verbose:
        for label, passed in checks:
            print(f"  [{'ok' if passed else 'FAIL'}] {label}")
        print(f"loadgen smoke: {len(checks) - len(failed)}/{len(checks)} "
              f"checks passed (seed={seed})")
    client.close()
    return 1 if failed else 0
