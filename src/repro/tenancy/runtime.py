"""The tenancy runtime the invoker consults on every remote call.

One :class:`Tenancy` object bundles the registry (who exists, at what
weight), the per-tenant limiter (budgets and token buckets) and the
tenant-dimension metrics.  :class:`repro.core.invoker.RichClient`
accepts one and, for every remote call that executes inside a
:func:`~repro.tenancy.context.tenant_scope`:

* resolves the tenant (auto-registering guests when allowed);
* authorizes the call against the tenant's rate limit and budget,
  refusing with a 429-mapped error before any service-level
  protection runs;
* namespaces the cache key so tenants never share cached responses;
* labels the bulkhead queue entry so weighted-fair admission can
  drain per-tenant sub-queues;
* stamps the ``tenant`` attribute on the ``sdk.invoke`` span and
  counts the outcome in ``tenant_requests_total`` /
  ``tenant_rejected_total`` / ``tenant_cost_total``.

Calls with no tenant scope behave exactly as before — tenancy is a
pay-for-what-you-use layer, not a breaking change.
"""

from __future__ import annotations

from repro.obs import NULL_METRICS, names
from repro.tenancy.context import current_tenant
from repro.tenancy.limits import TenantCharge, TenantLimiter
from repro.tenancy.model import Tenant, TenantRegistry
from repro.util.clock import Clock

#: Rejection reason labels for ``tenant_rejected_total``.
REASON_BUDGET = "budget"
REASON_RATE = "rate"
REASON_SHED = "shed"
REASON_SUSPENDED = "suspended"

#: Outcome labels for ``tenant_requests_total``.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"


class Tenancy:
    """Registry + limiter + metrics: the serving layer's tenant brain."""

    def __init__(self, registry: TenantRegistry | None = None,
                 clock: Clock | None = None) -> None:
        self.registry = registry if registry is not None else TenantRegistry()
        self._clock = clock
        self.limiter: TenantLimiter | None = (
            TenantLimiter(clock) if clock is not None else None)
        self.bind_metrics(NULL_METRICS)

    def attach_clock(self, clock: Clock) -> None:
        """Late-bind the clock (the invoker knows it at construction)."""
        if self.limiter is None:
            self._clock = clock
            self.limiter = TenantLimiter(clock)

    def bind_metrics(self, registry) -> None:
        """Register the tenant-dimension instruments."""
        self._metric_requests = registry.counter(
            names.TENANT_REQUESTS_TOTAL,
            "Remote calls per tenant, by outcome.")
        self._metric_rejected = registry.counter(
            names.TENANT_REJECTED_TOTAL,
            "Calls refused by tenant policy, by tenant and reason.")
        self._metric_cost = registry.counter(
            names.TENANT_COST_TOTAL,
            "Monetary cost charged per tenant.")

    # -- per-call protocol --------------------------------------------------

    def resolve(self) -> Tenant | None:
        """The tenant for the current execution context, or None.

        Suspension surfaces here (counted as a rejection); an absent
        scope simply means an untenanted caller.
        """
        tenant_id = current_tenant()
        if tenant_id is None:
            return None
        try:
            return self.registry.resolve(tenant_id)
        except Exception:
            self.count_rejection(tenant_id, REASON_SUSPENDED)
            raise

    def authorize(self, tenant: Tenant,
                  estimated_cost: float = 0.0) -> TenantCharge:
        """Admit one call under the tenant's terms; counts rejections."""
        from repro.tenancy.limits import (
            TenantBudgetExceededError,
            TenantRateLimitedError,
        )
        if self.limiter is None:
            raise RuntimeError("Tenancy has no clock; call attach_clock first")
        try:
            return self.limiter.authorize(tenant, estimated_cost)
        except TenantRateLimitedError:
            self.count_rejection(tenant.tenant_id, REASON_RATE)
            raise
        except TenantBudgetExceededError:
            self.count_rejection(tenant.tenant_id, REASON_BUDGET)
            raise

    def settle(self, tenant: Tenant, charge: TenantCharge,
               actual_cost: float) -> None:
        """Account a successful call: ledger true-up plus metrics."""
        self.limiter.settle(tenant, charge, actual_cost)
        self._metric_requests.inc(tenant=tenant.tenant_id,
                                  outcome=OUTCOME_OK)
        if actual_cost:
            self._metric_cost.inc(actual_cost, tenant=tenant.tenant_id)

    def cancel(self, tenant: Tenant, charge: TenantCharge) -> None:
        """Refund a failed call's charge and count the error."""
        self.limiter.cancel(tenant, charge)
        self._metric_requests.inc(tenant=tenant.tenant_id,
                                  outcome=OUTCOME_ERROR)

    def count_rejection(self, tenant_id: str, reason: str) -> None:
        """Count one refusal in ``tenant_rejected_total``."""
        self._metric_rejected.inc(tenant=tenant_id, reason=reason)

    # -- introspection ------------------------------------------------------

    def usage(self, tenant_id: str) -> dict:
        """One tenant's ledger (calls, cost, throttles)."""
        tenant = self.registry.get(tenant_id)
        if self.limiter is None:
            return {"tenant": tenant_id, "calls": 0, "cost": 0.0,
                    "remaining_calls": tenant.max_calls, "throttled": 0}
        return self.limiter.usage(tenant)

    def usage_report(self) -> list[dict]:
        """Every registered tenant's ledger, sorted by tenant id."""
        return [self.usage(tenant.tenant_id)
                for tenant in sorted(self.registry,
                                     key=lambda entry: entry.tenant_id)]

    def weight_of(self, tenant_id: str) -> float:
        """Fair-share weight used by the weighted-fair bulkheads."""
        return self.registry.weight_of(tenant_id)
