"""repro.tenancy — the multi-tenant serving layer.

Everything the middleware needs to serve many applications from one
process, per the "millions of users" direction in ROADMAP item 1:

* :mod:`repro.tenancy.model` — :class:`Tenant` terms (weight, budget,
  rate, cache isolation) and the thread-safe :class:`TenantRegistry`;
* :mod:`repro.tenancy.context` — contextvar propagation
  (:func:`tenant_scope` / :func:`current_tenant`), the same idiom the
  tracer uses, surviving the hop to the client's loop thread;
* :mod:`repro.tenancy.limits` — per-tenant budgets and token buckets
  composed from :mod:`repro.core.quota` and :mod:`repro.core.ratelimit`
  on the atomic reserve path;
* :mod:`repro.tenancy.scheduling` — :class:`DrrScheduler`, the
  deficit-round-robin queue (with longest-queue push-out) behind
  weighted-fair admission;
* :mod:`repro.tenancy.runtime` — the :class:`Tenancy` facade the
  invoker consults per call (authorize / settle / metrics);
* :mod:`repro.tenancy.resources` — :class:`TenantPkbManager`,
  one Personalized Knowledge Base per tenant.

See ``docs/tenancy.md`` for the guide and ``repro.loadgen`` for the
deterministic load harness that exercises all of it.
"""

from repro.tenancy.context import current_tenant, tenant_scope
from repro.tenancy.limits import (
    TenantBudgetExceededError,
    TenantCharge,
    TenantLimiter,
    TenantRateLimitedError,
)
from repro.tenancy.model import (
    GUEST_PROFILE,
    Tenant,
    TenantRegistry,
    TenantSuspendedError,
    UnknownTenantError,
)
from repro.tenancy.resources import TenantPkbManager
from repro.tenancy.runtime import Tenancy
from repro.tenancy.scheduling import DEFAULT_TENANT, DrrScheduler

__all__ = [
    "Tenant",
    "TenantRegistry",
    "Tenancy",
    "TenantLimiter",
    "TenantCharge",
    "TenantPkbManager",
    "TenantBudgetExceededError",
    "TenantRateLimitedError",
    "TenantSuspendedError",
    "UnknownTenantError",
    "GUEST_PROFILE",
    "DrrScheduler",
    "DEFAULT_TENANT",
    "current_tenant",
    "tenant_scope",
]
