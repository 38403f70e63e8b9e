"""The tenant model: who is calling, and on what terms.

A :class:`Tenant` is one application (or one of its customers) served
by the middleware, carrying the per-customer isolation knobs the
"Large-Scale Intelligent Microservices" direction calls for: a
fair-share **weight** used by the weighted-fair bulkhead scheduler, an
optional **budget** (max calls / max cost across all services), an
optional **rate limit** (token bucket), and whether the tenant's cache
entries live in an isolated namespace.

The :class:`TenantRegistry` is the directory: thread-safe, optionally
auto-registering unknown tenants with a guest profile so an open
population (the load generator drives tens of thousands) does not
need explicit onboarding.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass, replace

from repro.util.errors import NotFoundError, ReproError


class UnknownTenantError(NotFoundError):
    """A request named a tenant the registry has never seen."""

    def __init__(self, tenant_id: str) -> None:
        super().__init__(f"unknown tenant {tenant_id!r}")
        self.tenant_id = tenant_id


class TenantSuspendedError(ReproError):
    """A request arrived for a tenant that has been suspended."""

    def __init__(self, tenant_id: str) -> None:
        super().__init__(f"tenant {tenant_id!r} is suspended")
        self.tenant_id = tenant_id


@dataclass(frozen=True)
class Tenant:
    """One tenant's identity and serving terms.

    ``weight`` is the fair-share weight the weighted-fair scheduler
    uses (a weight-2 tenant drains twice as fast as a weight-1 tenant
    under contention).  ``max_calls`` / ``max_cost`` bound total spend
    across all services (None = unlimited); ``rate`` / ``burst``
    configure a per-tenant token bucket (None = unthrottled).
    ``isolated_cache`` keys the tenant's cache entries under its own
    namespace so tenants can never read each other's cached responses.
    """

    tenant_id: str
    display_name: str = ""
    weight: float = 1.0
    max_calls: int | None = None
    max_cost: float | None = None
    rate: float | None = None
    burst: int = 1
    isolated_cache: bool = True
    suspended: bool = False

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be a non-empty string")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive (or None), got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


#: Profile applied to tenants the registry auto-registers on first sight.
GUEST_PROFILE = Tenant(tenant_id="guest", weight=1.0)


class TenantRegistry:
    """Thread-safe directory of tenants.

    ``auto_register`` (on by default) admits unknown tenants with a
    copy of ``guest_profile`` — the open-population mode the load
    generator relies on.  Turn it off for a closed deployment where
    an unknown tenant is an error.
    """

    def __init__(self, auto_register: bool = True,
                 guest_profile: Tenant = GUEST_PROFILE) -> None:
        self.auto_register = auto_register
        self.guest_profile = guest_profile
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    def register(self, tenant: Tenant) -> Tenant:
        """Add (or replace) one tenant; returns it for chaining."""
        with self._lock:
            self._tenants[tenant.tenant_id] = tenant
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        """Look up a tenant; raises :class:`UnknownTenantError` if absent."""
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise UnknownTenantError(tenant_id)
        return tenant

    def resolve(self, tenant_id: str) -> Tenant:
        """Look up a tenant, auto-registering a guest when allowed.

        Raises :class:`UnknownTenantError` when the tenant is absent
        and auto-registration is off, and
        :class:`TenantSuspendedError` for suspended tenants — resolve
        is the front-door check, so a suspended tenant is refused
        before any protection spends work on it.
        """
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                if not self.auto_register:
                    raise UnknownTenantError(tenant_id)
                tenant = replace(self.guest_profile, tenant_id=tenant_id)
                self._tenants[tenant_id] = tenant
        if tenant.suspended:
            raise TenantSuspendedError(tenant_id)
        return tenant

    def suspend(self, tenant_id: str) -> Tenant:
        """Mark a tenant suspended; its requests are refused at resolve."""
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                raise UnknownTenantError(tenant_id)
            tenant = replace(tenant, suspended=True)
            self._tenants[tenant_id] = tenant
        return tenant

    def weight_of(self, tenant_id: str) -> float:
        """The tenant's fair-share weight (guest weight when unknown)."""
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        return tenant.weight if tenant is not None else self.guest_profile.weight

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __iter__(self) -> Iterator[Tenant]:
        with self._lock:
            return iter(list(self._tenants.values()))
