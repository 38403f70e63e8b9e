"""Tenant context propagation.

The serving layer needs to know *whose* request it is executing at
every depth — invoker, cache, bulkhead, knowledge base — without
threading a ``tenant=`` argument through every call signature.  The
same idiom :mod:`repro.obs.tracing` uses for the current span is used
here: a :mod:`contextvars` variable that
:class:`repro.core.aio.runner.LoopRunner` carries onto its loop thread
for free (it starts each task inside a copied context), so an
``invoke_async`` issued inside a :func:`tenant_scope` still executes
as that tenant on the client's loop thread.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

_CURRENT_TENANT: ContextVar[str | None] = ContextVar(
    "repro_tenancy_current_tenant", default=None)


def current_tenant() -> str | None:
    """The tenant id active in this execution context, if any."""
    return _CURRENT_TENANT.get()


@contextmanager
def tenant_scope(tenant_id: str) -> Iterator[str]:
    """Run the enclosed block as ``tenant_id``.

    Scopes nest: the innermost wins, and the previous tenant is
    restored on exit (including on error).  Everything tenant-aware —
    per-tenant budgets and rate limits, tenant-scoped cache namespaces,
    weighted-fair admission, the ``tenant`` span attribute — keys off
    this scope.
    """
    if not tenant_id:
        raise ValueError("tenant_id must be a non-empty string")
    token = _CURRENT_TENANT.set(tenant_id)
    try:
        yield tenant_id
    finally:
        _CURRENT_TENANT.reset(token)
