"""Tests for tenant context propagation."""

import pytest

from repro import RichClient, build_world
from repro.tenancy.context import current_tenant, tenant_scope


class TestTenantScope:
    def test_default_is_none(self):
        assert current_tenant() is None

    def test_scope_sets_and_restores(self):
        with tenant_scope("acme") as tenant:
            assert tenant == "acme"
            assert current_tenant() == "acme"
        assert current_tenant() is None

    def test_scopes_nest_innermost_wins(self):
        with tenant_scope("outer"):
            with tenant_scope("inner"):
                assert current_tenant() == "inner"
            assert current_tenant() == "outer"

    def test_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with tenant_scope("acme"):
                raise RuntimeError("boom")
        assert current_tenant() is None

    def test_empty_tenant_rejected(self):
        with pytest.raises(ValueError):
            with tenant_scope(""):
                pass


class TestThreadPoolPropagation:
    def test_executor_carries_tenant_to_worker(self):
        # invoke_async submits inside a copied context, so async invokes
        # issued under a tenant scope execute, on the client's loop
        # thread, as that tenant.
        world = build_world(seed=42, corpus_size=20)
        service = world.service("lexica-prime")
        original = service.ainvoke
        seen = []

        async def observing(operation, payload, timeout=None):
            seen.append(current_tenant())
            return await original(operation, payload, timeout=timeout)

        service.ainvoke = observing
        client = RichClient(world.registry)
        try:
            with tenant_scope("acme"):
                future = client.invoke_async(
                    "lexica-prime", "analyze", {"text": "IBM rose."},
                    use_cache=False)
            future.get(timeout=5.0)
            # Outside the scope, submissions are untenanted again.
            client.invoke_async("lexica-prime", "analyze", {"text": "IBM fell."},
                                use_cache=False).get(timeout=5.0)
        finally:
            client.close()
        assert seen == ["acme", None]
