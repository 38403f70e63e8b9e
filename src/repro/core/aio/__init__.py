"""The asyncio-native invocation core (event-loop hot path).

The thread-per-in-flight-call :class:`~repro.core.futures.ListenableFuture`
core caps concurrency at thread-pool scale.  This package holds the
invocation hot path as coroutines, and the machinery to await it on
one event loop:

* :class:`AsyncInvoker` — the hot-path body (``ainvoke`` /
  ``ainvoke_batched`` / ``ainvoke_many`` / ``ainvoke_all`` /
  ``ainvoke_with_failover`` / ``ainvoke_redundant``), sharing the
  client's monitor, cache, quota, tenancy and observability.  It is
  the *only* implementation: :class:`~repro.core.invoker.RichClient`'s
  blocking API drives the same coroutines in-thread through a blocking
  binding of their wait points (see :mod:`repro.core.aio.invoker`);
* :class:`LoopRunner` — a dedicated event-loop thread that runs
  coroutines on behalf of blocking callers who want their calls
  loop-served, copying the caller's contextvars (tenant scope, trace
  span) onto the task;
* :class:`AsyncBulkhead` / :class:`AsyncAdmissionController` —
  admission queues and DRR fair scheduling as awaitables;
* :class:`AsyncCoalescer` — single-flight coalescing on asyncio
  futures (followers await a shielded shared flight);
* :class:`AsyncHedgedInvoker` — hedges as cancellable tasks (the
  losing leg is cancelled, not abandoned);
* :class:`AsyncMicroBatcher` — bounded batch windows on asyncio
  futures, no background thread;
* :func:`ainvoke_with_retry` / :class:`AsyncFailoverInvoker` — the
  awaitable entry points of the single retry/failover walk in
  :mod:`repro.core.retry` (backoffs awaited instead of slept).

Concurrency and cancellation rules are documented per-coroutine and in
``docs/async-guide.md``.
"""

from repro.core.aio.admission import AsyncAdmissionController, AsyncBulkhead
from repro.core.aio.batching import AsyncMicroBatcher
from repro.core.aio.coalesce import AsyncCoalescer, AsyncFlight
from repro.core.aio.hedging import AsyncHedgedInvoker
from repro.core.aio.invoker import AsyncInvoker
from repro.core.aio.runner import LoopRunner
from repro.core.retry import FailoverInvoker as AsyncFailoverInvoker
from repro.core.retry import ainvoke_with_retry

__all__ = [
    "AsyncAdmissionController",
    "AsyncBulkhead",
    "AsyncCoalescer",
    "AsyncFailoverInvoker",
    "AsyncFlight",
    "AsyncHedgedInvoker",
    "AsyncInvoker",
    "AsyncMicroBatcher",
    "LoopRunner",
    "ainvoke_with_retry",
]
