"""Named end-to-end chaos scenarios, runnable via ``python -m repro.chaos``.

Each scenario builds a fresh simulated world, arms a declarative
:class:`~repro.chaos.plan.FaultPlan` on its transport, drives the Rich
SDK / PKB stack through the fault schedule, and grades the evidence
ledger with :func:`repro.chaos.invariants.check_all`.  Everything runs
on a :class:`ManualClock` and seeded rngs, so the same ``(name, seed,
protections)`` triple renders a byte-identical report.

``protections=True`` drives the stack the way a production caller
should: end-to-end :class:`~repro.util.deadline.Deadline`s, deadline-
aware retry/admission, serve-stale-on-error degradation, circuit
breakers and offline-sync queues.  ``protections=False`` is the
**control**: the same fault schedule against a naive caller — retry
loops that sleep through the budget and a write-through store that
swallows offline errors — which demonstrably *fails* the deadline and
lost-update invariants.  The control failing is part of the harness's
contract: it proves the invariants can catch the bugs the protections
exist to prevent.

Every scenario stands on one scaffold, :class:`_Stage`: its setup
(world, armed plan, open ledger), :meth:`_Stage.call` (one timed call),
:meth:`_Call.served` (the one classifier of an answered call) and
:meth:`_Stage.drive` (the ``chaos.scenario`` span and the teardown).
A scenario only says what its caller does.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.analytics.stats import percentile
from repro.chaos.inject import SkewedClock
from repro.chaos.invariants import InvariantReport, ScenarioRun, check_all
from repro.chaos.plan import (
    ClockSkew,
    ErrorBurst,
    FaultPlan,
    FaultSpec,
    FlappingLink,
    LatencySpike,
    Partition,
    PayloadCorruption,
    Window,
)
from repro.core.admission import (
    AdmissionController,
    AdmissionLimit,
    AdmissionRejectedError,
)
from repro.core.caching import ServiceCache, cache_key
from repro.core.circuitbreaker import CircuitBreakerRegistry, CircuitOpenError
from repro.core.invoker import InvocationResult, RichClient
from repro.core.retry import (
    FailoverInvoker,
    RetriesExhaustedError,
    RetryPolicy,
    invoke_with_retry,
)
from repro.crypto.cipher import StreamCipher
from repro.kb.secure import SecureRemoteStore
from repro.kb.sync import OfflineSyncStore
from repro.obs import names
from repro.services.catalog import build_world
from repro.simnet.errors import NetworkError
from repro.stores.kvstore import InMemoryKeyValueStore
from repro.util.deadline import Deadline
from repro.util.errors import NotFoundError

#: 32-byte key for the scenarios' secure remote stores (fixed: the
#: harness must be deterministic, not secret).
_CIPHER_KEY = b"chaos-harness-key-0123456789abcd"

_TEXTS = (
    "IBM shares rose sharply after the announcement.",
    "Globex results were excellent this quarter.",
    "Initech stumbled badly on weak guidance.",
    "Umbrella Corporation expanded into new markets.",
    "Acme Corporation beat every forecast.",
)


@dataclass
class ScenarioResult:
    """One scenario's graded report plus benchmark-friendly numbers."""

    name: str
    report: InvariantReport
    metrics: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.report.passed

    def render(self) -> str:
        """The report's byte-stable text."""
        return self.report.render()


# -- the scaffold ------------------------------------------------------------

class _Call:
    """One issued call: its deadline and how it ended.

    ``deadline`` is the caller's budget as a :class:`Deadline` (None
    when the call has none); the body decides whether to hand it to the
    stack — a protections-off control keeps its SLA on the ledger but
    never tells the stack about it.
    """

    def __init__(self, run: ScenarioRun, deadline: Deadline | None) -> None:
        self.run = run
        self.deadline = deadline
        self.kind: str | None = None
        self.detail = ""

    def classify(self, kind: str, detail: str = "") -> None:
        """Label the call's outcome (one of the ledger's kinds)."""
        self.kind = kind
        self.detail = detail

    def degraded(self, stale_age: float | None) -> None:
        """Label the call degraded, logging the age of what it served."""
        if stale_age is not None:
            self.run.stale_ages.append(stale_age)
        self.classify("degraded")

    def served(self, result: InvocationResult) -> None:
        """Label an answered call: degraded (stale) or a success."""
        if result.degraded:
            self.degraded(result.stale_age)
        else:
            self.classify("success")


class _Stage:
    """One scenario's world, armed fault plan and evidence ledger.

    Building it is the setup: a fresh world, the plan's injector
    installed on its transport, an open :class:`ScenarioRun`.
    :meth:`drive` wraps the scenario's action in the
    ``chaos.scenario`` span and tears down after it; :meth:`call` times
    one logical call onto the ledger.
    """

    def __init__(self, name: str, seed: int, protections: bool,
                 faults: tuple[FaultSpec, ...] = (),
                 max_transport_step: float = 0.0) -> None:
        self.plan = FaultPlan(faults, seed=seed)
        self.world = build_world(seed=seed, corpus_size=12)
        self.clock = self.world.clock
        self.injector = self.plan.injector().install(self.world.transport)
        self.run = ScenarioRun(name, seed, protections,
                               max_transport_step=max_transport_step)

    def degrading_client(self, ttl: float, stale_grace: float,
                         **options) -> RichClient:
        """A client that answers a failed call from in-grace cache.

        Its cache holds entries ``ttl`` seconds and keeps them
        ``stale_grace`` seconds more for degraded serves, so the
        ledger's staleness bound is the sum.
        """
        cache = ServiceCache(capacity=64, ttl=ttl, clock=self.clock,
                             stale_grace=stale_grace)
        self.run.staleness_bound = ttl + stale_grace
        return RichClient(self.world.registry, cache=cache,
                          serve_stale_on_error=True, **options)

    def advance_to(self, when: float) -> None:
        """Charge the clock forward to ``when`` (no-op if already past)."""
        delta = when - self.clock.now()
        if delta > 0:
            self.clock.charge(delta)

    @contextmanager
    def drive(self, client: RichClient) -> Iterator[None]:
        """Run the scenario's action; then close ``client`` and copy
        the injector's fault counts into the ledger."""
        run = self.run
        try:
            with client.obs.tracer.span(
                    names.SPAN_CHAOS_SCENARIO,
                    {"scenario": run.scenario,
                     "protections": run.protections}):
                yield
        finally:
            client.close()
            stats = self.injector.stats
            run.injected = {
                "errors": stats.errors,
                "latency_spikes": stats.latency_spikes,
                "partitions": stats.partitions,
                "corruptions": stats.corruptions,
            }

    @contextmanager
    def call(self, budget: float | None = None) -> Iterator[_Call]:
        """Time one logical call with an optional ``budget`` (seconds).

        The request is counted on entry; its outcome is recorded on exit
        only if the body classified it.  A call that is never classified
        (or raises) is left unaccounted, so counter-consistency shows it
        as an imbalance instead of it vanishing.
        """
        self.run.issue()
        started = self.clock.now()
        deadline = (Deadline.after(self.clock, budget)
                    if budget is not None else None)
        call = _Call(self.run, deadline)
        yield call
        if call.kind is not None:
            self.run.record(
                call.kind, started, self.clock.now(),
                deadline_expires=(deadline.expires_at
                                  if deadline is not None else None),
                detail=call.detail)


def _secure_remote(client: RichClient) -> SecureRemoteStore:
    """The encrypted remote store the sync scenarios replicate into."""
    return SecureRemoteStore(client, "store-standard",
                             StreamCipher(_CIPHER_KEY))


def _write(stage: _Stage, store, key: str, value: object,
           detail: str = "") -> None:
    """One store write, timed onto the ledger as a success."""
    with stage.call() as call:
        store.put(key, value)
        call.classify("success", detail)


def _read_back(run: ScenarioRun, secure: SecureRemoteStore,
               expected: dict[str, object]) -> None:
    """Expect ``expected`` remotely and read every key back (post-heal)."""
    run.expected_state = expected
    for key in sorted(expected):
        try:
            run.remote_state[key] = secure.get(key)
        except NotFoundError:  # repro: ignore[RA002] — a missing key IS the evidence the lost-update check needs
            pass


def _patient_retry(call: _Call, client: RichClient, service: str,
                   payload: dict, policy: RetryPolicy) -> None:
    """The control's retry loop: uncached, deaf to the caller's budget."""
    try:
        invoke_with_retry(
            lambda: client.invoke(service, "analyze", payload,
                                  use_cache=False),
            policy, clock=client.clock, service=service)
        call.classify("success")
    except RetriesExhaustedError:
        call.classify("failure")


def _metrics_from(run: ScenarioRun) -> dict[str, float]:
    """Benchmark-friendly aggregates over the run's call ledger."""
    durations = sorted(call.ended - call.started for call in run.calls)
    requests = max(1, run.requests)
    served = run.count("success") + run.count("degraded")
    return {
        "requests": float(run.requests),
        "successes": float(run.count("success")),
        "degraded": float(run.count("degraded")),
        "failures": float(run.count("failure")),
        "sheds": float(run.count("shed")),
        "success_rate": served / requests,
        "degraded_fraction": run.count("degraded") / requests,
        "p99_latency": percentile(durations, 0.99) if durations else 0.0,
        "faults_injected": float(sum(run.injected.values())),
    }


class _NaiveWriteThroughStore:
    """The protections-off control store: swallows offline write errors.

    Writes locally, then writes through to the remote store — and when
    the network is down it just *drops* the remote write instead of
    queueing it.  This is the bug :class:`OfflineSyncStore` exists to
    prevent, kept here so the no-lost-updates invariant has a positive
    control to catch.
    """

    def __init__(self, remote: SecureRemoteStore) -> None:
        self.remote = remote
        self.local = InMemoryKeyValueStore()
        self.dropped = 0

    def put(self, key: str, value: object) -> None:
        self.local.put(key, value)
        try:
            self.remote.put(key, value)
        except NetworkError:
            self.dropped += 1  # the lost update, silently

    def get(self, key: str) -> object:
        return self.local.get(key)


# -- scenarios ---------------------------------------------------------------

def scenario_error_burst(seed: int, protections: bool) -> ScenarioRun:
    """The premium NLU provider answers 500 for a sustained window.

    Protections on: deadlined calls degrade to in-grace stale cache
    entries, and failover walks to a healthy sibling within budget.
    Protections off: a patient retry loop sleeps far past the caller's
    2-second budget — the deadline invariant catches the overshoot.
    """
    stage = _Stage(
        "error_burst", seed, protections,
        (ErrorBurst(Window(5.0, 60.0), endpoint="lexica-prime", status=500),),
        max_transport_step=1.0)
    budget = 2.0

    if not protections:
        client = RichClient(stage.world.registry)
        policy = RetryPolicy(max_attempts=3, backoff=4.0)
        with stage.drive(client):
            stage.advance_to(5.5)
            for text in _TEXTS[:3]:
                # The caller HAS a 2-second SLA; this stack ignores it.
                with stage.call(budget) as call:
                    _patient_retry(call, client, "lexica-prime",
                                   {"text": text}, policy)
        return stage.run

    client = stage.degrading_client(
        ttl=3.0, stale_grace=30.0, failover=FailoverInvoker(
            default_policy=RetryPolicy(max_attempts=2, backoff=0.1),
            clock=stage.clock))
    with stage.drive(client):
        for text in _TEXTS[:3]:  # warm the cache pre-burst
            with stage.call() as call:
                call.served(client.invoke("lexica-prime", "analyze",
                                          {"text": text}))
        stage.advance_to(5.5)  # inside the burst; entries stale
        for text in _TEXTS[:3]:
            with stage.call(budget) as call:
                call.served(client.invoke(
                    "lexica-prime", "analyze", {"text": text},
                    deadline=call.deadline))
        for text in _TEXTS[3:]:  # failover reaches a healthy sibling
            with stage.call(budget) as call:
                call.served(client.invoke_with_failover(
                    "nlu", "analyze", {"text": text},
                    deadline=call.deadline))
    return stage.run


def scenario_latency_spike(seed: int, protections: bool) -> ScenarioRun:
    """One provider's responses stall by 2.5 simulated seconds.

    Protections on: the wire timeout is clamped to the 1-second
    deadline, so the call is cut at exactly the budget and answered
    from grace-window cache.  Protections off: the caller rides out the
    full stalled response, overshooting the budget.
    """
    stage = _Stage(
        "latency_spike", seed, protections,
        (LatencySpike(Window(2.0, 40.0), endpoint="glotta", extra=2.5),),
        max_transport_step=1.0)
    budget = 1.0

    client = (stage.degrading_client(ttl=1.0, stale_grace=20.0)
              if protections else RichClient(stage.world.registry))
    with stage.drive(client):
        for text in _TEXTS[:2]:  # warm before the spike
            with stage.call() as call:
                call.served(client.invoke("glotta", "analyze",
                                          {"text": text}))
        stage.advance_to(3.0)  # inside the spike; entries stale
        for text in _TEXTS[:2]:
            with stage.call(budget) as call:
                if protections:
                    result = client.invoke("glotta", "analyze",
                                           {"text": text},
                                           deadline=call.deadline)
                else:  # a slow success is still a success...
                    result = client.invoke("glotta", "analyze",
                                           {"text": text}, use_cache=False)
                call.served(result)
        # An unspiked provider stays fast either way.
        with stage.call(budget) as call:
            call.served(client.invoke("lexica-prime", "analyze",
                                      {"text": _TEXTS[4]}, use_cache=False))
    return stage.run


def scenario_partition_sync(seed: int, protections: bool) -> ScenarioRun:
    """A full network partition while the PKB keeps writing.

    Protections on: :class:`OfflineSyncStore` queues the writes and
    replays them after the partition heals — no update is lost.
    Protections off: the naive write-through store silently drops the
    offline writes, and the no-lost-updates invariant catches it.
    """
    stage = _Stage("partition_sync", seed, protections,
                   (Partition(Window(2.0, 6.0)),))
    run = stage.run
    client = RichClient(stage.world.registry)
    secure = _secure_remote(client)
    with stage.drive(client):
        store = (OfflineSyncStore(remote=secure) if protections
                 else _NaiveWriteThroughStore(secure))
        _write(stage, store, "alpha", {"v": 1})  # online: pushed
        stage.advance_to(2.5)  # partitioned
        offline = ("queued offline" if protections
                   else "write-through dropped offline")
        for key, value in (("alpha", {"v": 2}), ("beta", {"v": 1})):
            _write(stage, store, key, value, offline)
        if protections:
            with stage.call() as call:
                assert store.get("alpha") == {"v": 2}  # local-first read
                call.classify("success")
            stage.advance_to(4.0)  # still partitioned
            with stage.call() as call:
                if store.sync() == 0:  # connectivity still down
                    call.classify("failure",
                                  "sync attempt while partitioned")
                else:
                    call.classify("success")
            stage.advance_to(6.5)  # healed
            with stage.call() as call:
                applied = store.sync()
                call.classify("success")
            run.note(f"sync applied={applied} "
                     f"pending={store.pending_count}")
        else:
            stage.advance_to(6.5)
            run.note(f"naive store dropped {store.dropped} "
                     f"remote write(s)")
        _read_back(run, secure, {"alpha": {"v": 2}, "beta": {"v": 1}})
    return run


def scenario_flapping_link(seed: int, protections: bool) -> ScenarioRun:
    """Connectivity flaps on a 2-second duty cycle for 8 seconds.

    Writes land in both online and offline phases, with sync attempts
    interleaved (including one mid-outage that must fail cleanly and
    keep its queue).  Convergence across *multiple* short outages is
    exactly what distinguishes a real offline queue from a lucky one.
    """
    stage = _Stage(
        "flapping_link", seed, protections,
        (FlappingLink(Window(1.0, 9.0), period=2.0, duty_offline=0.5),))
    client = RichClient(stage.world.registry)
    secure = _secure_remote(client)
    store = (OfflineSyncStore(remote=secure) if protections
             else _NaiveWriteThroughStore(secure))

    def try_sync() -> None:
        if not protections:
            return
        with stage.call() as call:
            if store.sync() == 0 and store.pending_count:
                call.classify("failure", "sync attempt while link down")
            else:
                call.classify("success")

    with stage.drive(client):
        stage.advance_to(0.3)   # online
        _write(stage, store, "a", {"v": 1})
        stage.advance_to(1.2)   # offline phase 1
        _write(stage, store, "a", {"v": 2}, "offline")
        _write(stage, store, "b", {"v": 1}, "offline")
        stage.advance_to(2.2)   # online phase
        try_sync()
        stage.advance_to(3.3)   # offline phase 2
        _write(stage, store, "b", {"v": 2}, "offline")
        try_sync()              # must fail cleanly, keep the queue
        stage.advance_to(4.2)   # online
        try_sync()
        stage.advance_to(5.4)   # offline phase 3
        _write(stage, store, "c", {"v": 3}, "offline")
        stage.advance_to(6.3)   # online
        _write(stage, store, "d", {"v": 4})
        stage.advance_to(8.4)   # flapping over
        try_sync()
        if not protections:
            stage.run.note(f"naive store dropped {store.dropped} "
                           f"remote write(s)")
        _read_back(stage.run, secure, {"a": {"v": 2}, "b": {"v": 2},
                                       "c": {"v": 3}, "d": {"v": 4}})
    return stage.run


def scenario_corrupt_payload(seed: int, protections: bool) -> ScenarioRun:
    """Responses from the budget NLU provider are mangled on the wire.

    The garbled payload surfaces as a retryable 502.  Protections on:
    previously-seen requests degrade to in-grace cache entries; a
    never-seen request still fails (there is nothing to degrade to) —
    honest degradation, not invention.
    """
    stage = _Stage(
        "corrupt_payload", seed, protections,
        (PayloadCorruption(Window(2.0, 30.0), endpoint="wordsmith-lite"),),
        max_transport_step=1.5)
    budget = 1.5 if protections else None

    client = (stage.degrading_client(ttl=1.5, stale_grace=20.0)
              if protections else RichClient(stage.world.registry))
    with stage.drive(client):
        for text in _TEXTS[:2]:  # warm before corruption starts
            with stage.call() as call:
                call.served(client.invoke("wordsmith-lite", "analyze",
                                          {"text": text}))
        stage.advance_to(2.5)  # corruption window active
        # The last request was never seen before and has no stale entry
        # to fall back on: it must fail, not fabricate an answer.
        for text in (_TEXTS[0], _TEXTS[1], _TEXTS[4]):
            with stage.call(budget) as call:
                try:
                    call.served(client.invoke(
                        "wordsmith-lite", "analyze", {"text": text},
                        deadline=call.deadline, use_cache=protections))
                except NetworkError:
                    call.classify("failure")
    return stage.run


def scenario_burst_partition(seed: int, protections: bool) -> ScenarioRun:
    """An error burst rolling straight into a partition (the worst case).

    Protections on: the circuit breaker trips during the burst, its
    half-open probe fails into the partition (a legal re-open), and the
    caller rides on grace-window cache until the probe finally lands —
    every breaker transition is checked against the legal state
    machine.  Protections off: a patient retry loop grinds through
    every failure, overshooting the 0.4-second budget by seconds.
    """
    stage = _Stage(
        "burst_partition", seed, protections,
        (ErrorBurst(Window(1.0, 4.0), endpoint="glotta", status=500),
         Partition(Window(4.0, 6.0))),
        max_transport_step=0.4)
    run = stage.run
    budget = 0.4
    ticks = [1.0 + 0.5 * index for index in range(15)]  # t = 1.0 .. 8.0

    if not protections:
        client = RichClient(stage.world.registry)
        policy = RetryPolicy(max_attempts=3, backoff=2.0)
        with stage.drive(client):
            for index, tick in enumerate(ticks[:4]):
                stage.advance_to(tick)
                with stage.call(budget) as call:
                    _patient_retry(call, client, "glotta",
                                   {"text": _TEXTS[index % 2]}, policy)
        return run

    client = stage.degrading_client(ttl=0.8, stale_grace=30.0)
    breakers = CircuitBreakerRegistry(stage.clock, failure_threshold=3,
                                      cooldown=1.5)
    breakers.bind_metrics(client.obs.metrics)
    breaker = breakers.breaker("glotta")
    run.breakers = breakers.all_breakers()

    def degrade(call: _Call, payload: dict, no_fallback: str) -> None:
        stale = client.cache.get_stale(
            cache_key("glotta", "analyze", payload))
        if stale is None:
            call.classify(no_fallback)
        else:
            call.degraded(stale.age)

    with stage.drive(client):
        for text in _TEXTS[:2]:  # warm pre-burst
            with stage.call() as call:
                call.served(client.invoke("glotta", "analyze",
                                          {"text": text}))
        for index, tick in enumerate(ticks):
            stage.advance_to(tick)
            payload = {"text": _TEXTS[index % 2]}
            with stage.call(budget) as call:
                try:
                    # Breaker outside, degradation after: a stale serve
                    # must not mask failures from the breaker.
                    call.served(breaker.call(
                        lambda: client.invoke(
                            "glotta", "analyze", payload,
                            deadline=call.deadline, allow_stale=False)))
                except CircuitOpenError:
                    degrade(call, payload, "shed")
                except NetworkError:  # no fallback: a wire failure
                    degrade(call, payload, "failure")
        run.note(f"breaker opens={breaker.stats.opens} "
                 f"closes={breaker.stats.closes} "
                 f"rejected={breaker.stats.calls_rejected}")
    return run


def scenario_clock_skew_sync(seed: int, protections: bool) -> ScenarioRun:
    """A writer whose clock runs 45 seconds slow syncs across an outage.

    Protections on: :class:`OfflineSyncStore` orders its replay by
    local *sequence number*, so the skewed timestamps embedded in the
    values are irrelevant to convergence.  Protections off: a
    timestamp-LWW merge trusts the skewed clock and drops the newer
    write — the textbook skew-induced lost update.
    """
    stage = _Stage(
        "clock_skew_sync", seed, protections,
        (ClockSkew(Window(0.0, 100.0), offset=-45.0),
         Partition(Window(2.0, 5.0))))
    run = stage.run
    skew = stage.plan.skew_at(0.0)
    writer_clock = SkewedClock(stage.clock, skew)
    client = RichClient(stage.world.registry)
    secure = _secure_remote(client)
    with stage.drive(client):
        stage.advance_to(1.0)
        if protections:
            store = OfflineSyncStore(remote=secure)
            _write(stage, store, "note",  # online: pushed
                   {"value": "v1", "written_at": writer_clock.now()})
            stage.advance_to(2.5)  # partitioned
            second = {"value": "v2", "written_at": writer_clock.now()}
            journal = {"value": "j1", "written_at": writer_clock.now()}
            for key, value in (("note", second), ("journal", journal)):
                _write(stage, store, key, value,
                       "queued offline, skewed stamp")
            stage.advance_to(5.5)  # healed
            with stage.call() as call:
                applied = store.sync()
                call.classify("success")
            run.note(f"sync applied={applied} with writer skew "
                     f"{skew:.6f}s (replay by sequence)")
            expected = {"note": second, "journal": journal}
        else:
            # Control: merge remote state by (skewed) timestamp.  An
            # unskewed peer writes first.
            _write(stage, secure, "note",
                   {"value": "v1", "written_at": stage.clock.now()})
            stage.advance_to(2.5)
            # The skewed writer's update: later in real time, but
            # stamped ~45s in the past.
            second = {"value": "v2", "written_at": writer_clock.now()}
            with stage.call() as call:
                call.classify("success", "held offline, skewed stamp")
            stage.advance_to(5.5)
            with stage.call() as call:
                current = secure.get("note")
                if second["written_at"] > current["written_at"]:
                    secure.put("note", second)
                    call.classify("success")
                else:
                    call.classify("failure", "timestamp merge dropped "
                                             "the newer write")
            run.note("timestamp-LWW merge trusted a clock running "
                     f"{skew:.6f}s slow")
            expected = {"note": second}
        _read_back(run, secure, expected)
    return run


def scenario_deadline_storm(seed: int, protections: bool) -> ScenarioRun:
    """A stuck upstream call pins the bulkhead while deadlined work piles up.

    Protections on: admission control clamps every queue wait to the
    caller's remaining budget — work that cannot finish in time is shed
    *at* its deadline with an honest ``retry_after`` (the queue window,
    never the caller's own budget), and callers with warm cache degrade
    instead.  Protections off: every caller waits out the full queue
    timeout, blowing through its budget before being shed anyway.
    """
    # The fault is load, not the network: the plan is empty.
    stage = _Stage("deadline_storm", seed, protections,
                   max_transport_step=0.5)
    run = stage.run
    budget = 0.3
    admission = AdmissionController(stage.clock, limits={
        "glotta": AdmissionLimit(max_concurrent=1, max_queue=4,
                                 queue_timeout=0.5 if protections else 2.0)})
    cache = ServiceCache(capacity=64, ttl=0.5, clock=stage.clock,
                         stale_grace=10.0)
    if protections:
        run.staleness_bound = 10.5
    client = RichClient(stage.world.registry, cache=cache,
                        admission=admission,
                        serve_stale_on_error=protections)
    with stage.drive(client):
        warm = {"text": _TEXTS[0]}
        with stage.call() as call:
            call.served(client.invoke("glotta", "analyze", warm))
        bulkhead = admission.bulkhead_for("glotta")
        held = bulkhead.try_acquire()  # the stuck call holds the permit
        assert held
        stage.advance_to(1.0)          # warm entry expired, in grace
        for payload in [warm] + [{"text": text} for text in _TEXTS[1:4]]:
            with stage.call(budget) as call:
                try:
                    call.served(client.invoke(
                        "glotta", "analyze", payload,
                        deadline=call.deadline if protections else None))
                except AdmissionRejectedError as error:
                    call.classify("shed")
                    run.note(f"shed reason={error.reason} "
                             f"retry_after={error.retry_after:.6f}")
        bulkhead.release()  # the stuck call finally finishes
        for text in _TEXTS[3:]:  # recovery: permits flow again
            with stage.call(2.0 if protections else None) as call:
                call.served(client.invoke(
                    "glotta", "analyze", {"text": text},
                    deadline=call.deadline, use_cache=False))
        run.note(f"bulkhead shed_deadline="
                 f"{bulkhead.stats.shed_deadline} "
                 f"shed_timeout={bulkhead.stats.shed_timeout} "
                 f"admitted={bulkhead.stats.admitted}")
    return run


#: Every named scenario, in the order ``run_all`` executes them.
SCENARIOS = {
    "error_burst": scenario_error_burst,
    "latency_spike": scenario_latency_spike,
    "partition_sync": scenario_partition_sync,
    "flapping_link": scenario_flapping_link,
    "corrupt_payload": scenario_corrupt_payload,
    "burst_partition": scenario_burst_partition,
    "clock_skew_sync": scenario_clock_skew_sync,
    "deadline_storm": scenario_deadline_storm,
}


def run_scenario(name: str, seed: int = 7,
                 protections: bool = True) -> ScenarioResult:
    """Run one named scenario and grade it against every invariant."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    run = SCENARIOS[name](seed, protections)
    return ScenarioResult(name=name, report=check_all(run),
                          metrics=_metrics_from(run))


def run_all(seed: int = 7, protections: bool = True) -> list[ScenarioResult]:
    """Run the full suite, in registry order."""
    return [run_scenario(name, seed=seed, protections=protections)
            for name in SCENARIOS]
