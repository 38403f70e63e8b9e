"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a frozen, ordered collection of fault specs,
each scoped to a time :class:`Window` on the simulation clock and
optionally to one endpoint.  Plans are pure data — compiling one into
a live :class:`~repro.chaos.inject.ChaosInjector` (via
:meth:`FaultPlan.injector`) is what arms the transport.  Because the
specs are frozen and the injector draws randomness from a seed derived
with :func:`repro.util.rng.derive_seed`, the same plan + seed replays
the exact same fault schedule, call for call.

Spec catalogue (all timings in simulated seconds):

* :class:`ErrorBurst` — an endpoint answers 5xx/429 during a window,
  each call failing with ``probability``.
* :class:`LatencySpike` — responses slow down: ``extra`` seconds added
  and/or the sampled latency multiplied by ``factor`` (slow-drip).
* :class:`Partition` — the network (or one endpoint's route) is
  unreachable for a window.
* :class:`FlappingLink` — connectivity flaps with a duty cycle,
  compiling to a train of short partitions.
* :class:`PayloadCorruption` — response payloads are mangled on the
  wire, which the service client surfaces as a 502.
* :class:`ClockSkew` — a peer's clock runs ``offset`` seconds apart
  (consumed by :class:`~repro.chaos.inject.SkewedClock`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Window:
    """A half-open interval ``[start, end)`` of simulated time."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"window end must be >= start, got [{self.start}, {self.end})")

    def contains(self, now: float) -> bool:
        """Whether ``now`` falls inside this window."""
        return self.start <= now < self.end

    def describe(self) -> str:
        """Stable textual form, used in plan descriptions."""
        return f"[{self.start:g}, {self.end:g})"


@dataclass(frozen=True)
class FaultSpec:
    """Base class for every fault the plan can schedule."""

    def active(self, endpoint: str, now: float) -> bool:
        """Whether this spec applies to ``endpoint`` at time ``now``."""
        window = getattr(self, "window", None)
        if window is not None and not window.contains(now):
            return False
        scoped = getattr(self, "endpoint", None)
        return scoped is None or scoped == endpoint

    def describe(self) -> str:
        """One stable line for :meth:`FaultPlan.describe`."""
        raise NotImplementedError


@dataclass(frozen=True)
class ErrorBurst(FaultSpec):
    """An endpoint returns ``status`` errors during ``window``.

    ``endpoint=None`` bursts every endpoint.  ``probability`` < 1 makes
    the burst flaky rather than solid; the draw comes from the
    injector's own rng stream so it replays exactly.
    """

    window: Window
    endpoint: str | None = None
    status: int = 500
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}")
        if not 400 <= self.status <= 599:
            raise ValueError(f"status must be 4xx/5xx, got {self.status}")

    def describe(self) -> str:
        scope = self.endpoint if self.endpoint is not None else "*"
        return (f"error-burst {scope} {self.window.describe()} "
                f"status={self.status} p={self.probability:g}")


@dataclass(frozen=True)
class LatencySpike(FaultSpec):
    """Responses slow down during ``window``.

    The shaped wire latency is ``sampled * factor + extra``; a large
    ``factor`` models a slow-drip response, a large ``extra`` models a
    stalled hop.
    """

    window: Window
    endpoint: str | None = None
    extra: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.extra < 0:
            raise ValueError(f"extra must be >= 0, got {self.extra}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")

    def describe(self) -> str:
        scope = self.endpoint if self.endpoint is not None else "*"
        return (f"latency-spike {scope} {self.window.describe()} "
                f"extra={self.extra:g} factor={self.factor:g}")


@dataclass(frozen=True)
class Partition(FaultSpec):
    """The network (or one endpoint's route) is down during ``window``."""

    window: Window
    endpoint: str | None = None

    def describe(self) -> str:
        scope = self.endpoint if self.endpoint is not None else "*"
        return f"partition {scope} {self.window.describe()}"


@dataclass(frozen=True)
class FlappingLink(FaultSpec):
    """Connectivity flaps during ``window``.

    Each ``period`` starts with ``duty_offline * period`` seconds of
    outage followed by connectivity; :meth:`offline_windows` expands
    the flapping into plain :class:`Partition`-shaped windows.
    """

    window: Window
    period: float
    duty_offline: float = 0.5
    endpoint: str | None = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0.0 < self.duty_offline < 1.0:
            raise ValueError(
                f"duty_offline must be in (0, 1), got {self.duty_offline}")

    def offline_windows(self) -> list[Window]:
        """The train of outage windows this flapping link produces."""
        windows: list[Window] = []
        start = self.window.start
        while start < self.window.end:
            end = min(start + self.period * self.duty_offline, self.window.end)
            windows.append(Window(start, end))
            start += self.period
        return windows

    def active(self, endpoint: str, now: float) -> bool:
        """Offline phases of the duty cycle count as active."""
        if not self.window.contains(now):
            return False
        if self.endpoint is not None and self.endpoint != endpoint:
            return False
        phase = (now - self.window.start) % self.period
        return phase < self.period * self.duty_offline

    def describe(self) -> str:
        scope = self.endpoint if self.endpoint is not None else "*"
        return (f"flapping {scope} {self.window.describe()} "
                f"period={self.period:g} duty={self.duty_offline:g}")


@dataclass(frozen=True)
class PayloadCorruption(FaultSpec):
    """Response payloads are mangled on the wire during ``window``.

    The mangled payload stays JSON-serializable but loses the fields
    the service client requires, so the failure surfaces as a 502
    :class:`~repro.simnet.errors.RemoteServiceError` — retryable, like
    a real garbled proxy response.
    """

    window: Window
    endpoint: str | None = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}")

    def describe(self) -> str:
        scope = self.endpoint if self.endpoint is not None else "*"
        return (f"corruption {scope} {self.window.describe()} "
                f"p={self.probability:g}")


@dataclass(frozen=True)
class ClockSkew(FaultSpec):
    """A peer's clock runs ``offset`` seconds apart during ``window``.

    Consumed by :class:`~repro.chaos.inject.SkewedClock`; the transport
    itself ignores skew specs (the simulation has one true clock).
    """

    window: Window
    offset: float = 0.0

    def describe(self) -> str:
        return f"clock-skew {self.window.describe()} offset={self.offset:g}"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, frozen set of fault specs plus the seed to replay them."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def of_type(self, spec_type: type) -> list[FaultSpec]:
        """Every spec of one class, in plan order."""
        return [spec for spec in self.specs if isinstance(spec, spec_type)]

    def offline_windows(self, endpoint: str | None = None) -> list[Window]:
        """All outage windows affecting ``endpoint`` (None = global only).

        Partitions scoped to a *different* endpoint are excluded;
        flapping links are expanded into their duty-cycle windows.
        """
        windows: list[Window] = []
        for spec in self.specs:
            scoped = getattr(spec, "endpoint", None)
            if scoped is not None and scoped != endpoint:
                continue
            if isinstance(spec, Partition):
                windows.append(spec.window)
            elif isinstance(spec, FlappingLink):
                windows.extend(spec.offline_windows())
        return sorted(windows, key=lambda window: (window.start, window.end))

    def skew_at(self, now: float) -> float:
        """Accumulated clock-skew offset active at time ``now``."""
        return sum(spec.offset for spec in self.of_type(ClockSkew)
                   if spec.window.contains(now))

    def injector(self, obs=None) -> "ChaosInjector":
        """Compile this plan into a live, seeded injector."""
        from repro.chaos.inject import ChaosInjector

        return ChaosInjector(self, obs=obs)

    def describe(self) -> str:
        """Stable multi-line description (safe to diff across runs)."""
        lines = [f"fault-plan seed={self.seed} specs={len(self.specs)}"]
        lines.extend(f"  - {spec.describe()}" for spec in self.specs)
        return "\n".join(lines)

