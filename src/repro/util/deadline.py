"""End-to-end deadlines on the simulation clock.

A caller that gives the SDK one second has given *the whole call chain*
one second — retries, failover hops, queue waits and hedges included.
:class:`Deadline` is the value the Rich SDK threads through
``invoke``/``invoke_async``, retry, failover, hedging, batching,
admission control and the KB pipeline so every layer can answer the
same two questions: "how much budget is left?" and "is it already
spent?".

A deadline is an *absolute* point on the clock (not a duration), so it
naturally survives being passed down through layers that each consume
some of the budget.  It deliberately does **not** derive from
:class:`repro.simnet.errors.NetworkError`: running out of budget is the
caller's condition, not a transient service failure, so retry policies
never retry it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.clock import Clock
from repro.util.errors import ReproError


class DeadlineExceededError(ReproError):
    """The caller's end-to-end budget was spent before the work finished.

    Raised by any layer that checks a :class:`Deadline` and finds it
    expired.  The gateway maps this to a 504 envelope.  Not a
    :class:`~repro.simnet.errors.NetworkError` on purpose — retrying an
    exhausted budget only digs the hole deeper.
    """

    def __init__(self, context: str, expires_at: float, now: float) -> None:
        super().__init__(
            f"deadline exceeded in {context}: expired at t={expires_at:.6f}s, "
            f"now t={now:.6f}s")
        self.context = context
        self.expires_at = expires_at
        self.now = now


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry time on a :class:`~repro.util.clock.Clock`.

    Construct with :meth:`after` ("this call has 2.5 simulated seconds")
    and pass the same object down the stack; each layer calls
    :meth:`remaining`, :meth:`check` or :meth:`clamp` against the shared
    clock, so budget consumed anywhere is visible everywhere.
    """

    clock: Clock
    expires_at: float

    @classmethod
    def after(cls, clock: Clock, budget: float) -> "Deadline":
        """A deadline ``budget`` seconds from now on ``clock``."""
        if budget < 0 or math.isnan(budget):
            raise ValueError(f"budget must be non-negative, got {budget}")
        return cls(clock=clock, expires_at=clock.now() + budget)

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        return max(0.0, self.expires_at - self.clock.now())

    def expired(self) -> bool:
        """Whether the budget is already spent."""
        return self.clock.now() >= self.expires_at

    def check(self, context: str = "call") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        now = self.clock.now()
        if now >= self.expires_at:
            raise DeadlineExceededError(context, self.expires_at, now)

    def clamp(self, timeout: float | None) -> float:
        """The tighter of ``timeout`` and the remaining budget.

        This is how a per-call timeout becomes deadline-aware: a wire
        call may never wait longer than the budget that is left.
        """
        remaining = self.remaining()
        if timeout is None:
            return remaining
        return min(timeout, remaining)
