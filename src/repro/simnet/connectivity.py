"""Connectivity model: is the client online right now?

Section 3 of the paper stresses that the personalized knowledge base
must keep working while disconnected and resynchronize later.  The
transport consults a :class:`ConnectivityModel` before every call;
:class:`ScriptedConnectivity` lets tests and benchmarks script exact
offline windows on the simulation clock.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right


class ConnectivityModel(ABC):
    """Decides whether the network is reachable at a given time."""

    @abstractmethod
    def is_online(self, now: float) -> bool:
        """True when calls issued at time ``now`` can reach the network."""


class AlwaysOnline(ConnectivityModel):
    """The trivial model: the network never goes away."""

    def is_online(self, now: float) -> bool:
        return True


class ScriptedConnectivity(ConnectivityModel):
    """Connectivity that toggles at scripted times.

    ``transitions`` is a sorted list of times at which the state flips,
    starting from ``initially_online``.  For example
    ``ScriptedConnectivity([10, 20])`` is online during ``[0, 10)``,
    offline during ``[10, 20)``, and online again from ``20`` on.
    """

    def __init__(self, transitions: list[float], initially_online: bool = True) -> None:
        if sorted(transitions) != list(transitions):
            raise ValueError(f"transitions must be sorted, got {transitions}")
        self.transitions = list(transitions)
        self.initially_online = initially_online

    def is_online(self, now: float) -> bool:
        flips = bisect_right(self.transitions, now)
        online = self.initially_online
        if flips % 2:
            online = not online
        return online

    def next_transition_after(self, now: float) -> float | None:
        """Time of the next state change strictly after ``now``, if any."""
        index = bisect_right(self.transitions, now)
        if index < len(self.transitions):
            return self.transitions[index]
        return None


class ManualConnectivity(ConnectivityModel):
    """Connectivity toggled imperatively — convenient in interactive tests."""

    def __init__(self, online: bool = True) -> None:
        self._online = online

    def is_online(self, now: float) -> bool:
        return self._online

    def go_offline(self) -> None:
        self._online = False

    def go_online(self) -> None:
        self._online = True
