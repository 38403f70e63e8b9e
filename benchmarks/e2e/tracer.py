"""Driver-owned span tracer for the per-layer (traced) run.

Spans are recorded from the benchmark's side of each layer boundary:
:meth:`Tracer.install` replaces a public function on an object the
driver built (an instance attribute, or a module / class attribute
where the program constructs the object itself) with a timing wrapper.
Nothing under ``src/`` is edited and ``repro.obs`` spans are not used.

A span's *self time* is its duration minus the durations of its child
spans.  Self times are aggregated online per span name for every op;
full span records (id, parent, name, start, end, op, thread) are kept
for the first ``span_ops`` ops only, which keeps the trace file
readable and memory bounded on workloads that cross a layer boundary
thousands of times per op.

Each thread has its own stack.  The driver thread's self times
partition the op wall exactly; spans on other threads (the sharded
store's fan-out pool) are aggregated as busy time beside it, never
subtracted from a driver-thread parent.
"""

from __future__ import annotations

import inspect
import threading
from collections import defaultdict
from time import perf_counter_ns

ROOT_SPAN = "driver:op"
"""Name of the per-op root span; its self time is the driver's own glue."""

_MISSING = object()


class _ThreadState:
    """One thread's open-span stack and running totals."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.stack: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)


class Tracer:
    """Times calls into wrapped functions and keeps a bounded span log."""

    def __init__(self, span_ops: int = 25) -> None:
        self.span_ops = span_ops
        self.spans: list[tuple] = []
        self.recording = False
        self.op_id = -1
        self._next_span_id = 0
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple] = []
        self._main = self._state()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- wrapping ----------------------------------------------------------

    def _enter(self) -> tuple[_ThreadState, list]:
        state = self._state()
        span_id = None
        if self.recording:
            span_id = self._next_span_id
            self._next_span_id += 1
        frame = [0, 0, span_id]
        state.stack.append(frame)
        frame[0] = perf_counter_ns()
        return state, frame

    def _exit(self, name: str, state: _ThreadState, frame: list) -> None:
        end = perf_counter_ns()
        stack = state.stack
        stack.pop()
        duration = end - frame[0]
        state.self_ns[name] += duration - frame[1]
        state.calls[name] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        if frame[2] is not None:
            self.spans.append((
                frame[2], parent[2] if parent is not None else None, name,
                frame[0], end, self.op_id, state.thread_name))

    def traced(self, function, name: str):
        """A wrapper around ``function`` that records one span per call."""
        enter, leave = self._enter, self._exit
        if inspect.iscoroutinefunction(function):
            async def async_wrapper(*args, **kwargs):
                state, frame = enter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    leave(name, state, frame)
            return async_wrapper

        def wrapper(*args, **kwargs):
            state, frame = enter()
            try:
                return function(*args, **kwargs)
            finally:
                leave(name, state, frame)
        return wrapper

    def install(self, owner, attribute: str, name: str, function=None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper (undoable).

        Wraps the current attribute, or ``function`` when the owner has
        no such attribute yet or the wrapper should do more than time.
        """
        if function is None:
            function = getattr(owner, attribute)
        previous = vars(owner).get(attribute, _MISSING)
        setattr(owner, attribute, self.traced(function, name))
        self._undo.append((owner, attribute, previous))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._undo:
            owner, attribute, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    def begin_op(self, op_id: int) -> None:
        """Mark the op about to run; full spans are kept for early ops."""
        self.op_id = op_id
        self.recording = op_id < self.span_ops

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Aggregated self time and call counts.

        ``driver`` holds the driver thread (its self times sum to the
        traced op wall), ``all`` adds every other thread's busy time.
        """
        def merged(states):
            self_ns: dict[str, int] = defaultdict(int)
            calls: dict[str, int] = defaultdict(int)
            for state in states:
                for name, value in state.self_ns.items():
                    self_ns[name] += value
                for name, value in state.calls.items():
                    calls[name] += value
            return {"self_ns": dict(self_ns), "calls": dict(calls)}

        with self._lock:
            states = list(self._states)
        return {"driver": merged([self._main]), "all": merged(states)}

    def span_records(self) -> list[dict]:
        """The kept spans as JSON-ready dicts, in completion order."""
        return [
            {"id": span_id, "parent": parent, "name": name, "start_ns": start,
             "end_ns": end, "op": op_id, "thread": thread}
            for span_id, parent, name, start, end, op_id, thread in self.spans
        ]


def layer_of(span_name: str) -> str:
    """``"core.caching:get"`` -> ``"core.caching"``."""
    return span_name.split(":", 1)[0]


def self_times(spans: list[dict]) -> dict[str, int]:
    """Self time per span name from full span records.

    The offline counterpart of the tracer's running totals: a span's
    self time is its duration minus its children's durations.
    """
    children_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            children_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        totals[span["name"]] += duration - children_ns[span["id"]]
    return dict(totals)
