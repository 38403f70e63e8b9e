"""RA007 — blocking call inside an ``async def`` body.

A coroutine runs on the event loop's only thread: one synchronous
``time.sleep``, lock ``acquire``, ``Future.result``, ``queue.get``,
thread ``join``, ``clock.charge`` (which really sleeps under a
``RealClock``), sync ``transport.call``, a blocking fan-out
(``invoke_all`` / ``invoke_redundant``, which start a loop of their own
and raise ``RuntimeError`` inside a running one) or file IO stalls
*every* task on that loop — the async core exists precisely so ten
thousand in-flight invocations never wait on one.

Awaited calls are exempt (``await asyncio.sleep(...)`` yields, it does
not block), as is anything on an ``asyncio``/``anyio`` receiver.
Nested synchronous ``def``/``lambda`` bodies are skipped: they run
off-loop (executors, callbacks), almost never inline.  Virtual-clock
charges that are instant by construction carry a
``# repro: ignore[RA007]`` suppression at the call site.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, Rule
from repro.analysis.project import Project, SourceFile

#: Receiver-name substrings that mark `.get()` / `.join()` as blocking.
_FUTURE_HINTS = ("future", "flight", "queue", "promise")
_JOIN_HINTS = ("thread", "pool", "worker", "process", "proc", "runner")

#: Receivers whose methods are loop-native and never block.
_ASYNC_RECEIVERS = ("asyncio", "anyio", "trio")

#: Method names that block regardless of receiver.
_ALWAYS_BLOCKING_ATTRS = frozenset({"sleep", "acquire", "charge"})
_BLOCKING_BUILTINS = frozenset({"open", "input"})


class _CoroutineVisitor(ast.NodeVisitor):
    """Scan one ``async def`` body for synchronous blocking calls."""

    def __init__(self, rule: "AsyncBlockingRule", source: SourceFile,
                 coroutine: str) -> None:
        self.rule = rule
        self.source = source
        self.coroutine = coroutine
        self.findings: list[Finding] = []

    # -- scope boundaries -----------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested sync def runs off-loop (executor, callback) — its
        # body is not this coroutine's critical path.
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        # Nested coroutines get their own visitor from the file walk.
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    def visit_Await(self, node: ast.Await) -> None:
        # An awaited call yields to the loop instead of blocking it;
        # only its *arguments* can still hide a blocking call.
        if isinstance(node.value, ast.Call):
            for child in ast.iter_child_nodes(node.value):
                if child is not node.value.func:
                    self.visit(child)
            return
        self.generic_visit(node)

    # -- blocking detection ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        reason = self._blocking_reason(node)
        if reason is not None:
            self.findings.append(Finding(
                self.source.relpath, node.lineno, node.col_offset,
                self.rule.rule_id,
                f"{reason} inside `async def {self.coroutine}` stalls the "
                "event loop; await the async equivalent instead"))
        self.generic_visit(node)

    def _blocking_reason(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "sleep":
                return "sleep() blocks"
            if func.id in _BLOCKING_BUILTINS:
                return f"{func.id}() performs blocking IO"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        receiver_text = ast.unparse(func.value).lower()
        if any(receiver_text.endswith(name) for name in _ASYNC_RECEIVERS):
            return None
        if attr in _ALWAYS_BLOCKING_ATTRS:
            return {"sleep": "sleep() blocks",
                    "acquire": f"{receiver_text}.acquire() blocks",
                    "charge": (f"{receiver_text}.charge() sleeps under a "
                               "RealClock")}[attr]
        if attr in {"invoke_all", "invoke_redundant"}:
            return (f"{receiver_text}.{attr}() starts an event loop of its "
                    f"own; await the async client's a{attr}()")
        if attr == "result" and any(
                h in receiver_text for h in _FUTURE_HINTS):
            return f"{receiver_text}.result() blocks"
        if (attr == "get" and any(h in receiver_text for h in _FUTURE_HINTS)
                and not node.args):
            # dict.get(key) takes a positional key; a blocking
            # Future.get()/queue.get() waits with no args (or timeout=).
            return f"{receiver_text}.get() blocks"
        if attr == "join" and any(h in receiver_text for h in _JOIN_HINTS):
            return f"{receiver_text}.join() blocks"
        if attr in {"wait", "wait_for"}:
            return f"{receiver_text}.{attr}() blocks the loop thread"
        if attr == "call" and "transport" in receiver_text:
            return (f"sync {receiver_text}.call() charges the clock "
                    "inline; use acall()")
        return None


class AsyncBlockingRule(Rule):
    """Flag sleeps, lock acquires, future waits, clock charges and sync
    transport calls written directly inside coroutine bodies."""

    rule_id = "RA007"
    description = ("blocking call (sleep / lock.acquire / Future.result / "
                   "queue.get / clock.charge / sync transport.call / "
                   "invoke_all / invoke_redundant / IO) inside an "
                   "`async def` body")

    def check_file(self, source: SourceFile, project: Project) -> list[Finding]:
        """Visit every coroutine body in the file (nested ones too)."""
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                visitor = _CoroutineVisitor(self, source, node.name)
                for stmt in node.body:
                    visitor.visit(stmt)
                findings.extend(visitor.findings)
        return findings
