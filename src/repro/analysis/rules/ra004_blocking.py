"""RA004 — blocking call while holding a lock.

A lock on the invoke hot path must only guard short critical sections:
a ``sleep``, a future ``result()``/``get()``, a queue read, file IO or
a clock ``charge`` (which really sleeps under a ``RealClock``)
executed *inside* a ``with <lock>`` body stalls every other thread
contending for that lock — under heavy traffic that converts one slow
dependency into a convoyed thread pool.

``Condition.wait`` / ``wait_for`` on the *held* condition is exempt
(waiting releases the lock; that is the point of a condition variable).
Waiting on anything else while holding a lock is flagged.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, Rule
from repro.analysis.project import ClassInfo, Project, SourceFile
from repro.analysis.rules.lockscan import (
    LockNode,
    format_lock,
    infer_local_types,
    resolve_lock_expr,
)

#: Receiver-name substrings that mark `.get()` / `.join()` as blocking.
_FUTURE_HINTS = ("future", "flight", "queue", "promise")
_JOIN_HINTS = ("thread", "pool", "worker", "process", "proc")

#: Method names that block regardless of receiver.
_ALWAYS_BLOCKING_ATTRS = frozenset({"sleep", "result", "charge"})
_BLOCKING_BUILTINS = frozenset({"open", "input"})


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "BlockingUnderLockRule", source: SourceFile,
                 info: ClassInfo | None, project: Project,
                 local_types: dict[str, set[str]]) -> None:
        self.rule = rule
        self.source = source
        self.info = info
        self.project = project
        self.local_types = local_types
        self.held: list[LockNode] = []
        self.findings: list[Finding] = []

    # -- lock scoping --------------------------------------------------------

    def _resolve_lock(self, expr: ast.expr) -> LockNode | None:
        if self.info is None:
            return None
        return resolve_lock_expr(expr, self.info, self.project)

    def visit_With(self, node: ast.With) -> None:
        acquired: list[LockNode] = []
        for item in node.items:
            lock = self._resolve_lock(item.context_expr)
            if lock is None:
                self.visit(item.context_expr)
            else:
                self.held.append(lock)
                acquired.append(lock)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    visit_AsyncWith = visit_With

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested def runs later, almost never under this lock.
        return

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    # -- blocking detection ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            reason = self._blocking_reason(node)
            if reason is not None:
                held = ", ".join(format_lock(lock) for lock in self.held)
                self.findings.append(Finding(
                    self.source.relpath, node.lineno, node.col_offset,
                    self.rule.rule_id,
                    f"{reason} while holding {held}; move the blocking "
                    "call outside the critical section"))
        self.generic_visit(node)

    def _blocking_reason(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "sleep":
                return "sleep()"
            if func.id in _BLOCKING_BUILTINS:
                return f"{func.id}() performs blocking IO"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        receiver_text = ast.unparse(func.value).lower()
        if attr in _ALWAYS_BLOCKING_ATTRS:
            what = {"sleep": "sleep()",
                    "result": "Future.result() blocks",
                    "charge": "clock.charge() sleeps under a RealClock"}[attr]
            return what
        if (attr == "get" and any(h in receiver_text for h in _FUTURE_HINTS)
                and not node.args):
            # dict.get(key) takes a positional key; a blocking
            # Future.get()/queue.get() waits with no args (or timeout=).
            return f"{receiver_text}.get() blocks"
        if attr == "join" and any(h in receiver_text for h in _JOIN_HINTS):
            return f"{receiver_text}.join() blocks"
        if attr in {"wait", "wait_for"}:
            held_lock = self._resolve_lock(func.value)
            if held_lock is not None and held_lock in self.held:
                return None  # Condition.wait on the held lock releases it
            return f"{receiver_text}.{attr}() blocks on a foreign waiter"
        return None


class BlockingUnderLockRule(Rule):
    """Flag sleeps, future waits, IO and clock charges under a lock."""

    rule_id = "RA004"
    description = ("blocking call (sleep / Future.result / queue.get / IO / "
                   "clock.charge) inside a `with <lock>` body")

    def check_file(self, source: SourceFile, project: Project) -> list[Finding]:
        """Scan every method and function body with lock-scope tracking."""
        findings: list[Finding] = []
        class_nodes = {info.node: info for info in project.classes
                       if info.source is source}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node in class_nodes:
                info = class_nodes[node]
                for method in info.methods.values():
                    visitor = _Visitor(self, source, info, project,
                                       infer_local_types(method, info, project))
                    for stmt in method.body:
                        visitor.visit(stmt)
                    findings.extend(visitor.findings)
        return findings
