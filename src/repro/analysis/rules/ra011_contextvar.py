"""RA011 — contextvar scope must survive thread hand-offs.

Tenant identity (:func:`repro.tenancy.context.tenant_scope`) and the
current trace span ride on :mod:`contextvars`.  The repo's sanctioned
hand-off point copies the context onto the worker: ``LoopRunner``
enters each task under the submitter's context.  A *bare*
``ThreadPoolExecutor.submit(fn)`` or ``threading.Thread(target=fn)``
silently severs all of it: the work executes as no tenant (billed to
nobody, guest-bucketed, cache-namespaced wrongly) with an orphaned
trace.

Interprocedural resolution does the heavy lifting: the receiver's type
comes from constructor assignments, parameter annotations or a resolved
callee's *return type* (``self._ensure_pool().submit(...)``), and a
project class counts as a **propagating executor** — exempting its
users — when any of its methods reaches ``copy_context`` /
``Context.run``, so wrappers are recognized by what they do, not by a
hardcoded name list.  A submit whose first argument is itself
``<context>.run`` (or a ``partial`` of it) is the propagation idiom and
passes.  Service threads that genuinely must not inherit a tenant
carry a line suppression saying so.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, Rule
from repro.analysis.graph import BARE_EXECUTOR_TYPES
from repro.analysis.project import Project

#: Receiver-name substrings marking an already-copied Context object.
_CONTEXT_HINTS = ("context", "ctx")


def _is_context_run(node: ast.expr) -> bool:
    """``context.run`` / ``ctx.run`` / ``copy_context().run`` / a
    ``partial`` thereof — the sanctioned propagation idiom."""
    if isinstance(node, ast.Attribute) and node.attr == "run":
        receiver = node.value
        if isinstance(receiver, ast.Name):
            return any(hint in receiver.id.lower() for hint in _CONTEXT_HINTS)
        if isinstance(receiver, ast.Call):
            return "copy_context" in ast.unparse(receiver.func)
        return False
    if isinstance(node, ast.Call):
        func_text = ast.unparse(node.func)
        if func_text.endswith("partial") and node.args:
            return _is_context_run(node.args[0])
    return False


def _propagating_classes(project: Project) -> set[str]:
    """Bare names of project classes whose methods reach copy_context."""
    names: set[str] = set()
    for info in project.classes:
        for method in info.methods.values():
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "copy_context":
                    names.add(info.name)
                elif isinstance(func, ast.Attribute) and (
                        func.attr == "copy_context"
                        or _is_context_run(func)):
                    names.add(info.name)
    return names


class ContextvarDisciplineRule(Rule):
    """Flag tenant/trace scope dropped at bare thread hand-offs."""

    rule_id = "RA011"
    description = ("work handed to a bare ThreadPoolExecutor.submit or "
                   "threading.Thread without contextvar propagation — "
                   "tenant and trace scope are silently dropped")
    scope = "project"

    def check(self, project: Project) -> list[Finding]:
        """Resolve every submit/Thread receiver through the call graph."""
        graph = project.call_graph()
        propagating = _propagating_classes(project)
        findings: list[Finding] = []
        for key in sorted(graph.functions):
            info = graph.functions[key]
            local_types = graph.infer_local_types(info.node, info.owner,
                                                  info.source)
            for call in self._calls(info.node):
                finding = self._check_call(call, info, graph, local_types,
                                           propagating)
                if finding is not None:
                    findings.append(finding)
        return findings

    @staticmethod
    def _calls(node: ast.FunctionDef | ast.AsyncFunctionDef):
        from repro.analysis.graph import body_calls

        return body_calls(node)

    def _check_call(self, call: ast.Call, info, graph, local_types,
                    propagating: set[str]) -> Finding | None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "submit":
            types = graph.receiver_types(func, info.source, info.owner,
                                         local_types)
            if not types & BARE_EXECUTOR_TYPES:
                return None
            if types & propagating:
                return None
            if call.args and _is_context_run(call.args[0]):
                return None
            receiver = ast.unparse(func.value)
            return Finding(
                info.source.relpath, call.lineno, call.col_offset,
                self.rule_id,
                f"bare {receiver}.submit() drops contextvars — tenant and "
                "trace scope do not reach the worker; submit "
                "contextvars.copy_context().run")
        thread_name = graph.qualified_name(func, info.source)
        if thread_name == "threading.Thread":
            target = next((keyword.value for keyword in call.keywords
                           if keyword.arg == "target"), None)
            if target is None and len(call.args) >= 2:
                target = call.args[1]
            if target is None or _is_context_run(target):
                return None
            return Finding(
                info.source.relpath, call.lineno, call.col_offset,
                self.rule_id,
                "threading.Thread(target=...) starts without the caller's "
                "contextvars — wrap the target in "
                "contextvars.copy_context().run, or suppress with the "
                "reason the scope must not propagate")
        return None
