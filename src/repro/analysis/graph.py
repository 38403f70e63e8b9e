"""Project-wide symbol table and call graph.

This is the shared resolution layer underneath every interprocedural
rule (RA006, RA008–RA011) and the incremental cache.  It promotes the
shallow type inference RA006 prototyped in ``lockscan`` into one
reusable component:

* a **symbol table**: every module-level function, every class method
  (with base-class lookup), and a per-module import map
  (``from repro.util.deadline import Deadline`` makes the local name
  ``Deadline`` resolve to ``repro.util.deadline.Deadline``);
* **shallow type inference**: parameter annotations, constructor
  assignments, annotated locals, ``self.attr`` reads through the class
  attribute map, container value types, and the *return classes* of
  resolved callees (``pool = self._ensure_pool()`` picks up
  ``_ensure_pool``'s annotated/inferred return type);
* a **call graph**: for every function body, each ``ast.Call`` resolved
  to candidate project functions, recorded as :class:`CallSite` edges
  with line numbers, plus the reverse index;
* a per-file **dependency map** (imports + resolved cross-file edges +
  base classes) that the incremental cache uses for transitive
  invalidation.

Everything is deliberately conservative: a call that cannot be resolved
contributes no edge, ambiguous bare names resolve to nothing, and
nested function/lambda bodies are not attributed to their enclosing
function (they run at an unknown time).  Rules document this as a
soundness limitation; the chaos/runtime layers catch what slips by.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.project import (
    ClassInfo,
    Project,
    SourceFile,
    annotation_class,
)

#: A function's project-unique key: ``module.func`` for module-level
#: functions, ``module.Class.method`` for methods.
FunctionKey = str

#: Stdlib executor types whose ``submit`` does *not* propagate
#: contextvars — the receivers RA011 watches for.
BARE_EXECUTOR_TYPES = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})

#: Container accessors whose result takes the container's value type.
_CONTAINER_READS = frozenset({"get", "pop", "setdefault"})


@dataclass
class FunctionInfo:
    """Signature-level facts about one function or method."""

    key: FunctionKey
    module: str
    name: str
    source: SourceFile
    node: ast.FunctionDef | ast.AsyncFunctionDef
    owner: ClassInfo | None = None
    is_async: bool = False
    #: Positional-or-keyword parameter names, ``self``/``cls`` dropped.
    params: tuple[str, ...] = ()
    #: Keyword-only parameter names.
    kwonly: tuple[str, ...] = ()
    has_vararg: bool = False
    has_kwarg: bool = False
    #: Parameter name -> bare annotated class name (best effort).
    annotations: dict[str, str] = field(default_factory=dict)
    #: Bare class names this function can return (constructor returns
    #: and the return annotation).
    return_classes: frozenset[str] = frozenset()

    @property
    def relpath(self) -> str:
        """The file this function is defined in."""
        return self.source.relpath

    def accepts(self, param: str) -> bool:
        """Whether ``param`` can be passed by keyword."""
        return param in self.params or param in self.kwonly

    def param_index(self, param: str) -> int | None:
        """Positional index of ``param`` (after self/cls), if any."""
        try:
            return self.params.index(param)
        except ValueError:
            return None


@dataclass
class CallSite:
    """One resolved call edge: ``caller`` invokes ``callee`` at a line."""

    caller: FunctionKey
    callee: FunctionKey
    node: ast.Call
    lineno: int
    col: int


@dataclass
class _Scope:
    """Resolution context for one function body."""

    source: SourceFile
    owner: ClassInfo | None
    local_types: dict[str, set[str]] = field(default_factory=dict)


class _BodyCalls(ast.NodeVisitor):
    """Collect the ``ast.Call`` nodes of a body, skipping nested defs."""

    def __init__(self) -> None:
        self.calls: list[ast.Call] = []

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return


def body_calls(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Call]:
    """Every call in ``node``'s own body (nested defs excluded)."""
    visitor = _BodyCalls()
    for stmt in node.body:
        visitor.visit(stmt)
    return visitor.calls


class CallGraph:
    """Symbol table + resolved call edges for a parsed project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: dict[FunctionKey, FunctionInfo] = {}
        #: bare function name -> module-level function keys sharing it.
        self.by_bare_name: dict[str, list[FunctionKey]] = {}
        #: module name -> local name -> fully qualified symbol.
        self.imports: dict[str, dict[str, str]] = {}
        self.out_calls: dict[FunctionKey, list[CallSite]] = {}
        self.in_calls: dict[FunctionKey, list[CallSite]] = {}
        #: relpath -> relpaths this file's resolution depends on.
        self.file_deps: dict[str, set[str]] = {}
        self._module_files = {source.module: source.relpath
                              for source in project.files}
        self._local_types_cache: dict[int, dict[str, set[str]]] = {}
        self._index()
        self._link()

    # -- indexing ----------------------------------------------------------

    def _index(self) -> None:
        for source in self.project.files:
            self.imports[source.module] = self._import_table(source)
            self.file_deps.setdefault(source.relpath, set())
            for node in source.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = self._function_info(node, source, owner=None)
                    self.functions[info.key] = info
                    self.by_bare_name.setdefault(node.name, []).append(info.key)
        for cls in self.project.classes:
            for name, method in cls.methods.items():
                info = self._function_info(method, cls.source, owner=cls)
                self.functions[info.key] = info
            for base in cls.bases:
                base_info = self.project.resolve_class(base)
                if base_info is not None and base_info.source is not cls.source:
                    self._depend(cls.source.relpath, base_info.source.relpath)
        for source in self.project.files:
            for local, qualified in self.imports[source.module].items():
                target = self._module_files.get(qualified)
                if target is None:
                    # "from repro.x import y": the module is repro.x.
                    target = self._module_files.get(
                        qualified.rsplit(".", 1)[0])
                if target is not None and target != source.relpath:
                    self._depend(source.relpath, target)

    def _depend(self, relpath: str, on: str) -> None:
        if on != relpath:
            self.file_deps.setdefault(relpath, set()).add(on)

    @staticmethod
    def _import_table(source: SourceFile) -> dict[str, str]:
        table: dict[str, str] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                # "import a.b.c" binds "a"; "import a.b as x" binds
                # x -> "a.b".
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".", 1)[0]
                        table[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = node.module
                if node.level:
                    # Relative import: anchor on this module's package.
                    package = source.module.rsplit(".", node.level)[0]
                    base = f"{package}.{node.module}" if package else node.module
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = f"{base}.{alias.name}"
        return table

    def _function_info(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                       source: SourceFile,
                       owner: ClassInfo | None) -> FunctionInfo:
        if owner is not None:
            key = f"{owner.qualname}.{node.name}"
        else:
            key = f"{source.module}.{node.name}"
        args = node.args
        positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
        annotations: dict[str, str] = {}
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            annotated = annotation_class(arg.annotation)
            if annotated is not None:
                annotations[arg.arg] = annotated
        if owner is not None and positional and positional[0] in ("self", "cls"):
            positional = positional[1:]
        returns: set[str] = set()
        annotated_return = annotation_class(node.returns)
        if annotated_return is not None:
            returns.add(annotated_return)
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                    continue
                if isinstance(inner, ast.Return) and inner.value is not None:
                    name = self._constructed_class(inner.value)
                    if name is not None:
                        returns.add(name)
        return FunctionInfo(
            key=key, module=source.module, name=node.name, source=source,
            node=node, owner=owner,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            params=tuple(positional),
            kwonly=tuple(arg.arg for arg in args.kwonlyargs),
            has_vararg=args.vararg is not None,
            has_kwarg=args.kwarg is not None,
            annotations=annotations,
            return_classes=frozenset(returns))

    @staticmethod
    def _constructed_class(value: ast.expr) -> str | None:
        """``return Flight(...)`` -> "Flight" (capitalized heuristics)."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name and name[:1].isupper():
            return name
        return None

    # -- method / symbol lookup -------------------------------------------

    def resolve_method(self, info: ClassInfo, method: str) -> FunctionKey | None:
        """Find ``method`` on ``info`` or its (resolvable) base classes."""
        seen: set[str] = set()
        queue: list[ClassInfo] = [info]
        while queue:
            cls = queue.pop(0)
            if cls.qualname in seen:
                continue
            seen.add(cls.qualname)
            if method in cls.methods:
                return f"{cls.qualname}.{method}"
            for base in cls.bases:
                base_info = self.project.resolve_class(base)
                if base_info is not None:
                    queue.append(base_info)
        return None

    def qualified_name(self, func: ast.expr, source: SourceFile) -> str | None:
        """Best-effort dotted name of a callable expression.

        ``create_task`` imported from asyncio -> ``asyncio.create_task``;
        ``asyncio.ensure_future`` -> itself; an unresolvable expression
        -> None.  Used by rules that match *external* APIs exactly.
        """
        table = self.imports.get(source.module, {})
        if isinstance(func, ast.Name):
            return table.get(func.id, func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            head = table.get(func.value.id, func.value.id)
            return f"{head}.{func.attr}"
        return None

    # -- shallow type inference -------------------------------------------

    def infer_local_types(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                          owner: ClassInfo | None,
                          source: SourceFile) -> dict[str, set[str]]:
        """Best-effort local/parameter name -> candidate class names.

        Cached per function node: rules sharing the graph also share
        the inference work.
        """
        cached = self._local_types_cache.get(id(node))
        if cached is not None:
            return cached
        types: dict[str, set[str]] = {}
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            annotated = annotation_class(arg.annotation)
            if annotated is not None:
                types.setdefault(arg.arg, set()).add(annotated)
        scope = _Scope(source=source, owner=owner, local_types=types)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    candidates = self.value_types(stmt.value, scope)
                    if candidates:
                        types.setdefault(target.id, set()).update(candidates)
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                annotated = annotation_class(stmt.annotation)
                if annotated is not None:
                    types.setdefault(stmt.target.id, set()).add(annotated)
        self._local_types_cache[id(node)] = types
        return types

    def value_types(self, value: ast.expr, scope: _Scope) -> set[str]:
        """Candidate class names for an expression's value."""
        owner = scope.owner
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                if func.id in self.project.classes_by_name:
                    return {func.id}
                qualified = self.imports.get(scope.source.module, {}) \
                    .get(func.id)
                tail = (qualified or func.id).rsplit(".", 1)[-1]
                if tail[:1].isupper():
                    # External constructor (ThreadPoolExecutor(...)).
                    return {tail}
                return self._return_types_of(value, scope)
            if isinstance(func, ast.Attribute):
                if func.attr[:1].isupper():
                    # threading.Thread(...), futures.ThreadPoolExecutor(...)
                    return {func.attr}
                if (owner is not None
                        and func.attr in _CONTAINER_READS
                        and isinstance(func.value, ast.Attribute)
                        and isinstance(func.value.value, ast.Name)
                        and func.value.value.id == "self"):
                    return set(owner.attr_types.get(func.value.attr, ()))
                return self._return_types_of(value, scope)
            return set()
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self" and owner is not None):
            return set(owner.attr_types.get(value.attr, ()))
        if isinstance(value, ast.Name):
            return set(scope.local_types.get(value.id, ()))
        return set()

    def _return_types_of(self, call: ast.Call, scope: _Scope) -> set[str]:
        """Union of return classes over the call's resolved targets."""
        types: set[str] = set()
        for key in self.resolve_call(call, scope.source, scope.owner,
                                     scope.local_types):
            info = self.functions.get(key)
            if info is not None:
                types.update(info.return_classes)
        return types

    # -- call resolution ---------------------------------------------------

    def resolve_call(self, call: ast.Call, source: SourceFile,
                     owner: ClassInfo | None,
                     local_types: dict[str, set[str]] | None = None
                     ) -> list[FunctionKey]:
        """Resolve one call to candidate project function keys."""
        local_types = local_types or {}
        func = call.func
        table = self.imports.get(source.module, {})
        if isinstance(func, ast.Name):
            qualified = table.get(func.id)
            if qualified is not None:
                if qualified in self.functions:
                    return [qualified]
                cls = self.project.classes_by_qualname.get(qualified)
                if cls is not None:
                    init = self.resolve_method(cls, "__init__")
                    return [init] if init is not None else []
                return []
            local_key = f"{source.module}.{func.id}"
            if local_key in self.functions:
                return [local_key]
            cls = self.project.resolve_class(func.id)
            if cls is not None:
                init = self.resolve_method(cls, "__init__")
                return [init] if init is not None else []
            bare = self.by_bare_name.get(func.id, [])
            return list(bare) if len(bare) == 1 else []
        if not isinstance(func, ast.Attribute):
            return []
        receiver, method = func.value, func.attr
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and owner is not None:
                key = self.resolve_method(owner, method)
                return [key] if key is not None else []
            qualified = table.get(receiver.id)
            if qualified is not None:
                module_key = f"{qualified}.{method}"
                if module_key in self.functions:
                    return [module_key]
                cls = self.project.classes_by_qualname.get(qualified)
                if cls is not None:
                    key = self.resolve_method(cls, method)
                    return [key] if key is not None else []
            targets: list[FunctionKey] = []
            for type_name in sorted(local_types.get(receiver.id, ())):
                cls = self.project.resolve_class(type_name)
                if cls is not None:
                    key = self.resolve_method(cls, method)
                    if key is not None:
                        targets.append(key)
            return targets
        if (isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self" and owner is not None):
            targets = []
            for type_name in sorted(owner.attr_types.get(receiver.attr, ())):
                cls = self.project.resolve_class(type_name)
                if cls is not None:
                    key = self.resolve_method(cls, method)
                    if key is not None:
                        targets.append(key)
            return targets
        if isinstance(receiver, ast.Call):
            # self._ensure_pool().submit(...): resolve through the
            # callee's inferred return classes.
            scope = _Scope(source=source, owner=owner,
                           local_types=local_types)
            targets = []
            for type_name in sorted(self._return_types_of(receiver, scope)):
                cls = self.project.resolve_class(type_name)
                if cls is not None:
                    key = self.resolve_method(cls, method)
                    if key is not None:
                        targets.append(key)
            return targets
        return []

    def receiver_types(self, func: ast.Attribute, source: SourceFile,
                       owner: ClassInfo | None,
                       local_types: dict[str, set[str]]) -> set[str]:
        """Candidate class names for a method call's receiver."""
        scope = _Scope(source=source, owner=owner, local_types=local_types)
        return self.value_types(func.value, scope)

    # -- linking -----------------------------------------------------------

    def _link(self) -> None:
        for key, info in sorted(self.functions.items()):
            local_types = self.infer_local_types(info.node, info.owner,
                                                 info.source)
            sites: list[CallSite] = []
            for call in body_calls(info.node):
                for callee in self.resolve_call(call, info.source,
                                                info.owner, local_types):
                    sites.append(CallSite(
                        caller=key, callee=callee, node=call,
                        lineno=call.lineno, col=call.col_offset))
                    callee_info = self.functions[callee]
                    self._depend(info.source.relpath, callee_info.relpath)
            self.out_calls[key] = sites
        for sites in self.out_calls.values():
            for site in sites:
                self.in_calls.setdefault(site.callee, []).append(site)

    # -- convenience -------------------------------------------------------

    def callees(self, key: FunctionKey) -> list[FunctionKey]:
        """Distinct callee keys of one function, sorted."""
        return sorted({site.callee for site in self.out_calls.get(key, ())})

    def successors(self) -> dict[FunctionKey, list[FunctionKey]]:
        """The caller -> callees adjacency used by dataflow fixpoints."""
        return {key: self.callees(key) for key in self.functions}
