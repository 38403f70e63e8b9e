"""Cost-based planning for basic-graph-pattern queries.

``query.select`` used to join patterns in exactly the order the user
wrote them — worst case, a pattern matching half the graph runs first
and every later join multiplies it.  The planner reorders patterns
greedily by estimated cardinality (exact index counts for concrete
positions, average fan-out discounts for join variables bound by
earlier steps — see :meth:`Graph.estimate_cardinality`) and pushes
each filter down to the earliest step after which every variable it
references is bound.

The resulting :class:`QueryPlan` is inspectable: ``plan.explain()``
returns a stable, JSON-friendly dict (asserted verbatim in tests) and
``plan.describe()`` a human-readable rendering::

    plan = build_plan(graph, patterns, filters)
    plan.explain()["steps"][0]["pattern"]   # most selective pattern

Filter variables are discovered from an explicit ``variables``
attribute on the callable when present, else from the ``?var`` string
constants in its compiled code (a sound over-approximation: a filter
is only pushed down when the detected set is non-empty and fully
bound).  Filters whose variables cannot be determined run after the
join, exactly where the naive engine ran them.

:func:`execute_plan` is the query layer's one dispatch point between
executors.  A store that can run a plan itself — it has an
``execute_plan(plan, filters, top)`` method, duck-typed and optional — does
so: the in-memory :class:`Graph` joins set-at-a-time in id space, and
:class:`~repro.stores.backends.sqlite.SqliteTripleStore` answers a
range scan (with its top-k) in one SQL statement.  Every other store
(the sharded router on its broadcast route, wrapper stores) and every
plan a hook does not compile is joined by the generic loop here,
:func:`join_by_match`, one ``match`` per binding per step.  All return
the same rows in the same order and record ``plan.actual_rows``, which
``explain()`` then shows beside the estimates
(``kb.explain(..., analyze=True)``).  This is the only pushdown
protocol: the router's scatter route hands each shard the one plan it
built and lets this dispatch decide.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from types import CodeType

from repro.stores.rdf.graph import Graph
from repro.stores.rdf.query import Binding, Pattern, _match_pattern, is_variable
from repro.stores.rdf.stats import BOUND


def filter_variables(predicate: Callable[[Binding], bool]) -> frozenset[str] | None:
    """The ``?variables`` a filter references, or None when unknowable.

    Honors an explicit ``variables`` attribute first (see
    :func:`bound_filter`); otherwise scans the callable's code constants
    (recursively, for nested lambdas / genexprs) for ``?``-prefixed
    strings.  Returns None — "do not push down" — when nothing can be
    detected, e.g. for filters built from closures.
    """
    declared = getattr(predicate, "variables", None)
    if declared is not None:
        return frozenset(declared)
    code = getattr(predicate, "__code__", None)
    if code is None:
        return None
    names: set[str] = set()
    stack: list[object] = [code]
    while stack:
        current = stack.pop()
        consts = current.co_consts if isinstance(current, CodeType) else current
        for const in consts:
            if isinstance(const, str) and const.startswith("?"):
                names.add(const)
            elif isinstance(const, (CodeType, tuple, frozenset)):
                stack.append(const)
    return frozenset(names) if names else None


def bound_filter(
    variables: Sequence[str], predicate: Callable[[Binding], bool]
) -> Callable[[Binding], bool]:
    """Tag a filter with the variables it reads, enabling pushdown.

    Use when the filter closes over variable names instead of naming
    them literally — the planner cannot see through closures.
    """
    predicate.variables = frozenset(variables)  # type: ignore[attr-defined]
    return predicate


@dataclass(frozen=True)
class PlanStep:
    """One join step: a pattern plus the filters applied right after it."""

    pattern: Pattern
    source_index: int
    estimated_rows: float
    bound_before: tuple[str, ...]
    filter_indexes: tuple[int, ...]


class QueryPlan:
    """An ordered join plan over basic graph patterns."""

    def __init__(self, steps: Sequence[PlanStep],
                 residual_filters: tuple[int, ...]) -> None:
        self.steps = list(steps)
        self.residual_filters = residual_filters
        #: Rows alive after each step of the last :func:`execute_plan`
        #: over this plan (0 for steps an empty join never reached);
        #: None until the plan has run.
        self.actual_rows: list[int] | None = None

    def pattern_order(self) -> list[int]:
        """Original pattern indexes in execution order."""
        return [step.source_index for step in self.steps]

    def explain(self) -> dict:
        """A stable, JSON-friendly description of the plan.

        Once the plan has run, each step also carries ``actual_rows``
        beside ``estimated_rows``.
        """
        explained = {
            "strategy": "greedy-selectivity",
            "steps": [
                {
                    "pattern": list(step.pattern),
                    "source_index": step.source_index,
                    "estimated_rows": round(step.estimated_rows, 3),
                    "bound_before": list(step.bound_before),
                    "filters_pushed": list(step.filter_indexes),
                }
                for step in self.steps
            ],
            "residual_filters": list(self.residual_filters),
        }
        if self.actual_rows is not None:
            for entry, actual in zip(explained["steps"], self.actual_rows):
                entry["actual_rows"] = actual
        return explained

    def describe(self) -> str:
        """Human-readable plan rendering, one line per step."""
        lines = []
        for position, step in enumerate(self.steps, start=1):
            pushed = (
                f" | filters {list(step.filter_indexes)}"
                if step.filter_indexes
                else ""
            )
            actual = (
                f" (actual {self.actual_rows[position - 1]})"
                if self.actual_rows is not None
                else ""
            )
            lines.append(
                f"{position}. {step.pattern!r}"
                f"  ~{step.estimated_rows:g} rows{actual}{pushed}"
            )
        if self.residual_filters:
            lines.append(f"residual filters: {list(self.residual_filters)}")
        return "\n".join(lines)


def _estimate(graph: Graph, pattern: Pattern, bound: set[str]) -> float:
    components = tuple(
        (BOUND if component in bound else None)
        if is_variable(component)
        else component
        for component in pattern
    )
    return graph.estimate_cardinality(*components)


def build_plan(
    graph: Graph,
    patterns: Sequence[Pattern],
    filters: Sequence[Callable[[Binding], bool]] = (),
) -> QueryPlan:
    """Order patterns by estimated selectivity and assign filters.

    Greedy: at each step pick the remaining pattern with the lowest
    estimated cardinality given the variables already bound (ties
    break on the original index, which keeps ``explain()`` output
    deterministic).  Each filter is attached to the first step binding
    all of its variables; undetectable or never-bound filters stay
    residual and run after the join.
    """
    normalized = [tuple(pattern) for pattern in patterns]
    filter_vars = [filter_variables(predicate) for predicate in filters]
    remaining = list(range(len(normalized)))
    bound: set[str] = set()
    assigned: set[int] = set()
    steps: list[PlanStep] = []
    while remaining:
        estimated, best = min(
            (_estimate(graph, normalized[index], bound), index)
            for index in remaining)
        remaining.remove(best)
        pattern = normalized[best]
        bound_before = tuple(sorted(bound))
        bound |= {component for component in pattern if is_variable(component)}
        pushed = tuple(
            index
            for index, variables in enumerate(filter_vars)
            if index not in assigned
            and variables is not None
            and variables <= bound
        )
        assigned.update(pushed)
        steps.append(PlanStep(pattern, best, estimated, bound_before, pushed))
    residual = tuple(
        index for index in range(len(filters)) if index not in assigned
    )
    return QueryPlan(steps, residual)


class FanoutPlan:
    """A sharded execution wrapper around a :class:`QueryPlan`.

    Adds the routing layer's decisions — which shards participate, and
    whether the query scatters this one plan over the shards or
    broadcasts a router-level join — on top of the inner join plan.
    The inner plan is built against the sharded store's *global*
    statistics, so its ``explain()`` is byte-identical to the plan a
    single store holding the same triples would produce; only the
    fan-out envelope differs.  On the scatter route it is also the plan
    every shard runs (through :func:`execute_plan`, so a shard with the
    hook pushes it down).
    """

    def __init__(self, plan: QueryPlan, route: str, target_shard: int | None,
                 shards: int) -> None:
        self.plan = plan
        self.route = route
        self.target_shard = target_shard
        self.shards = shards

    def explain(self) -> dict:
        """The inner plan's explain plus a stable fan-out envelope."""
        return {
            "strategy": "shard-fanout",
            "route": self.route,
            "target_shard": self.target_shard,
            "shards": self.shards,
            "plan": self.plan.explain(),
        }

    def describe(self) -> str:
        """Human-readable rendering: routing header, then join steps."""
        target = (f" -> shard {self.target_shard}"
                  if self.target_shard is not None else "")
        header = f"route {self.route}{target} over {self.shards} shard(s)"
        return "\n".join([header, self.plan.describe()])


def build_sharded_plan(
    graph,
    patterns: Sequence[Pattern],
    filters: Sequence[Callable[[Binding], bool]] = (),
    optional: Sequence[Pattern] = (),
) -> FanoutPlan:
    """Plan a query against a (possibly) sharded store.

    Works on any graph: a store without routing hooks plans as one
    ``single-shard`` target.  For a
    :class:`~repro.stores.rdf.shard.ShardedGraph` the route comes from
    its broadcast-vs-colocate decision (duck-typed so this module needs
    no import of the sharding layer).
    """
    inner = build_plan(graph, patterns, filters)
    route_fn = getattr(graph, "route_select", None)
    if route_fn is None:
        return FanoutPlan(inner, "single-shard", 0, 1)
    route, target = route_fn(patterns, optional)
    return FanoutPlan(inner, route, target, getattr(graph, "shard_count", 1))


def execute_plan(
    graph: Graph,
    plan: QueryPlan,
    filters: Sequence[Callable[[Binding], bool]] = (),
    top: tuple[str, bool, int] | None = None,
) -> list[Binding]:
    """Run a plan's join, applying pushed-down filters at each step.

    The one dispatch point between executors (see the module
    docstring): the store's own ``execute_plan`` when it has one, else
    :func:`join_by_match`.  Either way ``plan.actual_rows`` is set.

    ``top = (order_by, descending, limit)`` is ``select``'s advisory
    hint that only that stable top-k of the rows will be read: a hook
    may return just those, in order; the generic loop ignores it.

    Residual filters (``plan.residual_filters``) are *not* applied —
    the caller runs them after OPTIONAL extension, matching the naive
    engine's semantics.
    """
    runner = getattr(graph, "execute_plan", None)
    if runner is not None:
        return runner(plan, filters, top)
    return join_by_match(graph, plan, filters)


def join_by_match(
    graph: Graph,
    plan: QueryPlan,
    filters: Sequence[Callable[[Binding], bool]] = (),
) -> list[Binding]:
    """The generic loop: one ``match`` per binding per step, on any store.

    What :func:`execute_plan` runs for a store without the hook, and
    what a store's own hook hands the plans it does not compile.
    """
    bindings: list[Binding] = [{}]
    counts = plan.actual_rows = [0] * len(plan.steps)
    for position, step in enumerate(plan.steps):
        step_filters = [filters[index] for index in step.filter_indexes]
        next_bindings: list[Binding] = []
        for binding in bindings:
            for extended in _match_pattern(graph, step.pattern, binding):
                if all(predicate(extended) for predicate in step_filters):
                    next_bindings.append(extended)
        bindings = next_bindings
        counts[position] = len(bindings)
        if not bindings:
            break
    return bindings
