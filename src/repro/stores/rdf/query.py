"""A SPARQL-like SELECT engine over basic graph patterns.

Patterns are (subject, predicate, object) tuples whose components are
either concrete terms or variables — strings starting with ``?``.
``select`` solves the conjunction of patterns against a graph, applies
optional filters over the bindings, and projects the requested
variables.  This is the query layer Jena's SPARQL engine provides in
the paper (used there to query DBpedia; used here against the local
graph and the simulated knowledge services' exports).

By default ``select`` routes the join through the cost-based planner
(:mod:`repro.stores.rdf.plan`): patterns run most-selective-first and
filters are pushed down to the earliest step that binds their
variables.  ``optimize=False`` keeps the literal user-given order (the
naive engine), which the property tests use as the reference
implementation.  When both ``order_by`` and ``limit`` are given (and
``distinct`` is not), the engine switches to heap-based top-k instead
of a full sort.

Example::

    select(
        graph,
        patterns=[("?country", "rdf:type", "repro:Country"),
                  ("?country", "repro:population_millions", "?pop")],
        variables=["?country", "?pop"],
        filters=[lambda b: b["?pop"] > 100],
        order_by="?pop", descending=True,
    )
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Sequence
from operator import attrgetter

from repro.stores.rdf.graph import Graph, Term

Pattern = tuple[object, object, object]
Binding = dict[str, Term]


def is_variable(term: object) -> bool:
    """Whether a pattern component is a variable (``?name``)."""
    return isinstance(term, str) and term.startswith("?")


_COMPONENTS = (attrgetter("subject"), attrgetter("predicate"), attrgetter("object"))


def _match_pattern(graph: Graph, pattern: Pattern, binding: Binding) -> list[Binding]:
    """All extensions of ``binding`` that satisfy one pattern.

    Whether a component is a variable is read off the *pattern*: a
    bound value is a term even when it starts with ``?``.
    """
    query: list[object] = []
    free = []
    for component, getter in zip(pattern, _COMPONENTS):
        if is_variable(component):
            if component in binding:
                component = binding[component]
            else:
                free.append((component, getter))
                component = None
        elif component is None:
            # ``match`` reads None as a wildcard; no stored term is None.
            return []
        query.append(component)
    extensions = []
    for triple in graph.match(*query):
        extended = dict(binding)
        for variable, getter in free:
            value = getter(triple)
            # A variable repeated inside the pattern must bind one value
            # (identity first: a NaN is not equal to itself).
            bound = extended.setdefault(variable, value)
            if bound is not value and bound != value:
                break
        else:
            extensions.append(extended)
    return extensions


def solve(graph: Graph, patterns: Sequence[Pattern],
          seed: Binding | None = None) -> list[Binding]:
    """All variable bindings satisfying every pattern (natural join).

    Joins in the literal pattern order — the naive reference engine,
    and the one such fold in the package: OPTIONAL groups and rule
    bodies run through it too, extending a ``seed`` binding instead of
    the empty one.  ``select`` reorders via the planner instead; use
    this directly when the given order is meaningful.
    """
    bindings: list[Binding] = [dict(seed or ())]
    for pattern in patterns:
        next_bindings: list[Binding] = []
        for binding in bindings:
            next_bindings.extend(_match_pattern(graph, pattern, binding))
        bindings = next_bindings
        if not bindings:
            break
    return bindings


def solve_optional(
    graph: Graph,
    solutions: list[Binding],
    optional_patterns: Sequence[Pattern],
) -> list[Binding]:
    """SPARQL OPTIONAL semantics (left join).

    Each existing solution is extended by the optional pattern group
    where possible; solutions with no compatible extension survive
    unchanged (their optional variables stay unbound).
    """
    extended: list[Binding] = []
    for binding in solutions:
        extended.extend(solve(graph, optional_patterns, binding) or [binding])
    return extended


def _order_key(value: object) -> tuple[int, object]:
    """A total-order sort key over mixed-type binding values.

    Values are ranked by class — None, then NaN, then numerics, then
    strings, then everything else by its repr — and compared by value
    within a rank.  bool / int / float all coerce to float, so mixed
    numeric columns sort numerically instead of grouping by type name.
    NaN compares false with everything, itself included, so it gets a
    rank of its own: every NaN sorts below every number (where SQLite
    sorts the NULL it stores a NaN ``onum`` as — its ``ORDER BY`` never
    sees one) and ties with every other NaN.  An int beyond float range
    ranks as the infinity of its sign, where ``float()`` would round it.
    """
    if value is None:
        return (0, 0.0)
    if isinstance(value, (bool, int, float)):
        if value != value:
            return (1, 0.0)
        try:
            return (2, float(value))
        except OverflowError:
            return (2, math.inf if value > 0 else -math.inf)
    if isinstance(value, str):
        return (3, value)
    return (4, str(value))


def _binding_key(binding: Binding) -> frozenset:
    """A hashable identity for a binding (order-independent)."""
    return frozenset(binding.items())


def distinct_bindings(bindings: Sequence[Binding]) -> list[Binding]:
    """Drop duplicate bindings, keeping first occurrences in order."""
    seen: set[frozenset] = set()
    unique: list[Binding] = []
    for binding in bindings:
        key = _binding_key(binding)
        if key not in seen:
            seen.add(key)
            unique.append(binding)
    return unique


class RangeFilter:
    """A declarative numeric range filter over one variable.

    Behaves exactly like a hand-written filter callable — it can be
    passed anywhere in ``filters`` — but carries its variable and
    bounds as inspectable data, so execution layers can do better than
    calling it per binding: the planner pushes it down like any
    ``bound_filter`` (it exposes ``variables``), and a store whose
    ``execute_plan`` hook meets it on the object of a ``(?s p ?o)``
    scan evaluates the range inside the scan itself (``Graph`` bisects
    a sorted numeric column, SQLite compares its ``onum`` column).

    Non-numeric binding values never satisfy a RangeFilter (a
    declared numeric range is also a numeric type constraint).
    """

    __slots__ = ("variable", "low", "high", "low_inclusive",
                 "high_inclusive")

    def __init__(self, variable: str, low: float | None = None,
                 high: float | None = None, *,
                 low_inclusive: bool = True,
                 high_inclusive: bool = True) -> None:
        if not is_variable(variable):
            raise ValueError(
                f"RangeFilter needs a ?variable, got {variable!r}")
        self.variable = variable
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive

    @property
    def variables(self) -> frozenset[str]:
        """The single variable this filter reads (planner pushdown hook)."""
        return frozenset((self.variable,))

    def __call__(self, binding: Binding) -> bool:
        """Whether the binding's value is numeric and inside the range."""
        return self.accepts(binding.get(self.variable))

    def accepts(self, value: object) -> bool:
        """The test on the one column's value (what an executor that
        holds columns, not bindings, calls)."""
        if not isinstance(value, (bool, int, float)) or value != value:
            return False  # not a number, NaN included: in no range
        if self.low is not None:
            if self.low_inclusive:
                if value < self.low:
                    return False
            elif value <= self.low:
                return False
        if self.high is not None:
            if self.high_inclusive:
                if value > self.high:
                    return False
            elif value >= self.high:
                return False
        return True

    def __repr__(self) -> str:
        lo = "[" if self.low_inclusive else "("
        hi = "]" if self.high_inclusive else ")"
        return (f"RangeFilter({self.variable} in "
                f"{lo}{self.low}, {self.high}{hi})")


def project_bindings(solutions: list[Binding],
                     variables: Sequence[str]) -> list[Binding]:
    """Project each binding onto ``variables`` (validated)."""
    unknown = [name for name in variables if not is_variable(name)]
    if unknown:
        raise ValueError(f"projection must list variables, got {unknown}")
    return [
        {name: binding[name] for name in variables if name in binding}
        for binding in solutions
    ]


def finish(solutions: list[Binding], variables: Sequence[str] | None,
           distinct: bool, order_by: str | None, descending: bool,
           limit: int | None) -> list[Binding]:
    """The tail of every SELECT: order, project, drop duplicates, cut.

    The sort and the top-k are stable, so rows handed over as sorted
    runs (the sharded router's per-shard answers, in shard order) come
    out as their stable k-way merge.
    """
    if order_by is not None:
        def sort_key(binding: Binding) -> tuple[int, object]:
            return _order_key(binding.get(order_by))

        if limit is not None and not distinct:
            # Top-k: a bounded heap instead of sorting everything.
            # nsmallest/nlargest are stable, so the outcome matches
            # sort + slice exactly.
            chooser = heapq.nlargest if descending else heapq.nsmallest
            solutions = chooser(limit, solutions, key=sort_key)
        else:
            solutions.sort(key=sort_key, reverse=descending)
    if variables is not None:
        solutions = project_bindings(solutions, variables)
    if distinct:
        solutions = distinct_bindings(solutions)
    if limit is not None:
        solutions = solutions[:limit]
    return solutions


def select(
    graph: Graph,
    patterns: Sequence[Pattern],
    variables: Sequence[str] | None = None,
    filters: Sequence[Callable[[Binding], bool]] = (),
    distinct: bool = False,
    order_by: str | None = None,
    descending: bool = False,
    limit: int | None = None,
    optional: Sequence[Pattern] = (),
    optimize: bool = True,
) -> list[Binding]:
    """Run a SELECT query; returns a list of projected bindings.

    ``variables=None`` projects every variable that appears in the
    patterns.  Filters receive full (pre-projection) bindings.
    ``optional`` patterns have SPARQL OPTIONAL (left-join) semantics:
    they enrich solutions when they match but never eliminate one.
    ``optimize=True`` (the default) plans the join order and filter
    placement by cost; the result set is identical to the naive
    engine's, only the evaluation order changes.
    """
    check_select(patterns, optional, limit)
    solutions = join_and_filter(graph, patterns, filters, distinct, order_by,
                                descending, limit, optional, optimize)
    return finish(solutions, variables, distinct, order_by, descending, limit)


def check_select(patterns: Sequence[Pattern], optional: Sequence[Pattern],
                 limit: int | None) -> None:
    """Reject a malformed SELECT before any of it runs."""
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")
    for pattern in list(patterns) + list(optional):
        if len(pattern) != 3:
            raise ValueError(f"patterns must be triples, got {pattern!r}")


def join_and_filter(graph: Graph, patterns: Sequence[Pattern],
                    filters: Sequence[Callable[[Binding], bool]],
                    distinct: bool, order_by: str | None, descending: bool,
                    limit: int | None, optional: Sequence[Pattern],
                    optimize: bool, plan=None) -> list[Binding]:
    """The half of :func:`select` before :func:`finish`: the join (through
    the one dispatch), OPTIONAL, residual filters.

    ``plan`` is a ``QueryPlan`` already built for these patterns and
    filters — the sharded router builds one against its global
    statistics and runs it on every shard; None builds one here.
    """
    filters = list(filters)
    if optimize and patterns:
        # Imported lazily: plan.py imports this module for pattern
        # matching, so a top-level import would be circular.
        from repro.stores.rdf.plan import build_plan, execute_plan

        if plan is None:
            plan = build_plan(graph, patterns, filters)
        # A hint, when nothing below can add, drop or merge rows before
        # the top-k: a store may return just its survivors, in order.
        top = ((order_by, descending, limit)
               if order_by is not None and limit is not None and not distinct
               and not optional and not plan.residual_filters else None)
        solutions = execute_plan(graph, plan, filters, top)
        remaining_filters = [filters[index] for index in plan.residual_filters]
    else:
        solutions = solve(graph, patterns)
        remaining_filters = filters
    if optional:
        solutions = solve_optional(graph, solutions, optional)
    for predicate in remaining_filters:
        solutions = [binding for binding in solutions if predicate(binding)]
    return solutions


def run_select(store, patterns: Sequence[Pattern], **options) -> list[Binding]:
    """A SELECT answered by the store's own ``select`` when it has one
    (the router's scatter / gather, a view's cache, or one installed on
    the instance), else by :func:`select`."""
    runner = getattr(store, "select", None)
    if callable(runner):
        return runner(patterns, **options)
    return select(store, patterns, **options)


def union(
    graph: Graph,
    pattern_groups: Sequence[Sequence[Pattern]],
    variables: Sequence[str] | None = None,
    distinct: bool = True,
    **select_kwargs,
) -> list[Binding]:
    """SPARQL UNION: the concatenation of each group's solutions.

    Groups may bind different variable subsets (as in SPARQL); with
    ``distinct`` (the default) duplicate bindings across groups are
    collapsed.
    """
    combined: list[Binding] = []
    for patterns in pattern_groups:
        combined.extend(
            select(graph, patterns, variables=variables, distinct=False,
                   **select_kwargs)
        )
    if distinct:
        combined = distinct_bindings(combined)
    return combined
