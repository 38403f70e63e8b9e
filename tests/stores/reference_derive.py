"""The interpreted semi-naive fixpoint, kept verbatim as a test oracle.

``GenericRuleReasoner.derive`` used to read every rule pattern per
binding: ``_rule_bindings`` sliced the other premises out per pivot and
``_unify`` asked ``is_variable`` of each component of each frontier
triple, and ``_conclude`` instantiated each conclusion through
``Rule.instantiate``.  ``derive`` now reads forms its ``Rule`` compiled
once; this copy of the old loop (``self`` turned into ``reasoner``) is
what ``tests/stores/test_derive_differential.py`` compares it with —
the same triples added, in the same order.
"""

from __future__ import annotations

from repro.stores.rdf.graph import Graph, Triple
from repro.stores.rdf.query import Binding, Pattern, is_variable, solve
from repro.stores.rdf.rules import GenericRuleReasoner, Rule


def reference_derive(reasoner: GenericRuleReasoner, graph: Graph,
                     frontier: set[Triple] | None) -> set[Triple]:
    """Run the rules to a fixpoint; returns every triple added.

    ``frontier=None`` means "everything is new" (full evaluation,
    first round unrestricted); a concrete frontier seeds semi-naive
    evaluation from those triples only, and each later round's
    frontier is what the round before it added.  Rules cannot
    invent terms, so the loop always ends.
    """
    added_all: set[Triple] = set()
    while frontier is None or frontier:
        new_triples: set[Triple] = set()
        by_predicate: dict[object, list[Triple]] = {}
        for triple in frontier or ():
            by_predicate.setdefault(triple.predicate, []).append(triple)
        for index, rule in enumerate(reasoner.rules):
            _conclude(reasoner, graph, index, _rule_bindings(
                graph, rule, frontier, by_predicate), new_triples)
        for triple in new_triples:
            graph.add(triple)
        added_all |= new_triples
        frontier = new_triples
    return added_all


def _conclude(reasoner: GenericRuleReasoner, graph: Graph, index: int,
              bindings: list[Binding], new_triples: set[Triple]) -> None:
    """:meth:`derive`'s per-rule hook: add to ``new_triples`` (the
    next frontier) what rule ``index`` concludes under ``bindings``
    that ``graph`` does not hold yet."""
    rule = reasoner.rules[index]
    for binding in bindings:
        if any(not guard(binding) for guard in rule.guards):
            continue
        for conclusion in rule.conclusions:
            triple = rule.instantiate(conclusion, binding)
            if triple not in graph:
                new_triples.add(triple)


def _rule_bindings(
    graph: Graph, rule: Rule, frontier: set[Triple] | None,
    by_predicate: dict[object, list[Triple]],
) -> list[Binding]:
    """Bindings for a rule's premises.

    Semi-naive restriction: when a frontier is given, only consider
    matches where at least one premise is satisfied by a frontier
    triple (anything else was already derived in a previous round).
    A premise with a constant predicate meets only the frontier
    triples that carry it (``by_predicate``, in frontier order).
    """
    if frontier is None:
        return solve(graph, rule.premises)
    bindings: list[Binding] = []
    for pivot_index, pivot in enumerate(rule.premises):
        predicate = pivot[1]
        candidates = (frontier if is_variable(predicate)
                      else by_predicate.get(predicate, ()))
        rest = rule.premises[:pivot_index] + rule.premises[pivot_index + 1:]
        for triple in candidates:
            seed = _unify(pivot, triple)
            if seed is not None:
                bindings.extend(solve(graph, rest, seed))
    return bindings


def _unify(pattern: Pattern, triple: Triple) -> Binding | None:
    binding: Binding = {}
    for component, value in zip(pattern, iter(triple)):
        if is_variable(component):
            if component in binding and binding[component] != value:
                return None
            binding[component] = value
        elif component != value:
            return None
    return binding
