"""The generic rule reasoner: user-defined rules over the triple store.

Reproduces Jena's "generic rule reasoner that supports user-defined
rules ... forward chaining, tabled backward chaining, and hybrid
execution strategies":

* :meth:`GenericRuleReasoner.forward` materializes consequences to a
  fixpoint (semi-naive: each round only re-derives from the frontier),
  :meth:`~GenericRuleReasoner.forward_delta` only those of newly added
  triples; both are :meth:`~GenericRuleReasoner.derive`, the one
  fixpoint loop in the package;
* :meth:`GenericRuleReasoner.prove` answers a goal by tabled backward
  chaining (memoized SLD resolution with cycle protection);
* :meth:`GenericRuleReasoner.hybrid` runs one forward pass and then
  answers goals backward against the enriched graph.

Rules are Horn clauses over triple patterns with ``?variables`` and
optional Python guard functions over the bindings::

    Rule(
        premises=[("?x", "repro:parent", "?y"), ("?y", "repro:parent", "?z")],
        conclusions=[("?x", "repro:grandparent", "?z")],
        name="grandparent",
    )
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.stores.rdf.graph import Graph, Triple
from repro.stores.rdf.query import Binding, Pattern, _match_pattern, is_variable, solve

Guard = Callable[[Binding], bool]


@dataclass(frozen=True)
class Rule:
    """A Horn rule: if all premises match, assert all conclusions."""

    premises: tuple[Pattern, ...]
    conclusions: tuple[Pattern, ...]
    name: str = "rule"
    guards: tuple[Guard, ...] = field(default=())

    def __init__(self, premises: Sequence[Pattern], conclusions: Sequence[Pattern],
                 name: str = "rule", guards: Sequence[Guard] = ()) -> None:
        object.__setattr__(self, "premises", tuple(tuple(p) for p in premises))
        object.__setattr__(self, "conclusions", tuple(tuple(c) for c in conclusions))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "guards", tuple(guards))
        head_vars = {
            component
            for conclusion in self.conclusions
            for component in conclusion
            if is_variable(component)
        }
        body_vars = {
            component
            for premise in self.premises
            for component in premise
            if is_variable(component)
        }
        unbound = head_vars - body_vars
        if unbound:
            raise ValueError(
                f"rule {name!r} has unbound conclusion variables: {sorted(unbound)}"
            )

    def instantiate(self, pattern: Pattern, binding: Binding) -> Triple:
        """One of this rule's patterns as a triple under ``binding``."""
        subject, predicate, obj = (
            binding[component] if is_variable(component) else component
            for component in pattern
        )
        return Triple(subject, predicate, obj)


class GenericRuleReasoner:
    """Forward, backward and hybrid execution over a rule set.

    A reasoner *is* its rule list: the predefined reasoners in
    :mod:`repro.stores.rdf.reasoner` only build theirs, and the joint
    fixpoint of several reasoners is one reasoner over all their rules.
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)
        self._rename_counter = 0

    # -- forward chaining --------------------------------------------------

    def forward(self, graph: Graph, max_rounds: int | None = None) -> int:
        """Materialize all rule consequences in ``graph``.

        Returns the number of new triples.  ``max_rounds`` bounds the
        fixpoint iteration (None = run to convergence).
        """
        return len(self.derive(graph, None, max_rounds))

    def forward_delta(
        self,
        graph: Graph,
        delta: Iterable[Triple | tuple],
        max_rounds: int | None = None,
    ) -> int:
        """Materialize only the consequences of ``delta`` triples.

        Semi-naive incremental maintenance: assuming ``graph`` was
        already at fixpoint *before* the delta triples were inserted,
        this derives exactly the new consequences — every fired rule
        instance must use at least one delta (or newly derived) triple.
        The delta triples themselves must already be in the graph.
        Returns the number of new triples.
        """
        frontier = {Graph._coerce(triple) for triple in delta}
        return len(self.derive(graph, frontier, max_rounds))

    def derive(
        self,
        graph: Graph,
        frontier: set[Triple] | None,
        max_rounds: int | None = None,
    ) -> set[Triple]:
        """Run the rules to a fixpoint; returns every triple added.

        ``frontier=None`` means "everything is new" (full evaluation,
        first round unrestricted); a concrete frontier seeds semi-naive
        evaluation from those triples only, and each later round's
        frontier is what the round before it added.
        """
        added_all: set[Triple] = set()
        rounds = 0
        while frontier is None or frontier:
            rounds += 1
            new_triples: set[Triple] = set()
            by_predicate: dict[object, list[Triple]] = {}
            for triple in frontier or ():
                by_predicate.setdefault(triple.predicate, []).append(triple)
            for rule in self.rules:
                for binding in self._rule_bindings(
                        graph, rule, frontier, by_predicate):
                    if any(not guard(binding) for guard in rule.guards):
                        continue
                    for conclusion in rule.conclusions:
                        triple = rule.instantiate(conclusion, binding)
                        if triple not in graph:
                            new_triples.add(triple)
            for triple in new_triples:
                graph.add(triple)
            added_all |= new_triples
            frontier = new_triples
            if max_rounds is not None and rounds >= max_rounds:
                break
        return added_all

    def _rule_bindings(
        self, graph: Graph, rule: Rule, frontier: set[Triple] | None,
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
                seed = self._unify(pivot, triple)
                if seed is not None:
                    bindings.extend(solve(graph, rest, seed))
        return bindings

    @staticmethod
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

    # -- tabled backward chaining -------------------------------------------

    def prove(self, graph: Graph, goal: Pattern, _table: dict | None = None,
              _in_progress: set | None = None) -> list[Binding]:
        """All bindings under which ``goal`` holds (facts or rules).

        Memoizes solved goals in a table and returns no answers for
        goals already on the call stack (cycle protection), which is
        the standard tabling discipline.  Tabled answers are stored
        under *normalized* variable names so that two goals differing
        only in variable naming share one table entry safely.
        """
        goal = tuple(goal)
        table = _table if _table is not None else {}
        in_progress = _in_progress if _in_progress is not None else set()
        key, var_map = self._goal_key(goal)
        inverse = {normalized: original for original, normalized in var_map.items()}
        if key in table:
            return [
                {inverse[name]: value for name, value in binding.items()}
                for binding in table[key]
            ]
        if key in in_progress:
            return []
        in_progress.add(key)

        answers: list[Binding] = []
        seen: set[tuple] = set()

        def admit(binding: Binding) -> None:
            projected = {
                component: binding[component]
                for component in goal
                if is_variable(component) and component in binding
            }
            signature = tuple(sorted(projected.items()))
            if signature not in seen:
                seen.add(signature)
                answers.append(projected)

        # Facts.
        for binding in _match_pattern(graph, goal, {}):
            admit(binding)

        # Rules whose conclusions unify with the goal.
        for rule in self.rules:
            for conclusion in rule.conclusions:
                self._rename_counter += 1
                renamed_rule = self._rename(rule, self._rename_counter)
                renamed_conclusion = renamed_rule.conclusions[
                    rule.conclusions.index(conclusion)
                ]
                unifier = self._unify_patterns(renamed_conclusion, goal)
                if unifier is None:
                    continue
                body_bindings = [unifier]
                for premise in renamed_rule.premises:
                    next_bindings: list[Binding] = []
                    for binding in body_bindings:
                        instantiated = tuple(
                            binding.get(component, component) if is_variable(component)
                            else component
                            for component in premise
                        )
                        for sub_answer in self.prove(graph, instantiated, table, in_progress):
                            merged = dict(binding)
                            conflict = False
                            for variable, value in sub_answer.items():
                                if variable in merged and merged[variable] != value:
                                    conflict = True
                                    break
                                merged[variable] = value
                            # Re-instantiate remaining variables of the premise.
                            for component, bound in zip(premise, instantiated):
                                if is_variable(component) and not is_variable(bound):
                                    merged.setdefault(component, bound)
                            if not conflict:
                                next_bindings.append(merged)
                    body_bindings = next_bindings
                    if not body_bindings:
                        break
                for binding in body_bindings:
                    if any(not guard(binding) for guard in renamed_rule.guards):
                        continue
                    # Map the goal's variables through the unified conclusion.
                    goal_binding: Binding = {}
                    for goal_component, conclusion_component in zip(
                        goal, renamed_conclusion
                    ):
                        if is_variable(goal_component):
                            value = (
                                binding.get(conclusion_component, conclusion_component)
                                if is_variable(conclusion_component)
                                else conclusion_component
                            )
                            if is_variable(value):
                                continue  # genuinely unbound — skip
                            if (
                                goal_component in goal_binding
                                and goal_binding[goal_component] != value
                            ):
                                goal_binding = None  # type: ignore[assignment]
                                break
                            goal_binding[goal_component] = value
                    if goal_binding is not None:
                        admit(goal_binding)

        in_progress.discard(key)
        table[key] = [
            {var_map[name]: value for name, value in binding.items()}
            for binding in answers
        ]
        return answers

    def holds(self, graph: Graph, goal: Pattern) -> bool:
        """Whether a (possibly ground) goal is provable."""
        return bool(self.prove(graph, goal))

    def hybrid(self, graph: Graph, goal: Pattern) -> list[Binding]:
        """One forward pass, then backward proof against the enriched graph."""
        self.forward(graph)
        return self.prove(graph, goal)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _goal_key(goal: Pattern) -> tuple[tuple, dict[str, str]]:
        """Canonical tabling key plus the original→normalized variable map."""
        key = []
        names: dict[str, str] = {}
        for component in goal:
            if is_variable(component):
                names.setdefault(component, f"?v{len(names)}")
                key.append(names[component])
            else:
                key.append(component)
        return tuple(key), names

    @staticmethod
    def _rename(rule: Rule, suffix: int) -> Rule:
        """Rename a rule's variables apart from the goal's.

        Guards index the binding by the rule's own variable names, so
        each is handed the binding under those.
        """
        tag = f"__r{suffix}"

        def rename(pattern: Pattern) -> Pattern:
            return tuple(
                component + tag if is_variable(component) else component
                for component in pattern
            )

        def under_own_names(guard: Guard) -> Guard:
            return lambda binding: guard({
                name.removesuffix(tag): value for name, value in binding.items()
            })

        return Rule(
            premises=[rename(premise) for premise in rule.premises],
            conclusions=[rename(conclusion) for conclusion in rule.conclusions],
            name=rule.name,
            guards=[under_own_names(guard) for guard in rule.guards],
        )

    @staticmethod
    def _unify_patterns(conclusion: Pattern, goal: Pattern) -> Binding | None:
        """Unify a renamed conclusion with a goal pattern.

        Returns a binding over the *conclusion's* variables.  Goal
        variables unify with anything (they are answered later);
        conclusion variables bind to the goal's concrete terms.
        """
        binding: Binding = {}
        for conclusion_component, goal_component in zip(conclusion, goal):
            if is_variable(conclusion_component):
                if is_variable(goal_component):
                    continue
                if (
                    conclusion_component in binding
                    and binding[conclusion_component] != goal_component
                ):
                    return None
                binding[conclusion_component] = goal_component
            elif is_variable(goal_component):
                continue
            elif conclusion_component != goal_component:
                return None
        return binding
