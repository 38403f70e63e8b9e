"""The generic rule reasoner: user-defined rules over the triple store.

Reproduces Jena's "generic rule reasoner that supports user-defined
rules ... forward chaining, tabled backward chaining, and hybrid
execution strategies":

* :meth:`GenericRuleReasoner.forward` materializes consequences to a
  fixpoint (semi-naive: each round only re-derives from the frontier),
  :meth:`~GenericRuleReasoner.forward_delta` only those of newly added
  triples; both are :meth:`~GenericRuleReasoner.derive`, the one
  fixpoint loop in the package — the confidence-propagating
  :class:`~repro.stores.rdf.provenance.ConfidenceRuleEngine` runs on it
  too, overriding only its per-rule ``_conclude`` hook;
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
        # Compiled once for derive(), which reads no pattern per binding.
        # Per premise, as the semi-naive pivot: its constant predicate
        # (None when a variable), its unifier, the other premises and,
        # when the pivot binds every variable those use, their templates
        # (each is then one membership test, not a join).
        pivots = []
        for index, premise in enumerate(self.premises):
            rest = self.premises[:index] + self.premises[index + 1:]
            ground = {c for pattern in rest for c in pattern
                      if is_variable(c)} <= set(premise)
            pivots.append((None if is_variable(premise[1]) else premise[1],
                           _unifier(premise), rest,
                           tuple(map(_template, rest)) if ground else None))
        object.__setattr__(self, "_pivots", tuple(pivots))
        object.__setattr__(self, "_heads", tuple(map(_template, self.conclusions)))

    def instantiate(self, pattern: Pattern, binding: Binding) -> Triple:
        """One of this rule's patterns as a triple under ``binding``."""
        subject, predicate, obj = (
            binding[component] if is_variable(component) else component
            for component in pattern
        )
        return Triple(subject, predicate, obj)


def _template(pattern: Pattern) -> tuple:
    """``(term, is_variable)`` for s, p and o, flattened: a pattern to
    instantiate under a binding without asking which parts are variables."""
    return tuple(item for component in pattern
                 for item in (component, is_variable(component)))


def _unifier(pattern: Pattern) -> tuple[tuple, tuple, tuple]:
    """How a triple unifies with ``pattern`` as a pivot, compiled.

    ``(checks, repeats, binds)``: the ``(position, constant)`` pairs the
    triple must equal — a constant predicate is left out, because the
    pivot only ever meets triples filed under it — the ``(position,
    earlier position)`` pairs of a variable repeated in the pattern, and
    the ``(position, variable)`` pairs that bind, in first-appearance
    order.
    """
    checks, repeats, binds = [], [], []
    first: dict[str, int] = {}
    for position, component in enumerate(pattern):
        if not is_variable(component):
            if position != 1:
                checks.append((position, component))
        elif component in first:
            repeats.append((position, first[component]))
        else:
            first[component] = position
            binds.append((position, component))
    return tuple(checks), tuple(repeats), tuple(binds)


def _pivot_bindings(graph: Graph, unifier: tuple, rest: tuple[Pattern, ...],
                    probes: tuple | None, candidates: Iterable[Triple],
                    bindings: list[Binding]) -> None:
    """Extend ``bindings`` by every solution of ``rest`` seeded by a
    candidate triple that unifies with the pivot (see :func:`_unifier`).

    With ``probes`` (``rest`` as templates whose variables the pivot
    binds) the only solution is the seed itself, when the graph holds
    every instantiated probe — what ``solve`` answers, without a join.
    """
    checks, repeats, binds = unifier
    for triple in candidates:
        for position, constant in checks:
            if constant != triple[position]:
                break
        else:
            for position, earlier in repeats:
                if triple[earlier] != triple[position]:
                    break
            else:
                seed = {variable: triple[position] for position, variable in binds}
                if probes is None:
                    bindings.extend(solve(graph, rest, seed))
                    continue
                for subject, s_var, predicate, p_var, obj, o_var in probes:
                    if (seed[subject] if s_var else subject,
                            seed[predicate] if p_var else predicate,
                            seed[obj] if o_var else obj) not in graph:
                        break
                else:
                    bindings.append(seed)


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

    def forward(self, graph: Graph) -> int:
        """Materialize all rule consequences; returns the new triple count."""
        return len(self.derive(graph, None))

    def forward_delta(self, graph: Graph, delta: Iterable[Triple | tuple]) -> int:
        """Materialize only the consequences of ``delta`` triples.

        Semi-naive incremental maintenance: assuming ``graph`` was
        already at fixpoint *before* the delta triples were inserted,
        this derives exactly the new consequences — every fired rule
        instance must use at least one delta (or newly derived) triple.
        The delta triples themselves must already be in the graph.
        Returns the number of new triples.
        """
        frontier = set(map(Graph._coerce, delta))
        return len(self.derive(graph, frontier))

    def derive(self, graph: Graph, frontier: set[Triple] | None) -> set[Triple]:
        """Run the rules to a fixpoint; returns every triple added.

        ``frontier=None`` means "everything is new" (full evaluation,
        first round unrestricted); a concrete frontier seeds semi-naive
        evaluation from those triples only, and each later round's
        frontier is what the round before it added.  Rules cannot
        invent terms, so the loop always ends.

        Semi-naive restriction: with a frontier, a rule only considers
        matches where at least one premise (the pivot) is satisfied by a
        frontier triple — anything else was derived in an earlier
        round.  A pivot with a constant predicate meets only the
        frontier triples that carry it (in frontier order), so a rule
        none of whose pivot predicates is in the frontier costs nothing.
        Rule, pivot and frontier order are kept: they decide the order
        in which ``new_triples`` is filled, and with it term interning.
        """
        added_all: set[Triple] = set()
        while frontier is None or frontier:
            new_triples: set[Triple] = set()
            by_predicate: dict[object, list[Triple]] = {}
            for triple in frontier or ():
                group = by_predicate.get(triple.predicate)
                if group is None:
                    by_predicate[triple.predicate] = [triple]
                else:
                    group.append(triple)
            for index, rule in enumerate(self.rules):
                if frontier is None:
                    bindings = solve(graph, rule.premises)
                else:
                    bindings = []
                    for predicate, unifier, rest, probes in rule._pivots:
                        candidates = (frontier if predicate is None
                                      else by_predicate.get(predicate))
                        if candidates:
                            _pivot_bindings(graph, unifier, rest, probes,
                                            candidates, bindings)
                if bindings:
                    self._conclude(graph, index, bindings, new_triples)
            for triple in new_triples:
                graph.add(triple)
            added_all |= new_triples
            frontier = new_triples
        return added_all

    def _conclude(self, graph: Graph, index: int, bindings: list[Binding],
                  new_triples: set[Triple]) -> None:
        """:meth:`derive`'s per-rule hook: add to ``new_triples`` (the
        next frontier) what rule ``index`` concludes under ``bindings``
        (never empty) that ``graph`` does not hold yet."""
        rule = self.rules[index]
        guards = rule.guards
        heads = rule._heads
        for binding in bindings:
            if guards and not all(guard(binding) for guard in guards):
                continue
            for subject, s_var, predicate, p_var, obj, o_var in heads:
                triple = Triple(binding[subject] if s_var else subject,
                                binding[predicate] if p_var else predicate,
                                binding[obj] if o_var else obj)
                if triple not in graph:
                    new_triples.add(triple)

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
