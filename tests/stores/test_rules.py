"""Tests for the generic (user-defined) rule reasoner."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro.kb
import repro.stores
from repro.stores.rdf import rules as rules_module
from repro.stores.rdf.graph import Graph
from repro.stores.rdf.provenance import ConfidenceRuleEngine
from repro.stores.rdf.query import solve
from repro.stores.rdf.reasoner import RdfsReasoner, TransitiveReasoner
from repro.stores.rdf.rules import GenericRuleReasoner, Rule

PARENT = "repro:parent"
GRANDPARENT = "repro:grandparent"
ANCESTOR = "repro:ancestor"
SIBLING = "repro:sibling"


@pytest.fixture
def family():
    return Graph([
        ("tom", PARENT, "bob"),
        ("tom", PARENT, "liz"),
        ("bob", PARENT, "ann"),
        ("ann", PARENT, "sue"),
    ])


GRANDPARENT_RULE = Rule(
    premises=[("?x", PARENT, "?y"), ("?y", PARENT, "?z")],
    conclusions=[("?x", GRANDPARENT, "?z")],
    name="grandparent",
)

ANCESTOR_RULES = [
    Rule([("?x", PARENT, "?y")], [("?x", ANCESTOR, "?y")], name="anc-base"),
    Rule([("?x", PARENT, "?y"), ("?y", ANCESTOR, "?z")],
         [("?x", ANCESTOR, "?z")], name="anc-rec"),
]


class TestRuleValidation:
    def test_unbound_conclusion_variable_rejected(self):
        with pytest.raises(ValueError):
            Rule([("?x", PARENT, "?y")], [("?x", GRANDPARENT, "?z")])

    def test_ground_conclusions_allowed(self):
        Rule([("?x", PARENT, "?y")], [("someone", "repro:hasChildren", "yes")])


class TestForwardChaining:
    def test_simple_join_rule(self, family):
        reasoner = GenericRuleReasoner([GRANDPARENT_RULE])
        added = reasoner.forward(family)
        assert added == 2
        assert ("tom", GRANDPARENT, "ann") in family
        assert ("bob", GRANDPARENT, "sue") in family

    def test_recursive_rules_reach_fixpoint(self, family):
        reasoner = GenericRuleReasoner(ANCESTOR_RULES)
        reasoner.forward(family)
        ancestors_of_tom = {t.object for t in family.match("tom", ANCESTOR, None)}
        assert ancestors_of_tom == {"bob", "liz", "ann", "sue"}

    def test_bound_value_starting_with_question_mark_is_a_term(self):
        # Bound to ?o, "?what" used to act as a wildcard in the second
        # premise and derive ("a", "echo", "x") and ("a", "echo", "y").
        graph = Graph([("a", "says", "?what"), ("b", "p", "x"), ("c", "p", "y")])
        rule = Rule(premises=[("?s", "says", "?o"), ("?o", "p", "?z")],
                    conclusions=[("?s", "echo", "?z")])
        assert GenericRuleReasoner([rule]).forward(graph) == 0
        graph.add(("?what", "p", "z"))
        assert GenericRuleReasoner([rule]).forward(graph) == 1
        assert ("a", "echo", "z") in graph

    def test_forward_idempotent(self, family):
        reasoner = GenericRuleReasoner(ANCESTOR_RULES)
        reasoner.forward(family)
        assert reasoner.forward(family) == 0

    def test_guards_filter_bindings(self, family):
        family.add(("bob", "repro:age", 60))
        family.add(("ann", "repro:age", 30))
        rule = Rule(
            premises=[("?x", "repro:age", "?a")],
            conclusions=[("?x", "repro:senior", "true")],
            guards=[lambda binding: binding["?a"] >= 50],
        )
        GenericRuleReasoner([rule]).forward(family)
        assert ("bob", "repro:senior", "true") in family
        assert ("ann", "repro:senior", "true") not in family

    def test_guards_read_the_rules_own_names_under_every_strategy(self):
        # prove() renames the rule's variables apart from the goal's;
        # the guard used to be handed the renamed binding (KeyError).
        rule = Rule([("?p", "age", "?a")], [("?p", "is", "senior")],
                    guards=[lambda binding: binding["?a"] >= 50])
        reasoner = GenericRuleReasoner([rule])
        graph = Graph([("bob", "age", 60), ("ann", "age", 30)])
        assert reasoner.prove(graph, ("?who", "is", "senior")) == [
            {"?who": "bob"}]
        assert reasoner.holds(graph, ("bob", "is", "senior"))
        assert not reasoner.holds(graph, ("ann", "is", "senior"))
        assert ("bob", "is", "senior") not in graph  # proved, not asserted
        assert reasoner.hybrid(graph, ("?who", "is", "senior")) == [
            {"?who": "bob"}]
        assert ("bob", "is", "senior") in graph

    def test_multiple_conclusions(self, family):
        rule = Rule(
            premises=[("?x", PARENT, "?y")],
            conclusions=[("?y", "repro:child_of", "?x"),
                         ("?x", "repro:has_child", "true")],
        )
        GenericRuleReasoner([rule]).forward(family)
        assert ("bob", "repro:child_of", "tom") in family
        assert ("tom", "repro:has_child", "true") in family

    def test_cyclic_data_terminates(self):
        graph = Graph([("a", PARENT, "b"), ("b", PARENT, "a")])
        reasoner = GenericRuleReasoner(ANCESTOR_RULES)
        reasoner.forward(graph)
        assert ("a", ANCESTOR, "a") in graph  # cycles make you your own ancestor

    def test_semi_naive_matches_naive(self, family):
        """The frontier optimization must not change the result."""
        fast = Graph(family)
        GenericRuleReasoner(ANCESTOR_RULES + [GRANDPARENT_RULE]).forward(fast)

        slow = Graph(family)
        # Naive fixpoint: re-solve every rule over the whole graph until
        # a round adds nothing.
        while True:
            derived = {
                rule.instantiate(conclusion, binding)
                for rule in ANCESTOR_RULES + [GRANDPARENT_RULE]
                for binding in solve(slow, rule.premises)
                for conclusion in rule.conclusions
            }
            if derived <= set(slow):
                break
            for triple in derived:
                slow.add(triple)
        assert set(fast) == set(slow)


class TestBackwardChaining:
    def test_prove_ground_fact(self, family):
        reasoner = GenericRuleReasoner([GRANDPARENT_RULE])
        assert reasoner.holds(family, ("tom", GRANDPARENT, "ann"))
        assert not reasoner.holds(family, ("tom", GRANDPARENT, "sue"))

    def test_prove_with_variables(self, family):
        reasoner = GenericRuleReasoner([GRANDPARENT_RULE])
        answers = reasoner.prove(family, ("?g", GRANDPARENT, "?c"))
        assert {(a["?g"], a["?c"]) for a in answers} == {("tom", "ann"), ("bob", "sue")}

    def test_prove_recursive_goal(self, family):
        reasoner = GenericRuleReasoner(ANCESTOR_RULES)
        answers = reasoner.prove(family, ("tom", ANCESTOR, "?who"))
        assert {a["?who"] for a in answers} == {"bob", "liz", "ann", "sue"}

    def test_prove_does_not_mutate_graph(self, family):
        reasoner = GenericRuleReasoner(ANCESTOR_RULES)
        before = set(family)
        reasoner.prove(family, ("tom", ANCESTOR, "?who"))
        assert set(family) == before

    def test_tabling_handles_cycles(self):
        graph = Graph([("a", PARENT, "b"), ("b", PARENT, "a")])
        reasoner = GenericRuleReasoner(ANCESTOR_RULES)
        answers = reasoner.prove(graph, ("a", ANCESTOR, "?x"))
        assert {a["?x"] for a in answers} == {"a", "b"}

    def test_facts_provable_without_rules(self, family):
        reasoner = GenericRuleReasoner([])
        assert reasoner.holds(family, ("tom", PARENT, "bob"))

    def test_backward_agrees_with_forward(self, family):
        reasoner = GenericRuleReasoner(ANCESTOR_RULES + [GRANDPARENT_RULE])
        materialized = Graph(family)
        reasoner.forward(materialized)
        for predicate in (ANCESTOR, GRANDPARENT):
            forward_facts = {
                (t.subject, t.object) for t in materialized.match(None, predicate, None)
            }
            backward_facts = {
                (a["?x"], a["?y"])
                for a in reasoner.prove(family, ("?x", predicate, "?y"))
            }
            assert forward_facts == backward_facts


class TestHybrid:
    def test_hybrid_materializes_then_answers(self, family):
        reasoner = GenericRuleReasoner([GRANDPARENT_RULE])
        answers = reasoner.hybrid(family, ("?g", GRANDPARENT, "ann"))
        assert ("tom", GRANDPARENT, "ann") in family  # forward pass ran
        assert answers and answers[0]["?g"] == "tom"


class TestInferenceIsWrittenOnce:
    """One fixpoint loop, one join fold, one instantiation (PR 18)."""

    def test_predefined_reasoners_only_build_their_rules(self):
        for reasoner in (TransitiveReasoner, RdfsReasoner):
            assert issubclass(reasoner, GenericRuleReasoner)
            methods = {name for name, member in vars(reasoner).items()
                       if inspect.isfunction(member)}
            assert methods == {"__init__"}

    def test_confidence_inference_is_a_hook_on_derive(self):
        assert issubclass(ConfidenceRuleEngine, GenericRuleReasoner)
        methods = {name for name, member in vars(ConfidenceRuleEngine).items()
                   if inspect.isfunction(member)}
        assert methods == {"__init__", "infer", "_conclude"}
        source_root = Path(inspect.getfile(repro.stores)).parent
        assert not [path.name for path in source_root.rglob("*.py")
                    if "max_rounds" in path.read_text()]

    def test_the_engine_is_defined_by_one_class(self):
        owners = {}
        for package in (repro.stores, repro.kb):
            for info in pkgutil.walk_packages(package.__path__,
                                              package.__name__ + "."):
                module = importlib.import_module(info.name)
                for cls in vars(module).values():
                    if inspect.isclass(cls) and cls.__module__ == info.name:
                        for name in {"derive", "forward", "forward_delta",
                                     "prove", "instantiate"} & set(vars(cls)):
                            owners.setdefault(name, []).append(cls.__qualname__)
        assert owners == {
            "derive": ["GenericRuleReasoner"],
            "forward": ["GenericRuleReasoner"],
            "forward_delta": ["GenericRuleReasoner"],
            "prove": ["GenericRuleReasoner"],
            "instantiate": ["Rule"],
        }

    def test_one_pattern_match_is_folded_in_three_places(self):
        # query.py owns it (solve, the one literal-order fold), plan.py
        # folds it with per-step filters and row counts, and backward
        # chaining matches single goals; nobody else joins by hand.
        source_root = Path(inspect.getfile(repro.stores)).parents[1]
        users = {path.name for path in source_root.rglob("*.py")
                 if "_match_pattern" in path.read_text()}
        assert users == {"query.py", "plan.py", "rules.py"}
        tree = ast.parse(inspect.getsource(rules_module))
        callers = {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and node.id == "_match_pattern"
        }
        assert callers == {"prove"}
