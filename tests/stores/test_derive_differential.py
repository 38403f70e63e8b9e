"""``derive`` on compiled rules against the interpreted loop it replaced.

``GenericRuleReasoner.derive`` reads the pivots, unifiers and head
templates each ``Rule`` compiles once; ``reference_derive.py`` keeps the
old loop that read the patterns per binding.  On random graphs and rule
sets, in full and in delta mode, both must return the same triples,
leave the graph iterating in the same order (the order ``new_triples``
is added in decides term interning) and hand every guard the same
bindings, keys in the same order, in the same sequence.
"""

from hypothesis import example, given, settings, strategies as st

from repro.stores.rdf.graph import Graph, Triple
from repro.stores.rdf.query import is_variable
from repro.stores.rdf.rules import GenericRuleReasoner, Rule

from .reference_derive import reference_derive

NODES = ["a", "b", "c"]
PREDICATES = ["p", "q", "r"]
VARIABLES = ["?x", "?y", "?z"]

facts = st.tuples(st.sampled_from(NODES), st.sampled_from(PREDICATES),
                  st.sampled_from(NODES + [1, 2.5]))


@st.composite
def rule_specs(draw):
    """(premises, conclusions, guard kind) of one rule: constant and
    variable predicates, variables repeated inside one premise (drawn
    freely), 1–3 premises and 1–3 conclusions."""
    term = st.sampled_from(VARIABLES + NODES[:2])
    premises = draw(st.lists(
        st.tuples(term, st.sampled_from(PREDICATES + ["?p"]), term),
        min_size=1, max_size=3))
    body = sorted({c for premise in premises for c in premise if is_variable(c)})
    head_term = st.sampled_from(body + NODES)
    head_predicate = st.sampled_from(
        PREDICATES + [v for v in body if v == "?p"])
    conclusions = draw(st.lists(
        st.tuples(head_term, head_predicate, head_term), min_size=1, max_size=3))
    guard = draw(st.sampled_from([None, "log", "reject-b"]))
    return premises, conclusions, guard, body


@st.composite
def rule_sets(draw):
    specs = draw(st.lists(rule_specs(), min_size=1, max_size=4))
    order = list(range(len(specs)))
    # A rule listed twice.
    order += draw(st.lists(st.sampled_from(order), max_size=2))
    return [specs[index] for index in order]


def build(specs, log):
    """The rules of ``specs``; their guards append what they see to ``log``."""
    def guard_for(kind, body, name):
        variable = body[0] if body else None

        def guard(binding):
            log.append((name, tuple(binding.items())))
            return kind != "reject-b" or binding.get(variable) != "b"
        return guard

    return [Rule(premises, conclusions, name=f"r{index}",
                 guards=[] if kind is None else [guard_for(kind, body, f"r{index}")])
            for index, (premises, conclusions, kind, body) in enumerate(specs)]


def run_both(triples, delta, specs):
    results = []
    for derive in (GenericRuleReasoner.derive, reference_derive):
        log: list = []
        reasoner = GenericRuleReasoner(build(specs, log))
        graph = Graph(triples)
        frontier = None
        if delta is not None:
            for triple in delta:
                graph.add(triple)
            frontier = {Triple(*triple) for triple in delta}
        added = derive(reasoner, graph, frontier)
        results.append((list(added), list(graph), log))
    return results


@settings(max_examples=100, deadline=None)
@given(triples=st.lists(facts, max_size=12), specs=rule_sets())
@example(triples=[("a", "p", "a"), ("a", "p", "b")],
         specs=[([("?x", "p", "?x")], [("?x", "q", "b")], "log", ["?x"])])
def test_full_mode_matches_the_interpreted_loop(triples, specs):
    (added, order, log), (want_added, want_order, want_log) = run_both(
        triples, None, specs)
    assert added == want_added  # same triples, same set order
    assert order == want_order
    assert log == want_log


@settings(max_examples=100, deadline=None)
@given(triples=st.lists(facts, max_size=12),
       delta=st.lists(facts, min_size=1, max_size=5), specs=rule_sets())
@example(triples=[("a", "p", "b")], delta=[("b", "p", "b"), ("b", "q", "a")],
         specs=[([("?x", "?p", "?x"), ("?y", "p", "?x")],
                 [("?y", "?p", "a"), ("?x", "r", "c")], "reject-b", ["?p", "?x", "?y"])])
def test_delta_mode_matches_the_interpreted_loop(triples, delta, specs):
    (added, order, log), (want_added, want_order, want_log) = run_both(
        triples, delta, specs)
    assert added == want_added  # same triples, same set order
    assert order == want_order
    assert log == want_log

