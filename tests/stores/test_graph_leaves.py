"""The leaf layout of ``Graph``'s indexes.

A leaf of ``_spo[s][p]``, ``_pos[p][o]`` or ``_osp[o][s]`` is a 1-tuple
while it has one member and a set from its second member on; a set is
never turned back into a tuple.  Rows come out in index order, so every
leaf must iterate exactly as the all-set layout it replaced would have:
the state machine keeps that layout as a reference (plain sets, created
empty and filled one ``add`` at a time, emptied ones deleted) and
compares leaf by leaf after every step, together with ``match`` and the
``execute_plan`` hook against the generic join loop.  A one-member leaf
is also not any 1-tuple: it is the graph's one shared ``(id,)`` for its
member, so a write of known terms builds none and leaves the index dicts
it touches untracked.

There is no set of stored triples beside the indexes: membership is the
SPO leaf, ``len`` a counter, and iteration a walk of ``_spo`` — so the
machine also checks those against the reference after every step.
"""

import gc
import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.stores.rdf.graph import Graph, Triple
from repro.stores.rdf.query import select
from tests.stores.test_join_executors import GenericOnly

NODES = ("a", "b", "c", "d")
PREDICATES = ("p", "q", "r")
OBJECTS = NODES + (1, 2.5)

node = st.sampled_from(NODES)
predicate = st.sampled_from(PREDICATES)
obj = st.sampled_from(OBJECTS)

QUERIES = (
    [("?s", "p", "?o")],
    [("a", "?p", "?o")],
    [("?s", "?p", "b")],
    [("?s", "q", "?o"), ("?o", "p", "?x")],
    [("?s", "?p", "?o"), ("?o", "r", "?s")],
    [("?s", "p", "?o"), ("?s", "q", "?o")],
)


def intern_colliding(graph: Graph) -> Graph:
    """Intern into an empty graph so that node and object ids are all 0
    mod 8, and predicate ids 1 mod 8: the members of one leaf share a
    slot of a small set's table, so a set built in another order, or
    rebuilt after a removal, iterates differently."""
    wanted = {8 * n: term for n, term in enumerate(OBJECTS)}
    wanted.update({8 * n + 1: term for n, term in enumerate(PREDICATES)})
    for term_id in range(max(wanted) + 1):
        graph._intern(wanted.get(term_id, f"filler:{term_id}"))
    return graph


class LeafMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graph = intern_colliding(Graph())
        # The all-set layout, over the graph's own term ids.
        self.reference = ({}, {}, {})

    def _ids(self, triple):
        ids = self.graph._term_ids
        return tuple(ids[term] for term in triple)

    def _reference_add(self, triple):
        s, p, o = self._ids(triple)
        for index, (first, second, third) in zip(
                self.reference, ((s, p, o), (p, o, s), (o, s, p))):
            index.setdefault(first, {}).setdefault(second, set()).add(third)

    def _reference_remove(self, triple):
        s, p, o = self._ids(triple)
        for index, (first, second, third) in zip(
                self.reference, ((s, p, o), (p, o, s), (o, s, p))):
            members = index[first][second]
            members.discard(third)
            if not members:
                del index[first][second]
                if not index[first]:
                    del index[first]

    def _reference_ids(self):
        """The reference's triples as id 3-tuples, in SPO order."""
        return [(s, p, o) for s, by_second in self.reference[0].items()
                for p, members in by_second.items() for o in members]

    def _add(self, triple):
        if self.graph.add(triple):
            self._reference_add(triple)

    def _remove(self, triple):
        if triple in self.graph:
            self._reference_remove(triple)
            assert self.graph.remove(triple)
        else:
            assert not self.graph.remove(triple)

    @rule(s=node, p=predicate, o=obj)
    def add(self, s, p, o):
        self._add((s, p, o))

    @rule(s=node, p=predicate, o=obj)
    def remove(self, s, p, o):
        self._remove((s, p, o))

    @rule(s=node, p=predicate, objects=st.lists(obj, min_size=2, max_size=5))
    def grow_bucket(self, s, p, objects):
        """One (s, p) bucket through 1 -> 2 -> 3 ... members."""
        for o in objects:
            self._add((s, p, o))

    @rule(s=node, p=predicate, keep=st.integers(0, 1))
    def shrink_bucket(self, s, p, keep):
        """One (s, p) bucket down to ``keep`` members (0 empties it)."""
        for triple in self.graph.match(s, p, None)[keep:]:
            self._remove(triple)

    @rule(p=predicate, o=obj, subjects=st.lists(node, min_size=1, max_size=4))
    def refill_object(self, p, o, subjects):
        """Empty one (p, o) bucket, then fill it again."""
        for triple in self.graph.match(None, p, o):
            self._remove(triple)
        for s in subjects:
            self._add((s, p, o))

    @rule(s=node, p=predicate, o=obj)
    def add_duplicate(self, s, p, o):
        """Adding a stored triple again changes nothing."""
        self._add((s, p, o))
        graph = self.graph
        before = (graph.version, graph.additions, len(graph))
        assert not graph.add((s, p, o))
        assert (graph.version, graph.additions, len(graph)) == before

    @rule(p=predicate, o=obj)
    def remove_absent(self, p, o):
        """A triple with a never-interned subject is not there to remove."""
        assert not self.graph.remove(("nobody", p, o))

    @rule(s=node, p=predicate)
    def refused_nan(self, s, p):
        """A NaN write raises and writes nothing."""
        graph = self.graph
        before = (graph.version, graph.additions, len(graph))
        with pytest.raises(ValueError):
            graph.add((s, p, float("nan")))
        assert (graph.version, graph.additions, len(graph)) == before

    @rule(recollide=st.booleans())
    def clear(self, recollide):
        """Empty the graph and its term dictionary; maybe intern the
        colliding ids again, maybe let the next adds intern afresh."""
        self.graph.clear()
        self.reference = ({}, {}, {})
        assert self.graph._singles == []
        if recollide:
            intern_colliding(self.graph)

    @invariant()
    def one_member_leaves_are_the_shared_tuples(self):
        graph = self.graph
        singles = graph._singles
        assert singles == [(term_id,) for term_id in range(len(graph._terms))]
        for index in (graph._spo, graph._pos, graph._osp):
            for by_second in index.values():
                for leaf in by_second.values():
                    if type(leaf) is tuple:
                        assert leaf is singles[leaf[0]]

    @invariant()
    def leaves_iterate_as_the_all_set_layout(self):
        graph = self.graph
        for index, expected in zip((graph._spo, graph._pos, graph._osp),
                                   self.reference):
            assert list(index) == list(expected)
            for first, by_second in expected.items():
                assert list(index[first]) == list(by_second)
                for second, members in by_second.items():
                    leaf = index[first][second]
                    assert list(leaf) == list(members)
                    assert len(leaf) == len(members)
                    assert all(member in leaf for member in members)

    @invariant()
    def len_is_the_reference_size(self):
        assert len(self.graph) == len(self._reference_ids())

    @invariant()
    def membership_agrees_with_the_reference(self):
        graph = self.graph
        stored = {tuple(graph._terms[term_id] for term_id in ids)
                  for ids in self._reference_ids()}
        for s in NODES:
            for p in PREDICATES:
                for o in OBJECTS:
                    assert ((s, p, o) in graph) == ((s, p, o) in stored)

    @invariant()
    def iteration_walks_spo_in_order(self):
        terms = self.graph._terms
        assert list(self.graph) == [
            Triple(terms[s], terms[p], terms[o])
            for s, p, o in self._reference_ids()]

    @invariant()
    def match_reads_the_reference_order(self):
        graph = self.graph
        terms = graph._terms
        spo, pos, osp = self.reference
        for s in NODES:
            for p in PREDICATES:
                ids = (graph._term_ids.get(s), graph._term_ids.get(p))
                members = spo.get(ids[0], {}).get(ids[1], ())
                assert graph.match(s, p, None) == [
                    Triple(s, p, terms[o]) for o in members]
        for p in PREDICATES:
            for o in OBJECTS:
                ids = (graph._term_ids.get(p), graph._term_ids.get(o))
                members = pos.get(ids[0], {}).get(ids[1], ())
                assert graph.match(None, p, o) == [
                    Triple(terms[s], p, o) for s in members]
        for o in OBJECTS:
            for s in NODES:
                ids = (graph._term_ids.get(o), graph._term_ids.get(s))
                members = osp.get(ids[0], {}).get(ids[1], ())
                assert graph.match(s, None, o) == [
                    Triple(s, terms[p], o) for p in members]

    @invariant()
    def the_hook_returns_the_generic_loops_rows(self):
        for patterns in QUERIES:
            assert (select(self.graph, patterns)
                    == select(GenericOnly(self.graph), patterns))


TestLeafLayout = LeafMachine.TestCase
TestLeafLayout.settings = settings(max_examples=60, stateful_step_count=30,
                                   deadline=None)


def test_one_member_leaves_are_untracked_after_a_collection():
    rng = random.Random(5)
    graph = Graph()
    while len(graph) < 20_000:
        subject = f"ent:{rng.randrange(5000):05d}"
        relation = f"rel:{rng.randrange(6)}"
        # Half the objects repeat (multi-member POS / OSP leaves), half
        # are fresh literals (one-member leaves).
        target = (f"node:{rng.randrange(300)}" if rng.random() < 0.5
                  else rng.random())
        graph.add((subject, relation, target))
    gc.collect()
    leaves = [leaf for index in (graph._spo, graph._pos, graph._osp)
              for by_second in index.values() for leaf in by_second.values()]
    singles = [leaf for leaf in leaves if len(leaf) == 1]
    assert len(singles) > len(leaves) // 2
    assert not any(map(gc.is_tracked, singles))
    assert (sum(map(gc.is_tracked, leaves))
            == sum(len(leaf) >= 2 for leaf in leaves))


def test_a_new_leaf_of_known_ids_leaves_its_index_dict_untracked():
    graph = Graph([("a", "p", "o"), ("b", "q", "o2")])
    gc.collect()
    graph.add(("c", "p", "o2"))
    ids = graph._term_ids
    # A fresh (o2,) / (p,) would be tracked until the next collection,
    # and inserting it would track the dict it lands in.
    assert not gc.is_tracked(graph._spo[ids["c"]])
    assert not gc.is_tracked(graph._osp[ids["o2"]])


def test_iteration_reads_a_snapshot_the_loop_may_mutate():
    graph = Graph([("b", "q", "c"), ("a", "p", "b"), ("a", "p", "c")])
    seen = []
    for triple in graph:
        seen.append(triple)
        graph.remove(triple)
        graph.add((triple.object, "r", triple.subject))
    assert seen == [("b", "q", "c"), ("a", "p", "b"), ("a", "p", "c")]
    assert sorted(graph) == [("b", "r", "a"), ("c", "r", "a"), ("c", "r", "b")]


def test_a_duplicate_add_is_found_in_the_spo_leaf():
    graph = Graph([("a", "p", "b"), ("a", "q", "b"), ("a", "q", "c")])
    assert not hasattr(graph, "_triples")  # no second membership structure
    ids = graph._term_ids
    by_predicate = graph._spo[ids["a"]]
    assert type(by_predicate[ids["p"]]) is tuple
    assert type(by_predicate[ids["q"]]) is set
    before = (graph.version, graph.additions, len(graph))
    for triple in (("a", "p", "b"), ("a", "q", "b"), ("a", "q", "c")):
        assert not graph.add(triple)
    assert (graph.version, graph.additions, len(graph)) == before
