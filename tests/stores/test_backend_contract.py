"""The StorageBackend contract suite, run against every backend.

Each parametrized case builds an empty store, drives it through the
same operation script, and asserts byte-for-byte agreement with the
reference in-memory :class:`Graph` — dumps, statistics, cardinality
estimates and version discipline.  A backend that passes here is safe
to drop behind the KB or a :class:`ShardedGraph` unchanged.
"""

import itertools

import pytest

from repro.stores.backends import (
    SqliteTripleStore,
    StorageBackend,
    canonical_triple_list,
)
from repro.stores.rdf.graph import Graph, Triple
from repro.stores.rdf.query import select
from repro.stores.rdf.shard import ShardedGraph
from repro.stores.rdf.stats import BOUND

BACKENDS = {
    "memory": lambda tmp: Graph(),
    "sqlite-memory": lambda tmp: SqliteTripleStore(),
    "sqlite-file": lambda tmp: SqliteTripleStore(tmp / "contract.sqlite"),
    "sqlite-small-batches": lambda tmp: SqliteTripleStore(batch_size=3),
    "sharded-1": lambda tmp: ShardedGraph(shards=1),
    "sharded-4": lambda tmp: ShardedGraph(shards=4),
    "sharded-3-sqlite": lambda tmp: ShardedGraph(
        shards=3, backend_factory=lambda index: SqliteTripleStore()),
}

TRIPLES = [
    ("repro:alice", "rdf:type", "repro:Person"),
    ("repro:alice", "repro:age", 34),
    ("repro:alice", "repro:knows", "repro:bob"),
    ("repro:bob", "rdf:type", "repro:Person"),
    ("repro:bob", "repro:age", 34.5),
    ("repro:bob", "repro:active", True),
    ("repro:carol", "repro:age", 34),  # duplicate object value
    ("repro:carol", "repro:score", 0),
]


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def store(request, tmp_path):
    backend = BACKENDS[request.param](tmp_path)
    yield backend
    closer = getattr(backend, "close", None)
    if callable(closer):
        closer()


@pytest.fixture
def reference():
    graph = Graph()
    graph.add_all(TRIPLES)
    return graph


def test_satisfies_protocol(store):
    assert isinstance(store, StorageBackend)


def test_add_and_duplicates(store):
    assert store.add(TRIPLES[0]) is True
    assert store.add(TRIPLES[0]) is False
    assert len(store) == 1
    assert TRIPLES[0] in store


def test_numeric_collapsing_first_seen_wins(store):
    # 1 == 1.0 == True under Python equality; the first representation
    # stored is the one every later read sees.
    assert store.add(("s", "p", 1)) is True
    assert store.add(("s", "p", 1.0)) is False
    assert store.add(("s", "p", True)) is False
    assert len(store) == 1
    [triple] = store.match("s", "p", None)
    assert triple.object == 1 and type(triple.object) is int
    assert ("s", "p", True) in store


def test_dump_matches_reference_byte_for_byte(store, reference):
    store.add_all(TRIPLES)
    assert store.to_list() == reference.to_list()
    assert canonical_triple_list(store) == canonical_triple_list(reference)


def test_match_dispatch_matches_reference(store, reference):
    store.add_all(TRIPLES)
    probes = [
        (None, None, None),
        ("repro:alice", None, None),
        ("repro:alice", "repro:age", None),
        ("repro:alice", "repro:age", 34),
        (None, "repro:age", None),
        (None, "repro:age", 34),
        (None, None, 34),
        (None, None, "repro:bob"),
        ("repro:nobody", None, None),
        (None, "repro:nope", None),
        (None, None, "never-seen"),
    ]
    def order(triples):
        return sorted(triples, key=lambda t: (t.subject, t.predicate,
                                              type(t.object).__name__,
                                              str(t.object)))

    for probe in probes:
        assert order(store.match(*probe)) == order(reference.match(*probe)), \
            probe


def test_estimates_match_reference_bit_for_bit(store, reference):
    store.add_all(TRIPLES)
    subjects = [None, BOUND, "repro:alice", "repro:nobody"]
    predicates = [None, BOUND, "repro:age", "repro:nope"]
    objects = [None, BOUND, 34, "repro:Person", "never-seen"]
    for s, p, o in itertools.product(subjects, predicates, objects):
        assert store.estimate_cardinality(s, p, o) == \
            reference.estimate_cardinality(s, p, o), (s, p, o)


def test_predicate_statistics_match_reference(store, reference):
    store.add_all(TRIPLES)
    assert store.predicate_statistics() == reference.predicate_statistics()


def test_navigation_helpers(store, reference):
    store.add_all(TRIPLES)
    assert store.objects("repro:alice", "repro:age") == {34}
    assert store.subjects("repro:age", 34) == {"repro:alice", "repro:carol"}
    assert store.predicates() == reference.predicates()


def test_remove_and_clear(store):
    store.add_all(TRIPLES)
    assert store.remove(TRIPLES[1]) is True
    assert store.remove(TRIPLES[1]) is False
    assert store.discard(TRIPLES[2]) is True
    assert len(store) == len(TRIPLES) - 2
    store.clear()
    assert len(store) == 0
    assert store.to_list() == []
    assert store.estimate_cardinality(None, None, None) == 0.0


def test_version_monotonic_and_never_resets(store):
    v0 = store.version
    assert store.add(TRIPLES[0]) and store.version == v0 + 1
    store.add(TRIPLES[0])  # duplicate: no version bump
    assert store.version == v0 + 1
    added = store.add_all(TRIPLES[1:4])
    assert added == 3 and store.version == v0 + 4
    store.remove(TRIPLES[0])
    assert store.version == v0 + 5
    before_clear = store.version
    store.clear()
    assert store.version > before_clear
    store.add(TRIPLES[0])
    assert store.version > before_clear + 1


def test_additions_moves_on_inserts_only(store):
    # The token delta inference syncs on: every way of inserting counts
    # each new triple once; duplicates, removals and clear() do not.
    a0 = store.additions
    store.add(TRIPLES[0])
    store.add(TRIPLES[0])
    assert store.additions == a0 + 1
    store.add_all(TRIPLES[:3])
    store.add_many(TRIPLES[2:5])
    assert store.additions == a0 + 5
    store.remove(TRIPLES[0])
    store.clear()
    assert store.additions == a0 + 5
    store.add(TRIPLES[0])
    assert store.additions == a0 + 6


def test_add_many_reports_per_triple_newness(store):
    flags = store.add_many([TRIPLES[0], TRIPLES[0], TRIPLES[1]])
    assert flags == [True, False, True]


def test_iteration_covers_everything(store, reference):
    store.add_all(TRIPLES)
    assert set(store) == set(reference)


# -- the query engine over every backend --------------------------------------

def run_select(store, patterns, **kwargs):
    """SELECT the way the KB does: the store's own ``select`` when it has one."""
    runner = getattr(store, "select", None)
    if runner is not None:
        return runner(patterns, **kwargs)
    return select(store, patterns, **kwargs)


@pytest.mark.parametrize("optimize", [True, False])
def test_stored_term_starting_with_question_mark_stays_a_term(store, optimize):
    # Bound to ?o, the literal "?what" used to turn back into a wildcard
    # and the join returned two rows with a phantom "?what" key.
    store.add_all([("a", "says", "?what"), ("b", "p", "x"), ("c", "p", "y")])
    patterns = [("a", "says", "?o"), ("?o", "p", "?z")]
    assert run_select(store, patterns, optimize=optimize) == []
    store.add(("?what", "p", "z"))
    assert run_select(store, patterns, optimize=optimize) == [
        {"?o": "?what", "?z": "z"}]
    assert run_select(store, [("a", "says", "?o")], optimize=optimize,
                      optional=[("?o", "p", "?z")]) == [
        {"?o": "?what", "?z": "z"}]


def test_negative_limit_is_rejected(store):
    # A Graph used to drop the last row (``rows[:-1]``), the router died
    # inside ``islice``.
    store.add_all(TRIPLES)
    for patterns in ([("?s", "repro:age", "?v")],            # scatter
                     [("repro:alice", "repro:age", "?v")],   # single shard
                     [("?s", "repro:knows", "?t"),           # broadcast
                      ("?t", "repro:age", "?v")]):
        for kwargs in ({}, {"order_by": "?v"}):
            with pytest.raises(ValueError, match="limit must be >= 0"):
                run_select(store, patterns, limit=-1, **kwargs)
    assert run_select(store, [("?s", "repro:age", "?v")], limit=0) == []
