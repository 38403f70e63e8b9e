"""The shared store surface: one cardinality model, one SELECT tail.

Every engine inherits ``estimate_cardinality`` / ``predicate_statistics``
and the rest of its derived surface from
:class:`repro.stores.rdf.stats.TripleStoreBase`, and the sharded
router's scatter route ends in :func:`repro.stores.rdf.query.finish`.
Engines agreeing with each other therefore proves nothing any more: the
oracles here (``tests/stores/reference_estimates.py``) are the
pre-PR-23 bodies, and each differential is also run against hand-made
mutants to show it can fail.
"""

import ast
import inspect
import itertools
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.kb.knowledge_base
import repro.stores
import repro.stores.rdf.materialize
from repro.stores.backends import SqliteTripleStore, StorageBackend
from repro.stores.rdf.graph import Graph, Triple
from repro.stores.rdf.query import RangeFilter, _order_key, run_select, select
from repro.stores.rdf.shard import ShardedGraph
from repro.stores.rdf.stats import BOUND, TripleStoreBase
from tests.stores.reference_estimates import (
    reference_estimate,
    reference_merge_scatter,
    reference_predicate_statistics,
)


class ProtocolOnly:
    """A caller-supplied backend: the protocol, hand-written, no mixin.

    Its estimates come from the oracle, so a router over these shards
    is checked without the shared model anywhere underneath it.
    """

    def __init__(self) -> None:
        self._inner = Graph()

    def add(self, triple):
        return self._inner.add(triple)

    def add_all(self, triples):
        return sum(self.add_many(triples))

    def add_many(self, triples):
        return [self._inner.add(triple) for triple in triples]

    def remove(self, triple):
        return self._inner.remove(triple)

    def discard(self, triple):
        return self._inner.remove(triple)

    def clear(self):
        self._inner.clear()

    def match(self, subject=None, predicate=None, obj=None):
        return self._inner.match(subject, predicate, obj)

    def objects(self, subject, predicate):
        return {t.object for t in self.match(subject, predicate, None)}

    def subjects(self, predicate, obj):
        return {t.subject for t in self.match(None, predicate, obj)}

    def predicates(self):
        return {t.predicate for t in self._inner}

    def estimate_cardinality(self, subject=None, predicate=None, obj=None):
        return reference_estimate(self._inner, subject, predicate, obj)

    def predicate_statistics(self):
        return reference_predicate_statistics(self._inner)

    def to_list(self):
        return sorted([t.subject, t.predicate, t.object] for t in self._inner)

    @property
    def version(self):
        return self._inner.version

    def __len__(self):
        return len(self._inner)

    def __iter__(self):
        return iter(self._inner)

    def __contains__(self, triple):
        return triple in self._inner


def sharded(count, factory=None):
    return lambda tmp: ShardedGraph(shards=count, backend_factory=factory)


#: The seven configurations of the acceptance criteria, sharded ones at
#: every shard count.
BACKENDS = {
    "memory": lambda tmp: Graph(),
    "sqlite-memory": lambda tmp: SqliteTripleStore(),
    "sqlite-file": lambda tmp: SqliteTripleStore(Path(tmp) / "store.sqlite"),
    **{f"sharded-{n}-memory": sharded(n) for n in (1, 2, 4, 7)},
    **{f"sharded-{n}-sqlite": sharded(n, lambda index: SqliteTripleStore())
       for n in (1, 2, 4, 7)},
    "sharded-3-protocol-only": sharded(3, lambda index: ProtocolOnly()),
}

SUBJECTS = ["s0", "s1", "s2", "s3", "p0"]
PREDICATES = ["p0", "p1", "p2"]
OBJECTS = ["s0", "s1", "o", 0, 1, 1.0, True, 2.5]
NEVER_STORED = "never-stored"

operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add"] * 4 + ["remove"]),
                  st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES),
                  st.sampled_from(OBJECTS)),
        st.sampled_from([("clear",)] + [("add", "s0", "p0", 1)] * 3),
    ),
    min_size=1, max_size=30)

PROBES = list(itertools.product(
    [None, BOUND, NEVER_STORED] + SUBJECTS,
    [None, BOUND, NEVER_STORED] + PREDICATES,
    [None, BOUND, NEVER_STORED] + OBJECTS,
))


def apply(store, script):
    for operation, *triple in script:
        if operation == "clear":
            store.clear()
        else:
            getattr(store, operation)(tuple(triple))


def first_disagreement(store, graph):
    """The first probe (or "statistics") where ``store`` leaves the oracle
    over ``graph``, a plain Graph holding the same triples; None if none."""
    for probe in PROBES:
        if store.estimate_cardinality(*probe) != reference_estimate(graph, *probe):
            return probe
    if store.predicate_statistics() != reference_predicate_statistics(graph):
        return "statistics"
    return None


def closed(store):
    closer = getattr(store, "close", None)
    if callable(closer):
        closer()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=25, deadline=None)
@given(script=operations)
def test_estimates_and_statistics_equal_the_oracle(backend, script):
    with tempfile.TemporaryDirectory() as tmp:
        store = BACKENDS[backend](tmp)
        try:
            graph = Graph()
            apply(store, script)
            apply(graph, script)
            assert len(store) == len(graph)
            assert first_disagreement(store, graph) is None
        finally:
            closed(store)


def test_every_engine_inherits_the_surface_and_a_protocol_only_store_need_not():
    for name, build in BACKENDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            store = build(tmp)
            assert isinstance(store, StorageBackend), name
            assert isinstance(store, TripleStoreBase), name
            closed(store)
    outsider = ProtocolOnly()
    assert isinstance(outsider, StorageBackend)
    assert not isinstance(outsider, TripleStoreBase)


def test_a_triple_is_its_plain_tuple():
    triple = Triple("s", "p", 1)
    assert triple == ("s", "p", 1) and hash(triple) == hash(("s", "p", 1))
    assert {triple, ("s", "p", 1)} == {triple} and len({triple, ("s", "p", 1)}) == 1
    assert (triple[0], triple[-1]) == ("s", 1) and tuple(triple) == ("s", "p", 1)
    assert json.dumps(triple) == '["s", "p", 1]'


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_store_takes_a_triple_or_a_plain_tuple(backend):
    with tempfile.TemporaryDirectory() as tmp:
        store = BACKENDS[backend](tmp)
        try:
            assert store.add(Triple("s", "p", 1)) and not store.add(("s", "p", 1))
            assert store.add(("s", "p", 2)) and not store.add(Triple("s", "p", 2))
            assert store.add_all([("t", "p", 1), Triple("t", "p", 2)]) == 2
            assert ("s", "p", 1) in store and Triple("s", "p", 2) in store
            assert sorted(store, key=repr) == [
                ("s", "p", 1), ("s", "p", 2), ("t", "p", 1), ("t", "p", 2)]
            assert store.match("s", "p", 1) == [("s", "p", 1)]
            assert store.remove(("s", "p", 1)) and store.remove(Triple("s", "p", 2))
            assert len(store) == 2
        finally:
            closed(store)


@pytest.mark.parametrize("backend", ["memory", "sqlite-file", "sharded-4-memory",
                                     "sharded-4-sqlite"])
def test_every_store_refuses_nan(backend):
    """A NaN equals nothing, itself included: stored, it could never be
    found, removed or deduplicated again.  A write holding one raises
    and writes nothing, one triple or a whole batch."""
    nan = float("nan")
    with tempfile.TemporaryDirectory() as tmp:
        store = BACKENDS[backend](tmp)
        try:
            store.add(("s", "p", 1))
            version = store.version
            for triple in [("s", "p", nan), ("s", "p", nan), ("t", nan, "o")]:
                with pytest.raises(ValueError, match="NaN"):
                    store.add(triple)
            with pytest.raises(ValueError, match="NaN"):
                store.add_all([("a", "p", 2), ("b", "p", nan), ("c", "p", 3)])
            with pytest.raises(ValueError, match="NaN"):
                # On 4 shards "d" is written before "a" is reached.
                store.add_many([("d", "q", 2), ("a", nan, "o")])
            assert len(store) == 1 and list(store) == [("s", "p", 1)]
            assert store.version == version
            assert ("s", "p", nan) not in store
            assert not store.remove(("s", "p", nan))
            assert store.predicates() == {"p"}
        finally:
            closed(store)


# -- the differential can fail: hand-made mutants -----------------------------

# Predicate p0 holds 5 triples over 3 subjects and 5 objects: 5 / 3 / 5
# and 5 / 5 / 3 differ in the last bit.  p1 gives the store a second
# predicate with other distinct counts, "o" an object on several shards.
MUTANT_SCRIPT = (
    [("add", "s0", "p0", "a"), ("add", "s0", "p0", "b"),
     ("add", "s1", "p0", "c"), ("add", "s1", "p0", "d"),
     ("add", "s2", "p0", "e")]
    + [("add", subject, "p1", "o") for subject in SUBJECTS]
)


class DividesObjectFirst(Graph):
    def estimate_cardinality(self, subject=None, predicate=None, obj=None):
        estimate = super().estimate_cardinality(subject, predicate, obj)
        if subject is BOUND and obj is BOUND and estimate:
            key = (None if predicate in (None, BOUND)
                   else self._term_key(predicate))
            estimate = float(self._matching(None, key, None))
            estimate /= max(1, self._distinct("o", key))
            estimate /= max(1, self._distinct("s", key))
            if predicate is BOUND:
                estimate /= max(1, self._distinct("p", None))
        return estimate


class DistinctIgnoresThePredicate(Graph):
    def _distinct(self, position, predicate_id):
        return super()._distinct(position, None)


class CountsObjectsOnOneShard(ShardedGraph):
    def _matching(self, subject, predicate, obj):
        if subject is None and obj is not None:
            return self._shards[0].estimate_cardinality(None, predicate, obj)
        return super()._matching(subject, predicate, obj)


@pytest.mark.parametrize("mutant", [
    DividesObjectFirst, DistinctIgnoresThePredicate,
    lambda: CountsObjectsOnOneShard(shards=4),
])
def test_the_oracle_catches_a_wrong_model(mutant):
    store, graph = mutant(), Graph()
    apply(store, MUTANT_SCRIPT)
    apply(graph, MUTANT_SCRIPT)
    assert first_disagreement(store, graph) is not None


def test_the_mutant_script_is_clean_on_the_real_engines():
    graph = Graph()
    apply(graph, MUTANT_SCRIPT)
    for store in (Graph(), SqliteTripleStore(), ShardedGraph(shards=4)):
        apply(store, MUTANT_SCRIPT)
        assert first_disagreement(store, graph) is None


# -- Graph's counters follow every write ---------------------------------------

# Two subjects, predicates and objects: removals hit often, and empty an
# (s, p) bucket, a predicate, or both.
CHURN_TERMS = (["s0", "s1"], ["p0", "p1"], ["o", 1])
CHURN_PROBES = list(itertools.product(
    *([None, BOUND] + terms for terms in CHURN_TERMS)))


@settings(max_examples=150, deadline=None)
@given(script=st.lists(st.tuples(st.sampled_from(["add", "add", "remove"]),
                                 *map(st.sampled_from, CHURN_TERMS)),
                       min_size=1, max_size=30))
# Leave the (s0, p0) bucket, empty it, empty p0, then add it back.
@example(script=[("add", "s0", "p0", "o"), ("add", "s0", "p0", 1),
                 ("add", "s1", "p0", "o"), ("remove", "s0", "p0", "o"),
                 ("remove", "s0", "p0", 1), ("remove", "s1", "p0", "o"),
                 ("add", "s0", "p0", "o")])
def test_graph_statistics_equal_a_scan_after_every_add_and_remove(script):
    graph = Graph()
    for operation, *triple in script:
        getattr(graph, operation)(tuple(triple))
        assert graph.predicate_statistics() == reference_predicate_statistics(graph)
        assert [graph.estimate_cardinality(*probe) for probe in CHURN_PROBES] == [
            reference_estimate(graph, *probe) for probe in CHURN_PROBES]


# -- the scatter route ≡ per-shard SELECTs and the old k-way merge ------------

def scatter_oracle(store, patterns, variables=None, filters=(), distinct=False,
                   order_by=None, descending=False, limit=None):
    """What the router returned when every shard planned and ran a whole
    SELECT of its own and the router gathered with ``heapq.merge``."""
    results = [select(shard, patterns, filters=filters, order_by=order_by,
                      descending=descending,
                      limit=None if distinct else limit)
               for shard in store.shards]
    merge_key = (None if order_by is None
                 else lambda binding: _order_key(binding.get(order_by)))
    return reference_merge_scatter(results, merge_key, variables, distinct,
                                   descending, limit)


star_triples = st.lists(
    st.tuples(st.sampled_from([f"e{n}" for n in range(12)]),
              st.sampled_from(["score", "kind"]),
              # Few values over many subjects: ties on every shard.
              st.sampled_from([0, 1, 1.0, True, 2, 2.5, "a", "b"])),
    min_size=4, max_size=40)

tails = st.fixed_dictionaries({
    "distinct": st.booleans(),
    "order_by": st.sampled_from([None, "?v", "?s"]),
    "descending": st.booleans(),
    "limit": st.sampled_from([None, 0, 1, 3, 1000]),
    "variables": st.sampled_from([None, ["?v"], ["?s", "?v"]]),
})


@pytest.mark.parametrize("shards,engine", [
    (2, "memory"), (4, "memory"), (7, "memory"), (3, "sqlite")])
@settings(max_examples=40, deadline=None)
@given(triples=star_triples, tail=tails, ranged=st.booleans())
def test_scatter_tail_equals_the_old_merge(shards, engine, triples, tail, ranged):
    factory = (lambda index: SqliteTripleStore()) if engine == "sqlite" else None
    store = ShardedGraph(shards=shards, backend_factory=factory)
    try:
        store.add_all(triples)
        patterns = [("?s", "score", "?v")]
        # A RangeFilter on ?v alone is the shape both hooks push down.
        filters = [RangeFilter("?v", 0, 2.5)] if ranged else []
        assert store.route_select(patterns)[0] == "scatter"
        assert (store.select(patterns, filters=filters, **tail)
                == scatter_oracle(store, patterns, filters=filters, **tail))
    finally:
        store.close()


class GathersInReverseShardOrder(ShardedGraph):
    def _fan_out(self, function):
        return super()._fan_out(function)[::-1]


def test_the_scatter_oracle_catches_rows_gathered_out_of_shard_order():
    store = GathersInReverseShardOrder(shards=4)
    store.add_all((f"e{n}", "score", 1) for n in range(12))  # all ties
    patterns = [("?s", "score", "?v")]
    for order_by in (None, "?v"):
        assert (store.select(patterns, order_by=order_by)
                != scatter_oracle(store, patterns, order_by=order_by))
    honest = ShardedGraph(shards=4)
    honest.add_all(store)
    assert (honest.select(patterns, order_by="?v")
            == scatter_oracle(honest, patterns, order_by="?v"))


# -- one dispatch --------------------------------------------------------------

def test_run_select_prefers_a_select_installed_on_the_instance():
    graph = Graph([("s", "p", 1)])
    patterns = [("?s", "p", "?v")]
    assert run_select(graph, patterns) == select(graph, patterns)
    calls = []

    def traced(patterns, **options):
        calls.append((patterns, options))
        return ["traced"]

    graph.select = traced  # what benchmarks/e2e/layers.py does to a plain Graph
    assert run_select(graph, patterns, limit=1) == ["traced"]
    assert calls == [(patterns, {"limit": 1})]


def test_run_select_uses_the_stores_own_select():
    store = ShardedGraph(shards=2)
    store.add(("s", "p", 1))
    seen = []
    store.route_select = lambda *args: seen.append(args) or ("broadcast", None)
    assert run_select(store, [("?s", "p", "?v")]) == [{"?s": "s", "?v": 1}]
    assert seen


# -- written once --------------------------------------------------------------

SINGLE_DEFINITION = {"estimate_cardinality", "predicate_statistics", "to_list",
                     "objects", "subjects", "add_all", "discard", "from_list"}


def store_sources():
    root = Path(repro.stores.__file__).parent
    return {path.relative_to(root).as_posix(): ast.parse(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def is_forward(function, target):
    """Whether the body is (a docstring and) one ``return <target>…(…)``,
    optionally under ``with self._lock``."""
    body = [node for node in function.body
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant))]
    if len(body) == 1 and isinstance(body[0], ast.With):
        assert ast.unparse(body[0].items[0].context_expr) == "self._lock"
        body = body[0].body
    return (len(body) == 1 and isinstance(body[0], ast.Return)
            and ast.unparse(body[0].value).startswith(target))


class TestTheSurfaceIsWrittenOnce:
    def test_each_derived_member_has_one_body(self):
        owners = {}
        for module, tree in store_sources().items():
            for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
                if cls.name == "StorageBackend":
                    continue  # the Protocol: signatures, no bodies
                for function in cls.body:
                    if not (isinstance(function, ast.FunctionDef)
                            and function.name in SINGLE_DEFINITION):
                        continue
                    if cls.name == "MaterializedGraph" and is_forward(
                            function, f"self.graph.{function.name}("):
                        continue  # the view asks the store it wraps
                    if cls.name == "SqliteTripleStore" and is_forward(
                            function, f"super().{function.name}("):
                        continue  # the shared body, under the store's lock
                    owners.setdefault(function.name, []).append(
                        f"{module}:{cls.name}")
        # SQLite's own add_all is its executemany bulk path (checked and
        # staying): a different statement, not a copy of the shared one.
        owners["add_all"].remove("backends/sqlite.py:SqliteTripleStore")
        assert owners == {name: ["rdf/stats.py:TripleStoreBase"]
                          for name in SINGLE_DEFINITION}

    def test_the_bound_discounts_and_the_dump_order_live_in_one_module(self):
        for module, tree in store_sources().items():
            source = ast.unparse(tree)
            if module != "rdf/stats.py":
                assert "is BOUND" not in source, module
                assert "type(t.object).__name__" not in source, module
            assert "heapq.merge" not in source, module

    def test_the_hand_rolled_paths_are_gone(self):
        assert not hasattr(ShardedGraph, "_merge_scatter")
        for module in (repro.kb.knowledge_base, repro.stores.rdf.materialize):
            tree = ast.parse(inspect.getsource(module))
            lookups = [ast.unparse(node) for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and ast.unparse(node.func) == "getattr"
                       and ast.unparse(node.args[1]) == "'select'"]
            assert not lookups, (module.__name__, lookups)

    def test_one_pushdown_protocol_one_onum_range_statement(self):
        """Pushdown is ``execute_plan`` behind the one dispatch: the
        router's own numeric route (detector, Python fallback scan,
        range merger, envelope flag) is gone from code and docs, one
        function compares ``onum`` with a bound, one calls a store's
        hook, and the scatter route runs ``select``'s own body."""
        repo = Path(repro.__file__).parents[2]
        retired = ("native_numeric", "_fallback_numeric_scan", "merged_range",
                   "_scatter_tasks", "uses_default_storage")
        texts = {path: path.read_text()
                 for root, glob in ((repo / "src", "*.py"), (repo / "docs", "*.md"))
                 for path in sorted(root.rglob(glob))}
        assert len(texts) > 100
        for path, text in texts.items():
            assert not [name for name in retired if name in text], path
        ranges, hook_callers = [], []
        for module, tree in store_sources().items():
            for function in (n for n in ast.walk(tree)
                             if isinstance(n, ast.FunctionDef)):
                source = ast.unparse(function)
                if re.search(r"onum\s*[<>]", source):
                    ranges.append(f"{module}:{function.name}")
                if "getattr(graph, 'execute_plan'" in source:
                    hook_callers.append(f"{module}:{function.name}")
        assert ranges == ["backends/sqlite.py:scan_numeric"]
        assert hook_callers == ["rdf/plan.py:execute_plan"]
        assert "join_and_filter(" in inspect.getsource(ShardedGraph.select)
        assert "join_and_filter(" in inspect.getsource(select)


def test_the_view_and_the_kb_reach_an_instance_level_select():
    kb = repro.kb.knowledge_base.PersonalKnowledgeBase()
    kb.graph.add(Triple("s", "p", 1))
    kb.graph.select = lambda patterns, **options: [{"?from": "the instance"}]
    assert kb.query([("?s", "p", "?v")]) == [{"?from": "the instance"}]
    view = repro.stores.rdf.materialize.MaterializedGraph(kb.graph)
    assert view.select([("?s", "p", "?v")]) == [{"?from": "the instance"}]
