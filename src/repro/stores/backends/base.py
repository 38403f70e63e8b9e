"""The pluggable triple-storage contract behind the PKB's RDF store.

PR 3 made one in-memory :class:`~repro.stores.rdf.graph.Graph` fast;
this package makes the *storage layer itself* replaceable, the way
``wware/med-lit-schema`` hides SQLite (dev) and Postgres (prod) behind
one ``PipelineStorageInterface``.  Every backend speaks the same
structural protocol — :class:`StorageBackend` — so the query engine,
planner, materializer and knowledge base never know which engine holds
the triples:

* :class:`~repro.stores.rdf.graph.Graph` — the dictionary-encoded
  in-memory store with SPO/POS/OSP hash indexes (the default);
* :class:`~repro.stores.backends.sqlite.SqliteTripleStore` — a
  stdlib-``sqlite3`` store (file or ``:memory:``) whose prefix scans
  are backed by B-tree indexes over the same three orderings;
* :class:`~repro.stores.rdf.shard.ShardedGraph` — N independent
  backends keyed by a stable subject hash, for capacity and
  per-shard persistence; queries visit the shards one after another.

The protocol is deliberately the surface :mod:`repro.stores.rdf.query`
already consumes.  ``match`` *is* the prefix-scan API: each bound /
wildcard combination corresponds to a prefix of exactly one of the
SPO, POS or OSP orderings, and every backend must dispatch to the
matching index rather than scanning:

======================  ==============  ========================
pattern (S, P, O)       index           prefix
======================  ==============  ========================
(s, p, o)               SPO             full key (membership)
(s, p, ?)               SPO             (s, p)
(s, ?, ?)               SPO             (s,)
(?, p, o)               POS             (p, o)
(?, p, ?)               POS             (p,)
(s, ?, o)               OSP             (o, s)
(?, ?, o)               OSP             (o,)
(?, ?, ?)               —               full iteration
======================  ==============  ========================

**What an engine writes, and what it inherits.**  The three stores
above subclass :class:`~repro.stores.rdf.stats.TripleStoreBase`.  An
engine writes ``add`` / ``add_many`` / ``remove`` / ``clear`` /
``match`` / ``__len__`` / ``__iter__`` / ``__contains__`` / ``version``
and the four primitives documented there (``_term_key``, ``_matching``,
``_distinct``, ``_predicate_terms``).  It inherits, written once:
``estimate_cardinality`` (so estimates are bit-identical across engines
by construction), ``predicate_statistics``, ``add_all``, ``discard``,
``objects`` / ``subjects`` / ``predicates``, ``to_list``, ``from_list``.
A caller-supplied backend may instead satisfy the protocol structurally
and write those members itself; it works as a shard and as
``storage=factory`` all the same — the router reads a shard's counts
through its public ``estimate_cardinality`` only.

Two **optional members** sit beside the protocol, duck-typed and
deliberately *not* part of it (a backend without them must still pass
``isinstance(store, StorageBackend)``)::

    additions: int    # read-only property
    def execute_plan(self, plan: QueryPlan, filters: Sequence,
                     top: tuple[str, bool, int] | None) -> list[Binding]

``additions`` counts the triples ever inserted and, unlike ``version``,
stands still on ``remove`` / ``clear``.  It is the token
:class:`~repro.kb.pipeline.AnalysisPipeline` syncs delta inference on:
while it has moved by exactly the adds the pipeline recorded, nothing
unseen can have new consequences, whatever was removed in between.  A
backend without it is always inferred over in full.  All three stores
above have it (the router sums its shards').

A store that has ``execute_plan`` runs a whole join plan itself —
:func:`repro.stores.rdf.plan.execute_plan` dispatches to it and falls
back to the generic loop over ``match`` otherwise.  The obligations:
apply each step's pushed-down filters (``step.filter_indexes``), leave
``plan.residual_filters`` to the caller, set ``plan.actual_rows`` (rows
alive after each step, 0 for steps never reached), and return the rows
the generic loop would return **in the order it would return them**.
``top = (order_by, descending, limit)`` is an advisory hint ``select``
passes when nothing after the join can add, drop or merge rows (no
``distinct``, no OPTIONAL, no residual filter): the caller will read
only the stable top ``limit`` of the rows by ``order_by``.  A store may
ignore it; one that honours it returns exactly those survivors, in
their final order (``select`` sorts and cuts again, which changes
nothing).  ``actual_rows`` counts the rows before the cut when the
store has them in hand (:class:`Graph`); a store that cuts inside its
engine counts what came back (SQLite's ``LIMIT``) —
``kb.explain(analyze=True)`` runs without the hint, so what it reports
is always the full count.
:class:`Graph` implements the hook for every plan (set-at-a-time joins
in id space, top-k before decode); ``SqliteTripleStore`` compiles a
range scan over one predicate's numeric objects, with its top-k, to
one statement and hands every other plan to the generic loop
(:func:`repro.stores.rdf.plan.join_by_match`); the router has no hook —
its scatter route gives each shard the one plan it built, its
broadcast route is joined by the generic loop.  What follows a join —
order, project, distinct, cut — is :func:`repro.stores.rdf.query.finish`
for every store, the router's scatter route included.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Protocol, runtime_checkable

from repro.stores.rdf.graph import Term, Triple
from repro.stores.rdf.stats import PredicateStats


@runtime_checkable
class StorageBackend(Protocol):
    """What a triple store must provide to back the PKB.

    Structural (duck-typed): :class:`~repro.stores.rdf.graph.Graph`
    satisfies it unchanged.  Two semantic obligations matter beyond
    the signatures:

    * **Term collapsing** — terms that compare equal in Python
      (``1``, ``1.0`` and ``True``) are one term; the first-seen
      representation wins.  The contract suite pins this.
    * **Version discipline** — ``version`` increases on every
      successful mutation (including ``clear``) and never decreases,
      so it stays safe as a cache-invalidation key.  A backend that
      also has the optional ``additions`` (module docstring) moves it
      by one per inserted triple and on nothing else.
    """

    def add(self, triple: Triple | tuple) -> bool:
        """Insert a triple; False when it was already present."""

    def add_all(self, triples: Iterable[Triple | tuple]) -> int:
        """Insert many triples; returns how many were new."""

    def add_many(self, triples: Iterable[Triple | tuple]) -> list[bool]:
        """Insert many triples as one batch; per-triple newness flags
        in input order.  A batching backend makes the call one
        transaction: if it raises, none of the batch is visible."""

    def remove(self, triple: Triple | tuple) -> bool:
        """Delete a triple; returns whether it was present."""

    def discard(self, triple: Triple | tuple) -> bool:
        """Alias of :meth:`remove` (set-like naming)."""

    def clear(self) -> None:
        """Drop every triple; the version still advances."""

    def match(self, subject: str | None = None, predicate: str | None = None,
              obj: Term | None = None) -> list[Triple]:
        """Index-backed prefix scan; ``None`` is a wildcard."""

    def objects(self, subject: str, predicate: str) -> set[Term]:
        """All objects of ``(subject, predicate, ?)``."""

    def subjects(self, predicate: str, obj: Term) -> set[str]:
        """All subjects of ``(?, predicate, object)``."""

    def predicates(self) -> set[str]:
        """Every predicate with at least one triple."""

    def estimate_cardinality(self, subject: object = None,
                             predicate: object = None,
                             obj: object = None) -> float:
        """Estimated matching rows; see :meth:`Graph.estimate_cardinality`."""

    def predicate_statistics(self) -> dict[str, PredicateStats]:
        """Per-predicate cardinality statistics, keyed by predicate."""

    def to_list(self) -> list[list[Term]]:
        """JSON-friendly dump, deterministically ordered."""

    @property
    def version(self) -> int:
        """Monotonic mutation counter."""

    def __len__(self) -> int:
        """How many triples the store holds."""

    def __iter__(self) -> Iterator[Triple]:
        """Iterate every stored triple (order unspecified)."""

    def __contains__(self, triple: Triple | tuple) -> bool:
        """Membership test for one concrete triple."""
