"""The Personal Knowledge Base facade.

Ties together every §3 capability behind one object: multiple storage
forms (KV / relational / RDF / CSV), format conversion, fact entry with
entity disambiguation, public-data ingestion from knowledge services
(normalizing their divergent property-naming conventions), reasoning,
the analysis→RDF→inference pipeline, local spell checking, and
secure / offline remote persistence.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.core.invoker import RichClient
from repro.kb.disambiguation import EntityDisambiguator, ResolvedEntity
from repro.kb.pipeline import AnalysisPipeline
from repro.kb.spellcheck import LocalSpellChecker
from repro.kb.sync import OfflineSyncStore
from repro.obs import NULL_OBS, names
from repro.simnet.errors import NetworkError, RemoteServiceError
from repro.stores.converters import (
    csv_text_to_table,
    table_to_csv_text,
    table_to_triples,
    triples_to_rows,
    rows_to_table,
)
from repro.stores.csvio import read_csv, write_csv
from repro.stores.kvstore import (
    FileKeyValueStore,
    InMemoryKeyValueStore,
    KeyValueStore,
    write_json_atomic,
)
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.graph import Graph, RDF, RDFS, REPRO, Triple
from repro.stores.rdf.materialize import MaterializedGraph
from repro.stores.rdf.plan import (
    QueryPlan,
    build_plan,
    build_sharded_plan,
    execute_plan,
)
from repro.stores.rdf.query import run_select
from repro.stores.rdf.shard import ShardedGraph
from repro.stores.rdf.reasoner import RdfsReasoner, TransitiveReasoner
from repro.stores.rdf.rules import GenericRuleReasoner, Rule
from repro.stores.relational import Database, Table
from repro.tenancy.context import current_tenant
from repro.util.errors import ConfigurationError, NotFoundError


class PersonalKnowledgeBase:
    """One user's knowledge base over the Rich SDK.

    All collaborators are optional: a PKB without a client still works
    fully offline (local stores, local analysis, local spell check);
    attaching a client adds disambiguation services, public data
    ingestion and secure remote persistence.

    The RDF store's physical layer is configurable: ``storage`` picks
    the backend (``"memory"``, ``"sqlite"``, or a ``factory(index)``
    callable building any :class:`~repro.stores.backends.base.\
StorageBackend`) and ``shards`` > 1 splits it into N hash-sharded
    pieces behind one router; with one shard ``graph`` is the backend
    itself.  The defaults keep the original single in-memory
    :class:`Graph` — bit-for-bit, including planner estimates.  SQLite
    shards persist under ``data_dir/triples/`` when
    a ``data_dir`` is configured (reopening the same KB finds its
    triples again), else they live in ``:memory:``.
    """

    def __init__(
        self,
        client: RichClient | None = None,
        data_dir: str | Path | None = None,
        disambiguator: EntityDisambiguator | None = None,
        spellchecker: LocalSpellChecker | None = None,
        remote: OfflineSyncStore | None = None,
        storage: str | object = "memory",
        shards: int = 1,
        obs=None,
    ) -> None:
        self.client = client
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.kv: KeyValueStore
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
            self.kv = FileKeyValueStore(self.data_dir / "kb.json")
        else:
            self.kv = InMemoryKeyValueStore()
        self.database = Database()
        self.storage = storage
        self.shards = shards
        # Observability is resolved before the graph is built so the
        # sharded router and SQLite backends can register instruments.
        self._storage_obs = obs if obs is not None else (
            client.obs if client is not None else NULL_OBS)
        self.graph = self._build_graph()
        self.disambiguator = disambiguator
        self.spellchecker = spellchecker
        self.remote = remote
        # Observability: an explicit bundle wins; otherwise reuse the
        # client's so KB spans land in the same trace collector.
        self.obs = self._storage_obs
        self.view: MaterializedGraph | None = None
        self._view_reasoners: list | None = None
        self.pipeline = AnalysisPipeline(self.graph, obs=self.obs)
        self._tracer = self.obs.tracer
        self._metric_queries = self.obs.metrics.counter(
            names.KB_QUERIES_TOTAL, "SELECT queries answered by the PKB.")

    def _backend_factory(self):
        """The per-shard backend builder for the configured storage."""
        if callable(self.storage):
            return self.storage
        if self.storage == "memory":
            return lambda index: Graph()
        if self.storage == "sqlite":
            if self.data_dir is None:
                return lambda index: SqliteTripleStore(
                    ":memory:", obs=self._storage_obs)
            triples_dir = self.data_dir / "triples"
            triples_dir.mkdir(parents=True, exist_ok=True)
            return lambda index: SqliteTripleStore(
                triples_dir / f"shard{index}.sqlite", obs=self._storage_obs)
        raise ConfigurationError(
            f"unknown storage {self.storage!r}; choose 'memory', 'sqlite' "
            "or pass a backend factory")

    def _build_graph(self):
        """Construct the RDF store per ``storage`` / ``shards``.

        One shard is the store itself — a plain :class:`Graph`, a bare
        :class:`SqliteTripleStore`, whatever the factory builds — not a
        one-shard router: the router would add nothing (pushdown is the
        store's own ``execute_plan`` hook) and keep a second, resident
        copy of the statistics beside the file.
        """
        factory = self._backend_factory()
        if self.shards == 1:
            return factory(0)
        return ShardedGraph(shards=self.shards, backend_factory=factory,
                            obs=self._storage_obs)

    # ------------------------------------------------------------------
    # Fact entry ("it is very easy for users to enter new facts")
    # ------------------------------------------------------------------

    def _canonical_subject(self, surface: str) -> tuple[str, ResolvedEntity | None]:
        """Resolve a surface form to a unique entity ID when possible.

        Disambiguation prevents the "proliferation of redundant
        database entries" the paper warns about: 'USA' and 'United
        States of America' both become the same subject URI.
        """
        if self.disambiguator is None:
            return surface, None
        resolved = self.disambiguator.resolve(surface)
        if resolved is None:
            return surface, None
        return resolved.entity_id, resolved

    def add_fact(self, subject: str, predicate: str, obj: object,
                 disambiguate: bool = True) -> Triple:
        """Add one statement, canonicalizing subject (and string object)."""
        subject_id = subject
        if disambiguate:
            subject_id, resolved = self._canonical_subject(subject)
            if resolved is not None:
                self.pipeline.record(Triple(subject_id, RDFS.label, resolved.name))
                self.pipeline.record(Triple(subject_id, RDF.type, REPRO(resolved.entity_type)))
                for source, url in resolved.links.items():
                    self.pipeline.record(Triple(subject_id, REPRO(f"link_{source}"), url))
            if isinstance(obj, str):
                object_id, object_resolved = self._canonical_subject(obj)
                if object_resolved is not None:
                    obj = object_id
        triple = Triple(subject_id, predicate, obj)
        self.pipeline.record(triple)
        return triple

    def facts_about(self, subject: str) -> list[Triple]:
        """Every statement whose subject is (or resolves to) ``subject``."""
        subject_id, _ = self._canonical_subject(subject)
        return self.graph.match(subject_id, None, None)

    # ------------------------------------------------------------------
    # Public data ingestion via the Rich SDK
    # ------------------------------------------------------------------

    def ingest_entity(self, surface: str, sources: Sequence[str] | None = None) -> dict:
        """Pull an entity's facts from public knowledge services.

        Each source uses its own property-naming convention; the PKB
        asks each for its ``property_names`` mapping and normalizes
        everything back to canonical property names before storing —
        the §3 "different conventions for naming" problem, solved by
        conversion at ingest time.  Sources that do not cover the
        entity are skipped.  Returns per-source outcomes.
        """
        if self.client is None:
            raise ConfigurationError("ingest_entity requires a RichClient")
        if sources is None:
            sources = [service.name for service in
                       self.client.registry.services_of_kind("knowledge")]
        subject_id, _ = self._canonical_subject(surface)
        outcomes: dict[str, str] = {}
        for source in sources:
            try:
                naming = self.client.invoke(source, "property_names", {}).value
                record = self.client.invoke(source, "lookup", {"entity": surface}).value
            except RemoteServiceError as error:
                outcomes[source] = f"miss ({error.status})"
                continue
            except NetworkError:
                outcomes[source] = "offline"
                continue
            reverse = {renamed: canonical for canonical, renamed in naming.items()}
            stored = 0
            for renamed_property, value in record["facts"].items():
                canonical = reverse.get(renamed_property, renamed_property)
                self.pipeline.record(Triple(subject_id, REPRO(canonical), value))
                stored += 1
            self.pipeline.record(Triple(subject_id, REPRO(f"source_{source}"), record["uri"]))
            if record.get("type_value"):
                self.pipeline.record(Triple(subject_id, RDF.type, REPRO(record["type_value"])))
            outcomes[source] = f"ok ({stored} facts)"
        return outcomes

    # ------------------------------------------------------------------
    # Format conversion (CSV ↔ relational ↔ RDF)
    # ------------------------------------------------------------------

    def ingest_csv_text(self, table_name: str, csv_text: str) -> Table:
        """Load CSV text as a new relational table."""
        return self.database.replace_table(csv_text_to_table(table_name, csv_text))

    def ingest_csv_file(self, table_name: str, path: str | Path) -> Table:
        header, rows = read_csv(path)
        return self.database.replace_table(rows_to_table(table_name, header, rows))

    def export_table_csv(self, table_name: str, path: str | Path | None = None) -> str:
        """Table → CSV text (optionally written to a file) for external
        tools like "MATLAB, Excel, Python programs, R"."""
        csv_text = table_to_csv_text(self.database.table(table_name))
        if path is not None:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(csv_text)
        return csv_text

    def table_to_rdf(self, table_name: str, subject_column: str | None = None) -> int:
        """Convert a relational table into statements in the RDF store."""
        triples = table_to_triples(self.database.table(table_name), subject_column)
        return sum(map(self.pipeline.record, triples))

    def rdf_to_table(self, table_name: str) -> Table:
        """Pivot a table's statements (incl. inferred ones) back into a table."""
        header, rows = triples_to_rows(self.graph, table_name)
        return self.database.replace_table(rows_to_table(table_name, header, rows))

    # ------------------------------------------------------------------
    # Query and reasoning
    # ------------------------------------------------------------------

    def query(self, patterns, **kwargs):
        """SPARQL-like SELECT over the RDF store (see stores.rdf.query).

        Answered by the cost-based planner by default (pass
        ``optimize=False`` for the naive engine — results are
        identical either way, only the join order differs).  With
        materialization enabled, results come through the view's
        version-keyed cache.
        """
        self._metric_queries.inc()
        attributes = {"patterns": len(patterns)}
        tenant = current_tenant()
        if tenant is not None:
            attributes["tenant"] = tenant
        with self._tracer.span(names.SPAN_KB_QUERY, attributes):
            store = self.view if self.view is not None else self.graph
            return run_select(store, patterns, **kwargs)

    def explain(self, patterns, filters: Sequence = (),
                analyze: bool = False) -> QueryPlan:
        """The planner's chosen join order and filter placement.

        Returns a :class:`QueryPlan` for single stores; sharded stores
        get a :class:`~repro.stores.rdf.plan.FanoutPlan` whose envelope
        adds the routing decision (scatter / broadcast / single-shard)
        around the same inner plan.  Both
        expose ``explain()`` (stable dict) and ``describe()`` (text);
        the inner join plan is byte-identical across shard counts
        because the router's statistics are global.

        ``analyze=True`` also runs the join once, so every step reports
        ``actual_rows`` beside ``estimated_rows``.  On a sharded store
        the inner plan runs over the router (as the broadcast route
        does), so the counts are global ones.
        """
        if hasattr(self.graph, "route_select"):
            plan = build_sharded_plan(self.graph, patterns, filters)
            inner = plan.plan
        else:
            plan = inner = build_plan(self.graph, patterns, filters)
        if analyze:
            execute_plan(self.graph, inner, filters)
        return plan

    def enable_materialization(
        self, reasoners: Sequence[GenericRuleReasoner] | None = None
    ) -> MaterializedGraph:
        """Keep the store closed under ``reasoners`` incrementally.

        Wraps the graph in a :class:`MaterializedGraph` (defaults to an
        RDFS reasoner): every later write through the KB derives only
        the consequences of the change instead of re-running a full
        fixpoint, and :meth:`query` results are cached until the next
        mutation.  The analysis pipeline is rewired so its statements
        flow through the view too.  Idempotent-ish: calling again
        rebuilds the view with the new reasoner set.
        """
        self._view_reasoners = list(reasoners) if reasoners is not None else None
        self.view = MaterializedGraph(
            self.graph, reasoners=self._view_reasoners, obs=self.obs)
        self.pipeline.graph = self.view
        return self.view

    def reason(self, reasoner: str = "rdfs") -> int:
        """Apply a predefined reasoner; returns new-triple count."""
        if reasoner == "rdfs":
            return RdfsReasoner().forward(self.graph)
        if reasoner == "transitive":
            return TransitiveReasoner().forward(self.graph)
        raise ConfigurationError(
            f"unknown reasoner {reasoner!r}; choose 'rdfs' or 'transitive'"
        )

    def infer_with_rules(self, rules: Sequence[Rule]) -> int:
        """Run user-defined rules forward over the store."""
        return GenericRuleReasoner(list(rules)).forward(self.graph)

    # ------------------------------------------------------------------
    # Statistical analysis (Figure 5)
    # ------------------------------------------------------------------

    def analyze_numeric_table(
        self,
        table_name: str,
        x_column: str,
        y_column: str,
        subject: str,
        entity_type: str | None = None,
    ) -> dict:
        """Regress y on x over a table's rows; results become RDF facts."""
        table = self.database.table(table_name)
        rows = table.select(columns=[x_column, y_column])
        xs = [row[x_column] for row in rows if row[x_column] is not None
              and row[y_column] is not None]
        ys = [row[y_column] for row in rows if row[x_column] is not None
              and row[y_column] is not None]
        return self.pipeline.analyze_series(subject, xs, ys, series_name=table_name,
                                            entity_type=entity_type)

    # ------------------------------------------------------------------
    # Spell checking
    # ------------------------------------------------------------------

    def correct_text(self, text: str) -> dict:
        """Local spell correction (no network, no fee)."""
        if self.spellchecker is None:
            raise ConfigurationError("no spell checker attached")
        return self.spellchecker.correct_text(text)

    # ------------------------------------------------------------------
    # Persistence (local file + secure remote)
    # ------------------------------------------------------------------

    def export_graph_turtle(self, path: str | Path | None = None) -> str:
        """Serialize the RDF store as Turtle text (optionally to a file)."""
        from repro.stores.rdf.serialization import to_turtle

        text = to_turtle(self.graph)
        if path is not None:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        return text

    def import_graph_turtle(self, text_or_path: str | Path) -> int:
        """Merge Turtle statements into the RDF store; returns new count."""
        from repro.stores.rdf.serialization import from_turtle

        candidate = Path(str(text_or_path))
        try:
            is_file = candidate.is_file()
        except OSError:
            is_file = False  # long inline text is not a valid path
        text = candidate.read_text() if is_file else str(text_or_path)
        return sum(map(self.pipeline.record, from_turtle(text)))

    def snapshot(self) -> dict:
        """The whole knowledge base as one JSON-safe dict."""
        return {
            "graph": self.graph.to_list(),
            "database": self.database.to_dict(),
            "kv": {key: self.kv.get(key) for key in self.kv.keys()},
        }

    def restore(self, snapshot: dict) -> None:
        """Replace current contents with a snapshot's."""
        # The configured store is reused in place (SQLite files stay
        # open and are cleared transactionally; versions advance).
        self.graph.clear()
        self.graph.add_all(tuple(item) for item in snapshot.get("graph", []))
        if self.view is not None:
            # Re-wrap the refilled graph; restored triples all count as
            # base facts (a snapshot of a closed graph stays closed).
            self.view = MaterializedGraph(
                self.graph, reasoners=self._view_reasoners, obs=self.obs)
            self.pipeline.graph = self.view
        else:
            self.pipeline.graph = self.graph
        self.database = Database.from_dict(snapshot.get("database", {"tables": []}))
        self.kv.clear()
        for key, value in snapshot.get("kv", {}).items():
            self.kv.put(key, value)

    def save_local(self, path: str | Path | None = None) -> Path:
        """Write the snapshot to disk (defaults into ``data_dir``).

        The write is atomic: a failure part-way leaves the previous
        snapshot in place, still loadable.
        """
        if path is None:
            if self.data_dir is None:
                raise ConfigurationError("no data_dir configured and no path given")
            path = self.data_dir / "snapshot.json"
        target = Path(path)
        write_json_atomic(target, self.snapshot())
        return target

    def load_local(self, path: str | Path | None = None) -> None:
        if path is None:
            if self.data_dir is None:
                raise ConfigurationError("no data_dir configured and no path given")
            path = self.data_dir / "snapshot.json"
        import json

        self.restore(json.loads(Path(path).read_text()))

    def backup_remote(self, key: str = "snapshot") -> None:
        """Push the snapshot through the secure/offline remote store."""
        if self.remote is None:
            raise ConfigurationError("no remote store attached")
        self.remote.put(key, self.snapshot())

    def restore_remote(self, key: str = "snapshot") -> None:
        if self.remote is None:
            raise ConfigurationError("no remote store attached")
        snapshot = self.remote.get(key)
        if not isinstance(snapshot, dict):
            raise NotFoundError(f"remote key {key!r} does not hold a snapshot")
        self.restore(snapshot)


#: Short alias — the configuration-facing name used in docs/examples
#: (``KnowledgeBase(storage="sqlite", shards=4)``).
KnowledgeBase = PersonalKnowledgeBase
