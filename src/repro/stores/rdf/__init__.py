"""RDF triple store with reasoning (the PKB's Apache Jena stand-in).

* :mod:`repro.stores.rdf.graph` — triples, the indexed graph, and the
  RDF/RDFS vocabulary constants.
* :mod:`repro.stores.rdf.query` — a SPARQL-like SELECT engine over
  basic graph patterns with filters.
* :mod:`repro.stores.rdf.rules` — the "generic rule reasoner that
  supports user-defined rules", with forward chaining and tabled
  backward chaining: the one inference engine.
* :mod:`repro.stores.rdf.reasoner` — the predefined reasoners the paper
  lists, transitive and RDFS-subset, as rule lists for that engine.
* :mod:`repro.stores.rdf.stats` / :mod:`repro.stores.rdf.plan` —
  per-predicate cardinality statistics and the cost-based query
  planner built on them.
* :mod:`repro.stores.rdf.materialize` — incrementally maintained
  materialized views with a version-keyed query-result cache.
* :mod:`repro.stores.rdf.shard` — the hash-sharded composite store:
  a serial router with scatter/gather query execution (backends
  pluggable via :mod:`repro.stores.backends`).
"""

from repro.stores.rdf.graph import Triple, Graph, RDF, RDFS, REPRO
from repro.stores.rdf.query import (
    select,
    union,
    distinct_bindings,
    project_bindings,
    Pattern,
    RangeFilter,
    is_variable,
)
from repro.stores.rdf.stats import BOUND, GraphStatistics, PredicateStats, TripleStoreBase
from repro.stores.rdf.plan import (
    QueryPlan,
    PlanStep,
    FanoutPlan,
    build_plan,
    build_sharded_plan,
    execute_plan,
    bound_filter,
    filter_variables,
)
from repro.stores.rdf.shard import ShardedGraph, shard_of
from repro.stores.rdf.materialize import MaterializedGraph, QueryResultCache
from repro.stores.rdf.reasoner import TransitiveReasoner, RdfsReasoner
from repro.stores.rdf.rules import Rule, GenericRuleReasoner
from repro.stores.rdf.serialization import to_turtle, from_turtle
from repro.stores.rdf.provenance import (
    ConfidenceGraph,
    ConfidenceRuleEngine,
    WeightedRule,
    godel_tnorm,
    product_tnorm,
)

__all__ = [
    "to_turtle",
    "from_turtle",
    "ConfidenceGraph",
    "ConfidenceRuleEngine",
    "WeightedRule",
    "godel_tnorm",
    "product_tnorm",
    "Triple",
    "Graph",
    "RDF",
    "RDFS",
    "REPRO",
    "select",
    "union",
    "distinct_bindings",
    "project_bindings",
    "Pattern",
    "RangeFilter",
    "is_variable",
    "BOUND",
    "GraphStatistics",
    "PredicateStats",
    "TripleStoreBase",
    "QueryPlan",
    "PlanStep",
    "FanoutPlan",
    "build_plan",
    "build_sharded_plan",
    "execute_plan",
    "ShardedGraph",
    "shard_of",
    "bound_filter",
    "filter_variables",
    "MaterializedGraph",
    "QueryResultCache",
    "TransitiveReasoner",
    "RdfsReasoner",
    "Rule",
    "GenericRuleReasoner",
]
