"""Local persistent stores used by the personalized knowledge base.

The paper's PKB stores data "in multiple ways": files/CSV, a relational
DBMS (MySQL in the paper), key-value stores, and an RDF triple store
with reasoning (Apache Jena in the paper).  Each has a from-scratch
equivalent here, plus the format converters the paper calls "a key
property" of the PKB.

The triple store's physical layer is pluggable
(:mod:`repro.stores.backends`): the in-memory indexed graph and a
stdlib-``sqlite3`` file backend satisfy the same
:class:`~repro.stores.backends.base.StorageBackend` contract, and
:class:`~repro.stores.rdf.shard.ShardedGraph` composes N of either
behind one hash-sharding router (capacity and per-shard persistence;
shards are queried one after another on the caller's thread).
"""

from repro.stores.backends import SqliteTripleStore, StorageBackend
from repro.stores.kvstore import KeyValueStore, InMemoryKeyValueStore, FileKeyValueStore
from repro.stores.rdf.shard import ShardedGraph, shard_of
from repro.stores.csvio import read_csv, write_csv, read_csv_text, write_csv_text
from repro.stores.relational import Column, Database, Table
from repro.stores.converters import (
    table_to_triples,
    triples_to_rows,
    rows_to_table,
    csv_text_to_table,
    table_to_csv_text,
)

__all__ = [
    "StorageBackend",
    "SqliteTripleStore",
    "ShardedGraph",
    "shard_of",
    "KeyValueStore",
    "InMemoryKeyValueStore",
    "FileKeyValueStore",
    "read_csv",
    "write_csv",
    "read_csv_text",
    "write_csv_text",
    "Column",
    "Database",
    "Table",
    "table_to_triples",
    "triples_to_rows",
    "rows_to_table",
    "csv_text_to_table",
    "table_to_csv_text",
]
