"""Pluggable storage backends for the PKB triple store.

* :mod:`repro.stores.backends.base` — the :class:`StorageBackend`
  protocol (structural; the in-memory
  :class:`~repro.stores.rdf.graph.Graph` satisfies it unchanged); the
  shared canonical dump order is re-exported here from
  :mod:`repro.stores.rdf.stats`.
* :mod:`repro.stores.backends.sqlite` — :class:`SqliteTripleStore`,
  a stdlib-``sqlite3`` file / ``:memory:`` backend with WAL, batched
  transactional writes and index-backed prefix scans.

The hash-sharded composite lives in :mod:`repro.stores.rdf.shard`
(it is a query-execution layer as much as a storage one).
"""

from repro.stores.backends.base import StorageBackend
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.stats import canonical_triple_list

__all__ = [
    "StorageBackend",
    "SqliteTripleStore",
    "canonical_triple_list",
]
