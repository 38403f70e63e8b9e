"""A stdlib-``sqlite3`` triple store implementing :class:`StorageBackend`.

The "dev-grade durable backend" of the pluggable storage layer: one
file (or ``:memory:``) holds a dictionary-encoded triple table whose
three B-tree orderings mirror the in-memory graph's SPO / POS / OSP
hash indexes, so every ``match`` prefix scan is index-backed:

* ``terms(id, kind, text, numkey)`` — the term dictionary.  ``numkey``
  is an exact rational key (``fractions.Fraction``) for numeric terms,
  so ``1``, ``1.0`` and ``True`` collapse into one term exactly as
  Python dict interning collapses them in :class:`Graph` — the
  first-seen representation wins and is what scans decode back to.
* ``triples(s, p, o, onum)`` — interned id triples.  The table is
  ``WITHOUT ROWID`` with primary key ``(s, p, o)`` (the SPO index);
  secondary indexes cover ``(p, o, s)`` and ``(o, s, p)``.  ``onum``
  denormalizes numeric object values so range scans and top-k orders
  can run inside SQLite's C engine — :meth:`scan_numeric`, reached
  through the store's :meth:`execute_plan` hook (the one pushdown
  protocol, see :func:`repro.stores.rdf.plan.execute_plan`), whether
  the store stands alone or is one shard of a router.

Writes are batched: :meth:`add_all` / :meth:`add_many` run chunked
``executemany`` inside one transaction.  A ``fault_hook`` — the chaos
harness's injection point — is consulted between chunks; any raise
rolls the whole batch back, so partial batches are never visible
(asserted by ``tests/chaos/test_sqlite_faults.py``).

File-backed stores run in WAL mode so a reader can scan while another
connection writes.  The monotonic ``version`` counter is persisted in
a ``meta`` table and therefore survives reopen.
"""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from pathlib import Path

from repro.obs import NULL_OBS, names
from repro.stores.rdf.graph import Term, Triple
from repro.stores.rdf.plan import QueryPlan, join_by_match
from repro.stores.rdf.query import RangeFilter, is_variable
from repro.stores.rdf.stats import PredicateStats, TripleStoreBase, reject_nan

_SCHEMA = """
CREATE TABLE IF NOT EXISTS terms (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    text TEXT NOT NULL,
    numkey TEXT
);
CREATE TABLE IF NOT EXISTS triples (
    s INTEGER NOT NULL,
    p INTEGER NOT NULL,
    o INTEGER NOT NULL,
    onum REAL,
    PRIMARY KEY (s, p, o)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_triples_pos ON triples (p, o, s);
CREATE INDEX IF NOT EXISTS idx_triples_osp ON triples (o, s, p);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""
_INSERT = "INSERT OR IGNORE INTO triples (s, p, o, onum) VALUES (?, ?, ?, ?)"


def _encode(term: Term) -> tuple[str, str]:
    """A term's persisted ``(kind, text)`` representation."""
    if isinstance(term, bool):
        return "bool", str(term)
    if isinstance(term, int):
        return "int", str(term)
    if isinstance(term, float):
        return "float", repr(term)
    return "str", term


def _decode(kind: str, text: str) -> Term:
    """Rebuild a term from its persisted representation."""
    if kind == "bool":
        return text == "True"
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def _numeric_value(term: Term) -> float | None:
    """The term's float value when numeric, else None (for ``onum``)."""
    if isinstance(term, (bool, int, float)):
        try:
            return float(term)
        except OverflowError:
            # Ints beyond float range stay scannable by equality but
            # are excluded from numeric range scans.
            return None
    return None


class SqliteTripleStore(TripleStoreBase):
    """A :class:`StorageBackend` over one stdlib-``sqlite3`` database.

    Thread-safe: one connection guarded by an RLock, so each store
    serializes its own access and independent stores do not contend.
    ``batch_size`` bounds the rows per ``executemany`` chunk inside
    :meth:`add_all` / :meth:`add_many` transactions.
    """

    def __init__(self, path: str | Path = ":memory:", *,
                 batch_size: int = 512,
                 fault_hook=None,
                 obs=None) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.path = str(path)
        self.batch_size = batch_size
        self.fault_hook = fault_hook
        self._lock = threading.RLock()
        # isolation_level=None → autocommit; batch writes manage their
        # own BEGIN/COMMIT explicitly so rollback is exact.
        self._conn = sqlite3.connect(self.path, check_same_thread=False,
                                     isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._term_ids: dict[Term, int] = {}
        self._terms: dict[int, Term] = {}
        for term_id, kind, text in self._conn.execute(
                "SELECT id, kind, text FROM terms ORDER BY id"):
            term = _decode(kind, text)
            # First-seen (lowest id) representation wins on reload,
            # matching the order the terms were originally interned.
            if term not in self._term_ids:
                self._term_ids[term] = term_id
            self._terms[term_id] = term
        self._size = self._conn.execute(
            "SELECT COUNT(*) FROM triples").fetchone()[0]
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'version'").fetchone()
        self._version = row[0] if row is not None else 0
        self._additions = 0
        self._metric_ops = (obs if obs is not None else NULL_OBS).metrics.counter(
            names.STORAGE_BACKEND_OPS_TOTAL,
            "Storage-backend operations, labelled by backend and op.")

    # -- bookkeeping -------------------------------------------------------

    def _count_op(self, op: str) -> None:
        self._metric_ops.inc(backend="sqlite", op=op)

    def _persist_version(self) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES ('version', ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (self._version,))

    def _intern(self, term: Term, journal: list[Term] | None = None) -> int:
        term_id = self._term_ids.get(term)
        if term_id is None:
            kind, text = _encode(term)
            numkey = None
            if isinstance(term, (bool, int, float)):
                try:
                    numkey = str(Fraction(term))
                except (OverflowError, ValueError):
                    # inf / nan have no rational key; fall back to the
                    # textual representation (collapses equal infinities,
                    # as Python dict interning does).
                    numkey = text
            cursor = self._conn.execute(
                "INSERT INTO terms (kind, text, numkey) VALUES (?, ?, ?)",
                (kind, text, numkey))
            term_id = cursor.lastrowid
            self._term_ids[term] = term_id
            self._terms[term_id] = term
            if journal is not None:
                journal.append(term)
        return term_id

    def _forget_terms(self, journal: list[Term]) -> None:
        """Undo dictionary entries for terms rolled back with a batch."""
        for term in journal:
            term_id = self._term_ids.pop(term, None)
            if term_id is not None:
                self._terms.pop(term_id, None)

    def _row(self, triple: Triple, journal: list[Term] | None = None) -> tuple:
        """A triple's table row; terms interned in s, p, o order (ids break ties).

        A NaN term raises ``ValueError`` before any term is interned.
        """
        reject_nan((triple,))
        ids = (self._intern(triple.subject, journal),
               self._intern(triple.predicate, journal),
               self._intern(triple.object, journal))
        return (*ids, _numeric_value(self._terms[ids[2]]))

    def _ids_of(self, triple: Triple) -> tuple[int, int, int] | None:
        subject_id = self._term_ids.get(triple.subject)
        if subject_id is None:
            return None
        predicate_id = self._term_ids.get(triple.predicate)
        if predicate_id is None:
            return None
        object_id = self._term_ids.get(triple.object)
        if object_id is None:
            return None
        return subject_id, predicate_id, object_id

    # -- mutation ----------------------------------------------------------

    def add(self, triple: Triple | tuple) -> bool:
        """Insert a triple; returns False when it was already present."""
        triple = Triple(*triple) if not isinstance(triple, Triple) else triple
        with self._lock:
            added = self._conn.execute(_INSERT, self._row(triple)).rowcount == 1
            if added:
                self._size += 1
                self._version += 1
                self._additions += 1
                self._persist_version()
            self._count_op("add")
            return added

    def _batch_insert(self, triples: Iterable[Triple | tuple],
                      collect_flags: bool) -> tuple[int, list[bool]]:
        """Chunked, transactional bulk insert shared by add_all/add_many.

        The whole call is one transaction: if the fault hook (or SQLite
        itself) raises between chunks, every chunk already written is
        rolled back and the term dictionary is restored — a batch is
        visible either completely or not at all.
        """
        rows = [Triple(*t) if not isinstance(t, Triple) else t for t in triples]
        flags: list[bool] = []
        added = 0
        journal: list[Term] = []
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for start in range(0, len(rows), self.batch_size):
                    chunk = rows[start:start + self.batch_size]
                    if self.fault_hook is not None:
                        self.fault_hook(start // self.batch_size)
                    encoded = [self._row(triple, journal) for triple in chunk]
                    if collect_flags:
                        for row in encoded:
                            flags.append(
                                self._conn.execute(_INSERT, row).rowcount == 1)
                            added += flags[-1]
                    else:
                        before = self._conn.total_changes
                        self._conn.executemany(_INSERT, encoded)
                        added += self._conn.total_changes - before
                self._size += added
                self._version += added
                self._additions += added
                self._persist_version()
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                self._forget_terms(journal)
                raise
            self._count_op("add_batch")
        return added, flags

    def add_all(self, triples: Iterable[Triple | tuple]) -> int:
        """Insert many triples in one batched transaction; returns new count."""
        added, _ = self._batch_insert(triples, collect_flags=False)
        return added

    def add_many(self, triples: Iterable[Triple | tuple]) -> list[bool]:
        """Like :meth:`add_all` but reports per-triple newness.

        The sharded router uses this to keep its global statistics
        exact while still writing one transaction per shard batch.
        """
        _, flags = self._batch_insert(triples, collect_flags=True)
        return flags

    def remove(self, triple: Triple | tuple) -> bool:
        """Delete a triple; returns whether it was present."""
        triple = Triple(*triple) if not isinstance(triple, Triple) else triple
        with self._lock:
            ids = self._ids_of(triple)
            if ids is None:
                return False
            cursor = self._conn.execute(
                "DELETE FROM triples WHERE s = ? AND p = ? AND o = ?", ids)
            removed = cursor.rowcount == 1
            if removed:
                self._size -= 1
                self._version += 1
                self._persist_version()
            self._count_op("remove")
            return removed

    def clear(self) -> None:
        """Drop every triple and term; the version still advances."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute("DELETE FROM triples")
                self._conn.execute("DELETE FROM terms")
                self._version += 1
                self._persist_version()
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._term_ids.clear()
            self._terms.clear()
            self._size = 0
            self._count_op("clear")

    # -- scans -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        with self._lock:
            rows = self._conn.execute("SELECT s, p, o FROM triples").fetchall()
        terms = self._terms
        for subject_id, predicate_id, object_id in rows:
            yield Triple(terms[subject_id], terms[predicate_id],
                         terms[object_id])

    def __contains__(self, triple: Triple | tuple) -> bool:
        triple = Triple(*triple) if not isinstance(triple, Triple) else triple
        with self._lock:
            ids = self._ids_of(triple)
            # Asked once per derived conclusion: a constant statement.
            return ids is not None and self._conn.execute(
                "SELECT 1 FROM triples WHERE s = ? AND p = ? AND o = ?",
                ids).fetchone() is not None

    @property
    def version(self) -> int:
        """Monotonic mutation counter (persisted across reopen)."""
        return self._version

    @property
    def additions(self) -> int:
        """Triples inserted since this store was opened (not persisted:
        it syncs in-process readers, see :attr:`Graph.additions`)."""
        return self._additions

    def match(self, subject: str | None = None, predicate: str | None = None,
              obj: Term | None = None) -> list[Triple]:
        """Index-backed prefix scan; ``None`` is a wildcard.

        SQLite picks the SPO primary key or one of the POS / OSP
        secondary indexes from the bound columns — the same dispatch
        table the in-memory graph implements by hand.
        """
        clauses: list[str] = []
        params: list[int] = []
        with self._lock:
            for column, term in (("s", subject), ("p", predicate), ("o", obj)):
                if term is None:
                    continue
                term_id = self._term_ids.get(term)
                if term_id is None:
                    return []
                clauses.append(f"{column} = ?")
                params.append(term_id)
            sql = "SELECT s, p, o FROM triples"
            if clauses:
                sql += " WHERE " + " AND ".join(clauses)
            rows = self._conn.execute(sql, params).fetchall()
            self._count_op("scan")
        terms = self._terms
        return [Triple(terms[s], terms[p], terms[o]) for s, p, o in rows]

    def scan_numeric(self, predicate: str, low: float | None = None,
                     high: float | None = None, *,
                     low_inclusive: bool = True, high_inclusive: bool = True,
                     descending: bool = False,
                     limit: int | None = None) -> list[Triple]:
        """Numeric-object scan executed inside SQLite's C engine.

        Returns the triples ``(s, predicate, numeric o)`` whose object
        value falls in the given range, in the ``(p, o, s)`` index
        order :meth:`match` returns them in.  With ``limit`` it returns
        the stable top-``limit`` of those rows by value (``descending``
        picks the end; ties keep the index order) — what ``select``'s
        own top-k would keep of the whole scan, in its order.

        ``onum`` is the object's ``float()``: NaN is stored as NULL and
        is in no range (as :class:`~repro.stores.rdf.query.RangeFilter`
        has it), an int beyond float range has none either and is left
        out, and the comparison is exact up to 2**53.
        """
        with self._lock:
            predicate_id = self._term_ids.get(predicate)
            if predicate_id is None:
                return []
            clauses = ["p = ?", "onum IS NOT NULL"]
            params: list[object] = [predicate_id]
            if low is not None:
                clauses.append("onum >= ?" if low_inclusive else "onum > ?")
                params.append(low)
            if high is not None:
                clauses.append("onum <= ?" if high_inclusive else "onum < ?")
                params.append(high)
            sql = ("SELECT s, o FROM triples WHERE " + " AND ".join(clauses)
                   + " ORDER BY ")
            if limit is not None:
                sql += f"onum {'DESC' if descending else 'ASC'}, o, s LIMIT ?"
                params.append(limit)
            else:
                sql += "o, s"
            rows = self._conn.execute(sql, params).fetchall()
            self._count_op("scan_numeric")
        terms = self._terms
        return [Triple(terms[s], predicate, terms[o]) for s, o in rows]

    def execute_plan(self, plan: QueryPlan, filters: Sequence = (),
                     top: tuple[str, bool, int] | None = None) -> list[dict[str, Term]]:
        """Run a :class:`~repro.stores.rdf.plan.QueryPlan`, in SQL where it can.

        The shape :meth:`Graph.execute_plan` reads off its numeric
        column — a one-step ``(?s p ?o)`` plan whose one pushed filter
        is a ``RangeFilter`` on ``?o`` — is one :meth:`scan_numeric`,
        which also takes the cut when ``top`` orders by ``?o``; rows
        and order are the generic loop's followed by ``select``'s tail
        (but see :meth:`scan_numeric` on ints beyond float range).
        Every other plan goes to that loop.  ``plan.actual_rows``
        counts what the statement returned: after a cut made in SQL,
        the rows the scan never produced are not counted.
        """
        if len(plan.steps) == 1 and len(plan.steps[0].filter_indexes) == 1:
            step = plan.steps[0]
            subject, predicate, obj = step.pattern
            test = filters[step.filter_indexes[0]]
            if (type(test) is RangeFilter and is_variable(subject)
                    and not is_variable(predicate)
                    and test.variable == obj != subject):
                # The cut runs in SQL only for a top-k over the scanned column.
                _, descending, limit = (top if top is not None
                                        and top[0] == obj else (obj, False, None))
                triples = self.scan_numeric(
                    predicate, test.low, test.high,
                    low_inclusive=test.low_inclusive,
                    high_inclusive=test.high_inclusive,
                    descending=descending, limit=limit)
                plan.actual_rows = [len(triples)]
                return [{subject: triple.subject, obj: triple.object}
                        for triple in triples]
        return join_by_match(self, plan, filters)

    # -- statistics and cardinality estimation -----------------------------

    def _term_key(self, term: Term) -> int | None:
        return self._term_ids.get(term)

    def _scalar(self, sql: str, params: tuple = ()) -> int:
        with self._lock:
            return self._conn.execute(sql, params).fetchone()[0]

    def _matching(self, subject_id: int | None, predicate_id: int | None,
                  object_id: int | None) -> int:
        """Exact triple count: one ``COUNT(*)`` over the bound columns,
        which SQLite answers from the index whose prefix they form."""
        bound = {column: term_id for column, term_id
                 in zip("spo", (subject_id, predicate_id, object_id))
                 if term_id is not None}
        if not bound:
            return self._size
        where = " AND ".join(f"{column} = ?" for column in bound)
        return self._scalar(f"SELECT COUNT(*) FROM triples WHERE {where}",
                            tuple(bound.values()))

    def _distinct(self, position: str, predicate_id: int | None) -> int:
        # ``position`` is a column name: the shared model passes only
        # its own literals "s" / "p" / "o", never caller input.
        sql = f"SELECT COUNT(DISTINCT {position}) FROM triples"
        if predicate_id is None:
            return self._scalar(sql)
        return self._scalar(sql + " WHERE p = ?", (predicate_id,))

    def _predicate_terms(self) -> list[str]:
        with self._lock:
            rows = self._conn.execute("SELECT DISTINCT p FROM triples").fetchall()
        return [self._terms[row[0]] for row in rows]

    def estimate_cardinality(self, subject: object = None,
                             predicate: object = None,
                             obj: object = None) -> float:
        """The shared estimate under one lock acquisition: no writer lands mid-way."""
        with self._lock:
            return super().estimate_cardinality(subject, predicate, obj)

    def predicate_statistics(self) -> dict[str, PredicateStats]:
        """The shared snapshot, read under one lock acquisition."""
        with self._lock:
            return super().predicate_statistics()

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SqliteTripleStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
