"""SQLite backend specifics: persistence, WAL, batching, index scans.

The contract suite (test_backend_contract.py) already proves
byte-for-byte parity with the in-memory Graph; these tests cover what
is unique to the file-backed implementation.
"""

import pytest

from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.graph import Graph


def test_persistence_across_reopen(tmp_path):
    path = tmp_path / "kb.sqlite"
    with SqliteTripleStore(path) as store:
        store.add_all([("s1", "p", 1), ("s2", "p", 2.5), ("s3", "q", "x"),
                       ("s4", "flag", False)])
        dumped = store.to_list()
        version = store.version

    with SqliteTripleStore(path) as reopened:
        assert reopened.to_list() == dumped
        assert len(reopened) == 4
        # The version counter survives reopen (monotonic across runs).
        assert reopened.version == version
        # Term kinds round-trip exactly, not as strings.
        [t] = reopened.match("s4", "flag", None)
        assert t.object is False
        [t] = reopened.match("s2", "p", None)
        assert type(t.object) is float and t.object == 2.5
        # First-seen collapsing survives reopen: 1 was interned before
        # any equal representation, so True still resolves to it.
        assert ("s1", "p", True) in reopened


def test_wal_mode_for_file_stores(tmp_path):
    with SqliteTripleStore(tmp_path / "kb.sqlite") as store:
        [(mode,)] = store._conn.execute("PRAGMA journal_mode").fetchall()
        assert mode.lower() == "wal"


def test_batched_writes_use_one_transaction(tmp_path):
    chunks = []
    store = SqliteTripleStore(batch_size=10, fault_hook=chunks.append)
    added = store.add_all((f"s{i}", "p", i) for i in range(35))
    assert added == 35
    # ceil(35 / 10) = 4 chunk callbacks, single batch → indexes 0..3.
    assert chunks == [0, 1, 2, 3]
    assert store.version == 35


def test_prefix_scans_are_index_backed():
    store = SqliteTripleStore()
    store.add_all((f"s{i}", "p", i) for i in range(50))
    plans = {
        ("s1", None, None): "PRIMARY KEY",  # WITHOUT ROWID PK (s,p,o)
        (None, "p", None): "idx_triples_pos",
        (None, None, 7): "idx_triples_osp",
    }
    for probe, index_name in plans.items():
        where = []
        params = []
        resolved = [None if term is None else store._term_ids[term]
                    for term in probe]
        for column, term_id in zip("spo", resolved):
            if term_id is not None:
                where.append(f"{column} = ?")
                params.append(term_id)
        sql = "SELECT s, p, o FROM triples WHERE " + " AND ".join(where)
        rows = store._conn.execute("EXPLAIN QUERY PLAN " + sql,
                                   params).fetchall()
        detail = " ".join(str(row) for row in rows)
        assert index_name in detail, (probe, detail)


def test_scan_numeric_orders_and_limits():
    store = SqliteTripleStore()
    store.add_all([("a", "score", 3), ("b", "score", 1.5), ("c", "score", 9),
                   ("d", "score", 3), ("e", "score", "not-numeric"),
                   ("f", "other", 2)])
    # Uncut: numeric objects only, in the (p, o, s) index order match() has.
    rows = store.scan_numeric("score")
    assert [(t.subject, t.object) for t in rows] == [
        ("a", 3), ("d", 3), ("b", 1.5), ("c", 9)]
    assert rows == [t for t in store.match(None, "score", None)
                    if t.object != "not-numeric"]
    rows = store.scan_numeric("score", low=2, high=5)
    assert [t.subject for t in rows] == ["a", "d"]
    rows = store.scan_numeric("score", low=3, low_inclusive=False)
    assert [t.subject for t in rows] == ["c"]
    # With a limit: the stable top-k by value, ties in index order.
    rows = store.scan_numeric("score", limit=10)
    assert [(t.subject, t.object) for t in rows] == [
        ("b", 1.5), ("a", 3), ("d", 3), ("c", 9)]
    rows = store.scan_numeric("score", descending=True, limit=2)
    assert [t.subject for t in rows] == ["c", "a"]


def test_failed_batch_leaves_no_partial_state():
    calls = []

    def hook(chunk_index):
        calls.append(chunk_index)
        if chunk_index == 2:
            raise RuntimeError("mid-batch crash")

    store = SqliteTripleStore(batch_size=5, fault_hook=hook)
    store.add(("existing", "p", 0))
    with pytest.raises(RuntimeError):
        store.add_all((f"s{i}", "p", i) for i in range(20))
    # Total rollback: the pre-existing triple survives, nothing from the
    # failed batch is visible, and the interned-term dictionary was
    # unwound too (no ghost ids that would desync a future reopen).
    assert len(store) == 1
    assert store.match(None, "p", None)[0].subject == "existing"
    assert store.version == 1
    assert calls == [0, 1, 2]
    # The store remains usable and re-adding succeeds cleanly.
    store.fault_hook = None
    assert store.add_all((f"s{i}", "p", i) for i in range(20)) == 20
    assert len(store) == 21


def test_large_graph_round_trip_matches_memory(tmp_path):
    triples = [(f"s{i % 97}", f"p{i % 7}", i * 0.5) for i in range(2000)]
    reference = Graph()
    reference.add_all(triples)
    with SqliteTripleStore(tmp_path / "big.sqlite", batch_size=64) as store:
        store.add_all(triples)
        assert store.to_list() == reference.to_list()
        assert store.predicate_statistics() == reference.predicate_statistics()
