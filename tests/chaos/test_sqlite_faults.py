"""Chaos injection for the SQLite storage backend.

The invariant under test: a write-error burst landing *mid-transaction*
(between executemany chunks of one batch) must never leave partial
state — no triple from the failed batch visible, no interned term
leaked, version untouched, store still usable.  This mirrors the
FaultyStore pattern used for the KV store, but aimed at the one place
the KV wrapper cannot reach: inside an open transaction.
"""

import pytest

from repro.chaos import SqliteWriteBurst, StorageFaultError, Window
from repro.stores.backends.sqlite import SqliteTripleStore
from repro.stores.rdf.shard import ShardedGraph
from repro.util.clock import ManualClock


def burst_store(batch_size=4, chunk_cost=1.0, windows=None, start=0.0,
                path=":memory:"):
    clock = ManualClock(start=start)
    burst = SqliteWriteBurst(
        clock,
        windows if windows is not None else [Window(2.5, 10.0)],
        chunk_cost=chunk_cost)
    store = SqliteTripleStore(path, batch_size=batch_size, fault_hook=burst)
    return store, burst, clock


def test_burst_fires_mid_transaction_and_rolls_back_fully():
    store, burst, clock = burst_store()
    store.add(("seed", "p", -1))
    version = store.version
    # Chunks cost 1.0s each from t=0; the window [2.5, 10) opens after
    # chunk 3's charge → chunks 0..1 execute, chunk 2 faults with the
    # transaction open.
    with pytest.raises(StorageFaultError) as excinfo:
        store.add_all((f"s{i}", "p", i) for i in range(16))
    assert excinfo.value.status == 503
    assert burst.faults_raised == 1
    assert burst.chunks_seen == 3
    # Invariant: nothing from the failed batch is visible.
    assert len(store) == 1
    assert store.to_list() == [["seed", "p", -1]]
    assert store.version == version
    # Interned terms from the rolled-back chunks were unwound: a fresh
    # reopen of the same data sees a consistent dictionary.
    assert "s0" not in store._term_ids
    assert "s5" not in store._term_ids


def test_store_recovers_after_window_closes():
    store, burst, clock = burst_store()
    with pytest.raises(StorageFaultError):
        store.add_all((f"s{i}", "p", i) for i in range(16))
    clock.advance(20.0)  # past the fault window
    assert store.add_all((f"s{i}", "p", i) for i in range(16)) == 16
    assert len(store) == 16
    assert store.version == 16


def test_file_backed_rollback_survives_reopen(tmp_path):
    path = tmp_path / "burst.sqlite"
    store, burst, clock = burst_store(path=path)
    store.add(("seed", "p", -1))
    with pytest.raises(StorageFaultError):
        store.add_all((f"s{i}", "p", i) for i in range(16))
    store.close()
    with SqliteTripleStore(path) as reopened:
        assert reopened.to_list() == [["seed", "p", -1]]
        assert len(reopened._term_ids) == 3  # seed, p, -1 — nothing leaked
        assert reopened.version == 1


def test_add_many_flags_never_partial():
    store, burst, clock = burst_store()
    with pytest.raises(StorageFaultError):
        store.add_many([(f"s{i}", "p", i) for i in range(16)])
    assert len(store) == 0
    clock.advance(20.0)
    flags = store.add_many([("a", "p", 1), ("a", "p", 1), ("b", "p", 2)])
    assert flags == [True, False, True]


def test_sharded_writes_survive_single_shard_burst():
    # Only the last shard is faulty: a router-level bulk write fails
    # loudly, earlier shards keep their committed slices, and the
    # faulty shard's slice rolls back as a unit (per-shard
    # transactionality — partial *shards*, never torn *batches*).
    clock = ManualClock(start=0.0)
    burst = SqliteWriteBurst(clock, [Window(0.0, 100.0)], chunk_cost=1.0)

    def factory(index):
        hook = burst if index == 2 else None
        return SqliteTripleStore(batch_size=4, fault_hook=hook)

    sharded = ShardedGraph(shards=3, backend_factory=factory)
    triples = [(f"s{i}", "p", i) for i in range(30)]
    with pytest.raises(StorageFaultError):
        sharded.add_all(triples)
    assert len(sharded.shards[2]) == 0
    assert len(sharded.shards[0]) + len(sharded.shards[1]) > 0
    # Router statistics only count what actually landed, and queries
    # still answer consistently over the partial (but never torn) data.
    total = sum(len(shard) for shard in sharded.shards)
    assert len(sharded) == total
    rows = sharded.select([("?s", "p", "?v")])
    assert len(rows) == total
    sharded.close()


def test_sharded_add_many_is_one_transaction_per_shard():
    # The fault hits shard 2's SECOND chunk: its first chunk is already
    # written inside the open transaction and must vanish with it.
    calls = []

    def second_chunk_fails(chunk_index):
        calls.append(chunk_index)
        if chunk_index == 1:
            raise StorageFaultError("shard2")

    def factory(index):
        hook = second_chunk_fails if index == 2 else None
        return SqliteTripleStore(batch_size=4, fault_hook=hook)

    sharded = ShardedGraph(shards=3, backend_factory=factory)
    triples = [(f"s{i}", "p", i % 6) for i in range(30)]
    with pytest.raises(StorageFaultError):
        sharded.add_many(triples)
    assert calls == [0, 1]
    assert len(sharded.shards[2]) == 0
    held = [triple for shard in sharded.shards for triple in shard]
    assert 0 < len(held) < len(triples)
    assert len(sharded) == len(held)
    reference = ShardedGraph(shards=3)
    reference.add_all(held)
    assert sharded.predicate_statistics() == reference.predicate_statistics()
    sharded.close()
