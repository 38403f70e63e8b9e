"""Crash recovery: a file-backed SQLite store killed mid-batch.

A child process commits batch A, then dies by ``SIGKILL`` while
``add_many(B)`` holds its transaction open between two chunks.  On
reopen the file must hold exactly A — the same size, version, term ids
and statistics as a store that only ever saw A — and the next write
must intern after A's terms.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.stores.backends.sqlite import SqliteTripleStore

BATCH_A = ([(f"a{i}", "p", i) for i in range(6)]
           + [(f"a{i}", "q", f"tag{i % 2}") for i in range(4)]
           + [("a0", "r", 2.5)])
BATCH_B = ([(f"b{i}", "p", 100 + i) for i in range(8)]
           + [("a1", "q", "tag-b"), ("a0", "p", 0)])

CHILD = """
import json, sys, time
from repro.stores.backends.sqlite import SqliteTripleStore

def block_on_chunk_one(chunk):
    if chunk == 1:
        print("mid-batch", flush=True)
        time.sleep(30)

store = SqliteTripleStore(sys.argv[1], batch_size=4)
store.add_all([tuple(t) for t in json.loads(sys.argv[2])])
print(json.dumps([store.version,
                  [[repr(t), i] for t, i in store._term_ids.items()]]),
      flush=True)
store.fault_hook = block_on_chunk_one
store.add_many([tuple(t) for t in json.loads(sys.argv[3])])
print("batch B committed", flush=True)
"""


def term_ids(store):
    return [[repr(term), term_id] for term, term_id in store._term_ids.items()]


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_a_batch_killed_mid_transaction_leaves_the_committed_store(tmp_path):
    path = tmp_path / "crash.sqlite"
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(path),
         json.dumps(BATCH_A), json.dumps(BATCH_B)],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        version_after_a, ids_after_a = json.loads(child.stdout.readline())
        assert child.stdout.readline() == "mid-batch\n"
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL

    fresh = SqliteTripleStore()
    fresh.add_all(BATCH_A)
    with SqliteTripleStore(path) as reopened:
        assert set(reopened) == set(fresh)
        assert len(reopened) == len(BATCH_A)
        assert reopened.version == version_after_a == len(BATCH_A)
        assert term_ids(reopened) == ids_after_a == term_ids(fresh)
        assert reopened.predicate_statistics() == fresh.predicate_statistics()
        for predicate in ("p", "q", "r"):
            assert (reopened.estimate_cardinality(None, predicate, None)
                    == fresh.estimate_cardinality(None, predicate, None))
        last_id = max(term_id for _, term_id in ids_after_a)
        assert reopened.add(("c0", "p", "c1"))
        assert [reopened._term_ids[term] for term in ("c0", "c1")] == [
            last_id + 1, last_id + 2]
    fresh.close()
