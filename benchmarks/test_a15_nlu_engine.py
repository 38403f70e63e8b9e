"""A15 — the NLU engine kernel: single-scan matcher vs regex per surface.

``ingest-cold`` (the flagship path of ``benchmarks/e2e``) once spent
77% of its op time in ``services.nlu``: one compiled regex per gazetteer
surface form, run over every document and again over every sentence.
The engine now scans each document once with one trie: entities
resolve from that scan, and ``entity_sentiment`` resolves each
sentence from the document's occurrences inside the sentence's span
(there is no per-sentence re-scan).  Sentences are split into spans
and tokenised once, and those tokens are also the word counts keywords
and concepts share.  This benchmark times the kernel alone,
new engine vs the old one kept verbatim as a test oracle
(``tests/services/reference_nlu.py``), on the 1,000-document seed-42
corpus for the three provider configurations of the default catalog:

* docs/s for ``analyze`` with all five features (what ``ingest-cold``
  asks for) and with ``sentiment`` + ``keywords`` only (what
  ``burst-batch`` asks for — it must not pay for the matcher);
* engine construction time (the old engine compiled ~130 regexes, the
  regex cache purged first so the compile is really paid);
* and, while it has both answers in hand, that all 1,000 documents
  analyze to byte-identical JSON on every provider.

Results land in ``benchmarks/results/BENCH_A15.json``.
"""

import json
import re
import time

import pytest

from benchmarks._report import fmt_row, report, report_json
from repro import build_world
from repro.data.corpus import generate_corpus
from repro.data.gazetteer import default_gazetteer
from repro.services.nlu import ALL_FEATURES, NluEngine
from tests.services.reference_nlu import reference_for

CORPUS_SIZE = 1000
LIGHT_FEATURES = ("sentiment", "keywords")

#: The all-features kernel measures ~9x on 2 cores; CI asserts a floor
#: far enough below that to be insensitive to a noisy runner.
SPEEDUP_FLOOR = 3.0


def _timed(function, *args):
    started = time.perf_counter()
    value = function(*args)
    return value, time.perf_counter() - started


def _analyze_all(engine, texts, features, repeats=1):
    """The JSON answers and the best wall time of ``repeats`` passes."""
    best = float("inf")
    for _ in range(repeats):
        answers, seconds = _timed(
            lambda: [json.dumps(engine.analyze(text, features)) for text in texts])
        best = min(best, seconds)
    return answers, best


def _construct_ms(build) -> float:
    best = float("inf")
    for _ in range(5):
        re.purge()
        best = min(best, _timed(build)[1])
    return round(best * 1e3, 3)


@pytest.fixture(scope="module")
def texts():
    corpus = generate_corpus(size=CORPUS_SIZE, seed=42, gazetteer=default_gazetteer())
    return [document.text for document in corpus]


def test_a15_nlu_engine_kernel(texts):
    world = build_world(seed=42, corpus_size=20)
    services = [service for service in world.registry if service.kind == "nlu"]
    rows, payload = [], {}
    for service in services:
        engine = service.engine
        oracle = reference_for(engine)
        entry = {"surfaces": len(engine._known_surfaces)}
        # The light pass is ~0.2 s: best of three, or runner noise decides.
        for label, features, repeats in (("all", ALL_FEATURES, 1), ("light", LIGHT_FEATURES, 3)):
            _analyze_all(engine, texts[:50], features)          # warm both up
            _analyze_all(oracle, texts[:50], features)
            new, new_s = _analyze_all(engine, texts, features, repeats)
            old, old_s = _analyze_all(oracle, texts, features, repeats)
            assert new == old, f"{service.name}: {label} answers differ from the oracle"
            entry[label] = {
                "new_docs_per_s": round(len(texts) / new_s),
                "oracle_docs_per_s": round(len(texts) / old_s),
                "speedup_x": round(old_s / new_s, 2),
            }
        entry["construct_ms"] = {
            "new": _construct_ms(lambda: NluEngine(
                engine.gazetteer, engine.taxonomy, engine.lexicon,
                alias_recall=engine.alias_recall, heuristic_ner=engine.heuristic_ner,
                seed=engine.seed)),
            "oracle": _construct_ms(lambda: reference_for(engine)),
        }
        payload[service.name] = entry
        rows.append(fmt_row(
            service.name, entry["surfaces"],
            entry["all"]["oracle_docs_per_s"], entry["all"]["new_docs_per_s"],
            f'{entry["all"]["speedup_x"]}x',
            entry["light"]["oracle_docs_per_s"], entry["light"]["new_docs_per_s"],
            f'{entry["light"]["speedup_x"]}x',
            entry["construct_ms"]["oracle"], entry["construct_ms"]["new"],
            widths=(15, 8, 9, 9, 7, 10, 10, 7, 9, 9)))

    for name, entry in payload.items():
        assert entry["all"]["speedup_x"] >= SPEEDUP_FLOOR, (name, entry["all"])
        # sentiment + keywords never reaches the matcher: no worse than before.
        assert entry["light"]["speedup_x"] >= 0.9, (name, entry["light"])
        assert entry["construct_ms"]["new"] <= entry["construct_ms"]["oracle"], name

    report("A15", f"NLU engine kernel on {len(texts)} documents (docs/s, oracle vs new)", [
        fmt_row("provider", "surfaces", "all old", "all new", "x", "light old",
                "light new", "x", "build old", "build new",
                widths=(15, 8, 9, 9, 7, 10, 10, 7, 9, 9)),
        *rows,
        "all = five features (ingest-cold); light = sentiment + keywords (burst-batch);",
        "build = engine construction in ms, regex cache purged; "
        f"{len(texts)} x {len(services)} answers byte-identical",
    ])
    report_json("A15", {
        "corpus": {"documents": len(texts), "seed": 42},
        "identical_json": True,
        "providers": payload,
        "speedup_floor_x": SPEEDUP_FLOOR,
    })
