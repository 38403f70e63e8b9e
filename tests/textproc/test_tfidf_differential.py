"""The one-pass world build against the index-per-engine oracle.

``reference_tfidf.py`` holds the index and the spell-check dictionary
builds as they were before PR 21: each engine tokenises, stops and
stems every page it covers with a stemmer that has no memory.  The new
build computes each document's term ``Counter`` once per corpus and
hands the same object to every index.  Everything an index holds and
every BM25 score must come out equal — compared with ``==``, orders
included, never with a tolerance: the arithmetic did not change.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_world
from repro.data.corpus import CorpusDocument, SyntheticCorpus
from repro.services.spellcheck import SpellChecker
from repro.textproc.tfidf import TfidfIndex
from tests.textproc.reference_tfidf import (
    ReferenceTfidfIndex,
    index_state,
    reference_engine_index,
    reference_spell_counts,
)

ENGINES = ("goggle", "bung", "yahu")

# Words, stop words, inflections, apostrophes, numbers, capitals and the
# separators a token may or may not span.
_PIECES = st.sampled_from([
    "the", "and", "of", "Connect", "connected", "connections", "IBM",
    "ibm's", "don't", "running", "runs", "ponies", "42", "3.14", "x",
    "relational", "Paris", "paris", "\n", "\n\n", " - ", ". ", "'", "é",
])
_TEXTS = st.lists(_PIECES, max_size=25).map(" ".join) | st.text(max_size=60)


def _document(number, title, text):
    return CorpusDocument(
        doc_id=f"doc-{number}", url=f"http://example.test/{number}", title=title,
        html=f"<p>{text}</p>", text=text, doc_type="news", domain="example.test",
        timestamp=float(number))


@pytest.fixture(scope="module")
def big_world():
    return build_world(seed=42, corpus_size=1000)


def _queries(corpus):
    titles = [document.title for document in corpus.documents[::40]]
    return titles + [
        "IBM excellent results", "terrible scandal lawsuits", "the of and",
        "connections connecting connected", "vaccine outbreak hospitals",
        "zzzqqqxxx", "Tourism travel destination season", "42",
    ]


class TestSeed42World:
    @pytest.mark.parametrize("name", ENGINES)
    def test_index_and_scores_equal_the_oracle(self, big_world, name):
        engine = big_world.service(name)
        oracle = reference_engine_index(big_world.corpus, engine.seed, engine.coverage)
        assert len(oracle._doc_terms) == engine.crawl_size > 0
        assert index_state(engine._index) == index_state(oracle)
        assert (engine._index.average_document_length()
                == oracle.average_document_length())
        for query in _queries(big_world.corpus):
            assert (engine._index.bm25_scores(query, k1=engine.k1, b=engine.b)
                    == oracle.bm25_scores(query, k1=engine.k1, b=engine.b)), query

    def test_both_spell_check_dictionaries_equal_the_old_from_texts(self, big_world):
        corpus, gazetteer = big_world.corpus, big_world.gazetteer
        surfaces = [surface for entity in gazetteer
                    for surface in entity.all_surface_forms()]
        full = SpellChecker(reference_spell_counts(
            (document.text for document in corpus), surfaces))
        thin = SpellChecker(reference_spell_counts(
            (document.text for document in corpus.documents[: len(corpus) // 5]),
            surfaces))
        for checker, oracle in (
                (big_world.service("orthografix").checker, full),
                (big_world.service("dictaphone-pro").language_model, full),
                (big_world.service("mumblecorder").language_model, thin)):
            assert checker.counts == oracle.counts
        assert thin.counts != full.counts


class TestHypothesisTexts:
    @given(st.lists(st.tuples(_TEXTS, _TEXTS), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_corpus_pass_equals_per_document_tokenising(self, pages):
        corpus = SyntheticCorpus([_document(number, title, text)
                                  for number, (title, text) in enumerate(pages)])
        new, old = TfidfIndex(), ReferenceTfidfIndex()
        for document in corpus:
            new.add_counts(document.doc_id, corpus.term_counts()[document.doc_id])
            old.add_document(document.doc_id, document.title + "\n" + document.text)
        assert index_state(new) == index_state(old)
        assert list(corpus.word_counts().items()) == list(reference_spell_counts(
            document.text for document in corpus).items())

    @given(st.lists(st.tuples(st.sampled_from(["add", "add", "remove"]),
                              st.integers(0, 4), _TEXTS), max_size=14),
           _TEXTS, st.sampled_from([(1.5, 0.75), (1.2, 0.60), (2.0, 0.80)]))
    @settings(max_examples=80, deadline=None)
    def test_adds_re_adds_and_removals_keep_every_statistic(self, steps, query, knobs):
        new, old = TfidfIndex(), ReferenceTfidfIndex()
        for action, number, text in steps:
            for index in (new, old):
                if action == "add":
                    index.add_document(f"doc-{number}", text)
                else:
                    index.remove_document(f"doc-{number}")
            assert index_state(new) == index_state(old)
            assert new.average_document_length() == old.average_document_length()
        k1, b = knobs
        assert new.bm25_scores(query, k1=k1, b=b) == old.bm25_scores(query, k1=k1, b=b)
