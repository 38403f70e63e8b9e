"""Tests for the term index and BM25 scoring."""

import pytest

from repro.textproc.tfidf import TfidfIndex, term_frequencies


@pytest.fixture
def index():
    idx = TfidfIndex()
    idx.add_document("d1", "the cat sat on the mat and the cat purred")
    idx.add_document("d2", "dogs chase cats in the park")
    idx.add_document("d3", "stock markets rallied as investors cheered earnings")
    return idx


class TestTermFrequencies:
    def test_counts_content_terms(self):
        counts = term_frequencies("the cat and the cat")
        assert counts["cat"] == 2
        assert "the" not in counts  # stopword

    def test_stemming_folds_variants(self):
        counts = term_frequencies("connect connected connecting")
        assert len(counts) == 1
        assert counts.most_common(1)[0][1] == 3


class TestIndexMaintenance:
    def test_len_and_contains(self, index):
        assert len(index) == 3
        assert "d1" in index
        assert "missing" not in index

    def test_readd_replaces(self, index):
        index.add_document("d1", "completely new content about quantum physics")
        assert len(index) == 3
        assert index.bm25_scores("quantum")[0][0] == "d1"
        assert index.bm25_scores("cat purred") == [] or all(
            doc != "d1" for doc, _ in index.bm25_scores("purred")
        )

    def test_remove_document(self, index):
        index.remove_document("d3")
        assert len(index) == 2
        assert index.bm25_scores("stock") == []

    def test_remove_unknown_is_noop(self, index):
        index.remove_document("nope")
        assert len(index) == 3

    def test_document_frequency_tracks_removal(self, index):
        # "cat"/"cats" stem together and appear in d1 and d2.
        stem = "cat"
        assert index.document_frequency(stem) == 2
        index.remove_document("d2")
        assert index.document_frequency(stem) == 1


class TestScoring:
    def test_bm25_ranks_matching_doc_first(self, index):
        scores = index.bm25_scores("cat mat")
        assert scores[0][0] == "d1"

    def test_bm25_empty_query(self, index):
        assert index.bm25_scores("the and of") == []

    def test_bm25_no_match(self, index):
        assert index.bm25_scores("xylophone") == []

    def test_bm25_scores_positive_and_sorted(self, index):
        scores = index.bm25_scores("cats park stock")
        values = [score for _, score in scores]
        assert values == sorted(values, reverse=True)
        assert all(value > 0 for value in values)

    def test_bm25_parameters_change_ranking_scores(self, index):
        default = dict(index.bm25_scores("cat"))
        flat = dict(index.bm25_scores("cat", k1=0.1, b=0.0))
        assert default != flat

