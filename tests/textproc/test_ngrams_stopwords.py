"""Tests for stop words."""

from repro.textproc.stopwords import STOPWORDS, is_stopword, remove_stopwords


class TestStopwords:
    def test_common_words_are_stopwords(self):
        for word in ("the", "and", "is", "of"):
            assert is_stopword(word)

    def test_case_insensitive(self):
        assert is_stopword("The")

    def test_content_words_are_not(self):
        for word in ("quantum", "ibm", "sentiment"):
            assert not is_stopword(word)

    def test_remove_stopwords(self):
        assert remove_stopwords(["the", "cat", "is", "fast"]) == ["cat", "fast"]

    def test_stopword_list_is_frozen(self):
        assert isinstance(STOPWORDS, frozenset)
