"""Test-only oracle: the index and dictionary builds as they were before PR 21.

``ReferenceTfidfIndex`` holds the old ``_terms_of`` / ``add_document`` /
``remove_document`` / ``average_document_length`` / ``bm25_scores``
bodies verbatim: every document is tokenised, stopped and stemmed by the
index that adds it, the stemmer has no memory (``__wrapped__`` is the
bare function), and the average length is summed per query.
``reference_engine_index`` is the loop ``SearchEngineService.__init__``
ran per engine, ``reference_spell_counts`` the old
``SpellChecker.from_texts`` body.  Nothing under ``src/`` imports this.
"""

import math
from collections import Counter

from repro.services.search import _covered
from repro.textproc.stemmer import porter_stem
from repro.textproc.stopwords import remove_stopwords
from repro.textproc.tokenizer import word_tokens

_stem = porter_stem.__wrapped__


class ReferenceTfidfIndex:
    def __init__(self, stem=True):
        self.stem = stem
        self._doc_terms = {}
        self._doc_lengths = {}
        self._document_frequency = Counter()
        self._postings = {}

    def _terms_of(self, text):
        tokens = remove_stopwords(word_tokens(text))
        if self.stem:
            tokens = [_stem(token) for token in tokens]
        return tokens

    def add_document(self, doc_id, text):
        if doc_id in self._doc_terms:
            self.remove_document(doc_id)
        counts = Counter(self._terms_of(text))
        self._doc_terms[doc_id] = counts
        self._doc_lengths[doc_id] = sum(counts.values())
        for term in counts:
            self._document_frequency[term] += 1
            self._postings.setdefault(term, set()).add(doc_id)

    def remove_document(self, doc_id):
        counts = self._doc_terms.pop(doc_id, None)
        if counts is None:
            return
        del self._doc_lengths[doc_id]
        for term in counts:
            self._document_frequency[term] -= 1
            if self._document_frequency[term] == 0:
                del self._document_frequency[term]
            postings = self._postings[term]
            postings.discard(doc_id)
            if not postings:
                del self._postings[term]

    def document_frequency(self, term):
        return self._document_frequency.get(term, 0)

    def average_document_length(self):
        if not self._doc_lengths:
            return 0.0
        return sum(self._doc_lengths.values()) / len(self._doc_lengths)

    def bm25_scores(self, query, k1=1.5, b=0.75):
        query_terms = self._terms_of(query)
        if not query_terms:
            return []
        total_docs = len(self._doc_terms)
        avg_length = self.average_document_length() or 1.0
        scores = {}
        for term in set(query_terms):
            doc_frequency = self.document_frequency(term)
            if doc_frequency == 0:
                continue
            idf = math.log(1 + (total_docs - doc_frequency + 0.5) / (doc_frequency + 0.5))
            for doc_id in self._postings[term]:
                frequency = self._doc_terms[doc_id][term]
                length_norm = 1 - b + b * self._doc_lengths[doc_id] / avg_length
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * (
                    frequency * (k1 + 1) / (frequency + k1 * length_norm)
                )
        return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


def reference_engine_index(corpus, seed, coverage):
    """The index one ``SearchEngineService`` used to build for itself."""
    index = ReferenceTfidfIndex()
    for document in corpus:
        if _covered(seed, document.doc_id, coverage):
            index.add_document(document.doc_id, document.title + "\n" + document.text)
    return index


def reference_spell_counts(texts, extra_words=()):
    """The dictionary the old ``SpellChecker.from_texts`` handed its constructor."""
    counts = {}
    for text in texts:
        for token in word_tokens(text):
            counts[token] = counts.get(token, 0) + 1
    for word in extra_words:
        counts.setdefault(word.lower(), 1)
    return counts


def index_state(index):
    """Everything an index holds, with the per-document and per-term
    orders made explicit (``dict`` equality alone ignores them).

    Postings compare as each term's set of documents (the oracle keeps
    sets; ``TfidfIndex`` maps each document to the term's frequency
    there), and a frequency a posting carries must be the one its
    document's counts hold.
    """
    return {
        "doc_terms": [(doc_id, list(counts.items()))
                      for doc_id, counts in index._doc_terms.items()],
        "doc_lengths": list(index._doc_lengths.items()),
        "document_frequency": list(index._document_frequency.items()),
        "postings": [(term, set(postings)) for term, postings in index._postings.items()],
        "posting_frequencies_agree": all(
            frequency == index._doc_terms[doc_id][term]
            for term, postings in index._postings.items() if isinstance(postings, dict)
            for doc_id, frequency in postings.items()),
    }
