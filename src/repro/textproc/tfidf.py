"""Term statistics: term frequencies and the inverted index BM25 reads.

:class:`TfidfIndex` keeps the per-document term frequencies, document
frequencies and length statistics the BM25 search engines score with.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from repro.textproc.stemmer import porter_stem
from repro.textproc.stopwords import remove_stopwords
from repro.textproc.tokenizer import word_tokens


def content_terms(tokens: Iterable[str], stem: bool = True) -> list[str]:
    """Index terms of a word-token stream: stop words dropped, the rest stemmed."""
    terms = remove_stopwords(tokens)
    if stem:
        terms = [porter_stem(term) for term in terms]
    return terms


def term_frequencies(text: str, stem: bool = True) -> Counter[str]:
    """Counts of content terms in ``text`` (stop words removed)."""
    return Counter(content_terms(word_tokens(text), stem))


class TfidfIndex:
    """An inverted index with BM25 scoring.

    Documents are added with a stable ``doc_id``.  The index keeps raw
    term frequencies per document, document frequencies per term, and
    document lengths, which is everything BM25 needs; each term's
    posting maps the documents holding it to its frequency there, so a
    query reads each frequency straight off the posting.
    """

    def __init__(self, stem: bool = True) -> None:
        self.stem = stem
        self._doc_terms: dict[str, Counter[str]] = {}
        self._doc_lengths: dict[str, int] = {}
        self._total_length = 0
        self._document_frequency: Counter[str] = Counter()
        self._postings: dict[str, dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._doc_terms)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_terms

    def add_document(self, doc_id: str, text: str) -> None:
        """Index ``text`` under ``doc_id``; re-adding replaces the old copy."""
        self.add_counts(doc_id, term_frequencies(text, self.stem))

    def add_counts(self, doc_id: str, counts: Counter[str]) -> None:
        """Index ready term counts under ``doc_id``.

        ``counts`` is kept as is and never edited (removal rebinds), so
        indexes over one corpus can share it; callers must not edit it.
        """
        if doc_id in self._doc_terms:
            self.remove_document(doc_id)
        length = sum(counts.values())
        self._doc_terms[doc_id] = counts
        self._doc_lengths[doc_id] = length
        self._total_length += length
        for term, frequency in counts.items():
            self._document_frequency[term] += 1
            self._postings.setdefault(term, {})[doc_id] = frequency

    def remove_document(self, doc_id: str) -> None:
        """Drop ``doc_id`` from the index; unknown ids are a no-op."""
        counts = self._doc_terms.pop(doc_id, None)
        if counts is None:
            return
        self._total_length -= self._doc_lengths.pop(doc_id)
        for term in counts:
            self._document_frequency[term] -= 1
            if self._document_frequency[term] == 0:
                del self._document_frequency[term]
            postings = self._postings[term]
            del postings[doc_id]
            if not postings:
                del self._postings[term]

    # -- statistics ------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        return self._document_frequency.get(term, 0)

    def average_document_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    # -- retrieval -------------------------------------------------------

    def bm25_scores(
        self,
        query: str,
        k1: float = 1.5,
        b: float = 0.75,
    ) -> list[tuple[str, float]]:
        """BM25 scores of all candidate documents for ``query``, best first.

        The ``k1`` and ``b`` knobs are exposed so that the different
        simulated search engines can rank genuinely differently.
        """
        query_terms = content_terms(word_tokens(query), self.stem)
        if not query_terms:
            return []
        total_docs = len(self._doc_terms)
        avg_length = self.average_document_length() or 1.0
        scores: dict[str, float] = {}
        for term in set(query_terms):
            doc_frequency = self.document_frequency(term)
            if doc_frequency == 0:
                continue
            idf = math.log(1 + (total_docs - doc_frequency + 0.5) / (doc_frequency + 0.5))
            for doc_id, frequency in self._postings[term].items():
                length_norm = 1 - b + b * self._doc_lengths[doc_id] / avg_length
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * (
                    frequency * (k1 + 1) / (frequency + k1 * length_norm)
                )
        return sorted(scores.items(), key=lambda item: (-item[1], item[0]))
