"""Text-processing substrate.

Everything the simulated cognitive services need to do *real* language
work locally: tokenization, sentence splitting, Porter stemming, stop
words, HTML parsing, a BM25 term index, and edit distance.  The NLU
providers in :mod:`repro.services.nlu`, the search engines in
:mod:`repro.services.search`, and the spell checkers are all built on
this package.
"""

from repro.textproc.tokenizer import tokenize, word_tokens, split_sentences
from repro.textproc.stemmer import porter_stem
from repro.textproc.stopwords import STOPWORDS, is_stopword, remove_stopwords
from repro.textproc.html import strip_html, extract_title, render_html
from repro.textproc.tfidf import TfidfIndex, term_frequencies
from repro.textproc.distance import levenshtein, damerau_levenshtein, similarity_ratio

__all__ = [
    "tokenize",
    "word_tokens",
    "split_sentences",
    "porter_stem",
    "STOPWORDS",
    "is_stopword",
    "remove_stopwords",
    "strip_html",
    "extract_title",
    "render_html",
    "TfidfIndex",
    "term_frequencies",
    "levenshtein",
    "damerau_levenshtein",
    "similarity_ratio",
]
