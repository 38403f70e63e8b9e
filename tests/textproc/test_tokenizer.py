"""Tests for tokenization and sentence splitting."""

import re
import time
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textproc.tokenizer import (
    _ABBREVIATIONS,
    _TOKEN_RE,
    sentence_spans,
    span_tokens,
    split_sentences,
    tokenize,
    word_tokens,
)


class TestTokenize:
    def test_basic_words(self):
        assert tokenize("Hello world") == ["hello", "world"]

    def test_punctuation_dropped(self):
        assert tokenize("Hello, world!") == ["hello", "world"]

    def test_keeps_case_when_asked(self):
        assert tokenize("Hello World", lowercase=False) == ["Hello", "World"]

    def test_numbers_tokenized(self):
        assert tokenize("pi is 3.14 and e is 2") == ["pi", "is", "3.14", "and", "e", "is", "2"]

    def test_apostrophes_kept_inside_words(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("   \n\t ") == []


class TestWordTokens:
    def test_filters_numbers(self):
        assert word_tokens("room 42 is open") == ["room", "is", "open"]


class TestSplitSentences:
    def test_basic_split(self):
        assert split_sentences("One. Two. Three.") == ["One.", "Two.", "Three."]

    def test_question_and_exclamation(self):
        sentences = split_sentences("Really? Yes! Good.")
        assert sentences == ["Really?", "Yes!", "Good."]

    def test_abbreviations_do_not_split(self):
        sentences = split_sentences("Mr. Smith arrived. He sat down.")
        assert sentences == ["Mr. Smith arrived.", "He sat down."]

    def test_corporate_abbreviation(self):
        sentences = split_sentences("Acme Inc. reported gains. Shares rose.")
        assert len(sentences) == 2

    def test_trailing_text_without_period(self):
        sentences = split_sentences("First sentence. trailing fragment")
        assert sentences == ["First sentence.", "trailing fragment"]

    def test_empty_input(self):
        assert split_sentences("") == []

    def test_single_sentence(self):
        assert split_sentences("Just one sentence.") == ["Just one sentence."]

    def test_multiple_terminators(self):
        assert split_sentences("What?! No way.") == ["What?!", "No way."]


# -- one splitting body: spans, and the tokens of each span ------------------

_REFERENCE_SENTENCE_END_RE = re.compile(r"([.!?]+)(\s+|$)")


def reference_split_sentences(text):
    """The splitting body as it was before ``sentence_spans``, verbatim."""
    sentences = []
    start = 0
    for match in _REFERENCE_SENTENCE_END_RE.finditer(text):
        candidate = text[start : match.end(1)]
        preceding = candidate[: match.start(1) - start]
        last_word = preceding.rsplit(None, 1)[-1].lower() if preceding.split() else ""
        last_word = last_word.rstrip(".")
        if match.group(1) == "." and last_word in _ABBREVIATIONS:
            continue
        stripped = candidate.strip()
        if stripped:
            sentences.append(stripped)
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


_PIECES = ["Mr.", "mr.", "Mr", "etc", "Inc.", "e.g.", "i.e.", "U.S.", "u.s.", "U.S.A.", "U.K.", "etc.",
           "St.", "3.5", "42.", "1,000", "don't", "It's", "New York", "City", "US", "IN",
           "word", "Word", "...", "?!", "!", "?", ".", "ſ", "İ", "ı", "K", "ß", "Σ", "ς",
           "é", "٣", "_", " ", " ", "\x1c"]
_GAPS = ["", " ", " ", "  ", "\n", "\n\n", "\t", " \n \n ", ". ", "! ", "? ", ".\n", "\r\n"]
_texts = st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(_GAPS)),
                  max_size=16).map(lambda pairs: "".join(p + g for p, g in pairs))


@settings(max_examples=300, deadline=None)
@given(text=_texts)
def test_sentences_are_the_spans_of_one_body(text):
    spans = sentence_spans(text)
    assert split_sentences(text) == [text[start:end] for start, end in spans]
    assert split_sentences(text) == reference_split_sentences(text)
    # Stripped, in order, and only whitespace between and around them.
    cursor = 0
    for start, end in spans:
        assert start < end and text[start:end] == text[start:end].strip()
        assert not text[cursor:start].strip()
        cursor = end
    assert not text[cursor:].strip()


@settings(max_examples=300, deadline=None)
@given(text=_texts)
def test_the_sentences_tokens_are_the_documents_tokens(text):
    assert tokenize(text) == [token.lower() for token in _TOKEN_RE.findall(text)]
    assert list(chain.from_iterable(span_tokens(text, sentence_spans(text)))) == tokenize(text)


def test_span_tokens_reads_each_span_in_place():
    text = "Dr. Who met 3.5 Daleks. THEY won't win!  Never."
    spans = sentence_spans(text)
    assert [text[a:b] for a, b in spans] == ["Dr. Who met 3.5 Daleks.", "THEY won't win!",
                                             "Never."]
    assert span_tokens(text, spans) == [["dr", "who", "met", "3.5", "daleks"],
                                        ["they", "won't", "win"], ["never"]]
    assert span_tokens(text, []) == []


def test_a_long_run_without_whitespace_is_read_once():
    text = "x" * 100_000 + " ends here. " + "y." * 50_000
    started = time.perf_counter()
    spans = sentence_spans(text)
    assert time.perf_counter() - started < 1.0   # ~0.01 s; once per character is minutes
    assert spans == [(0, 100_011), (100_012, 200_012)]
    assert split_sentences(text) == reference_split_sentences(text)
