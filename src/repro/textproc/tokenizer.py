"""Tokenization and sentence splitting.

Deliberately rule-based and dependency-free: the goal is predictable,
testable behaviour for the simulated NLU services, not state-of-the-art
segmentation.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(
    r"""
    [A-Za-z]+(?:'[A-Za-z]+)?   # words, with an optional internal apostrophe
    | \d+(?:\.\d+)?            # integers and decimals
    """,
    re.VERBOSE,
)

_ABBREVIATIONS = frozenset(
    {"mr", "mrs", "ms", "dr", "prof", "inc", "corp", "ltd", "co", "vs", "etc", "e.g", "i.e", "u.s", "st"}
)

_SENTENCE_END_RE = re.compile(r"([.!?]+)(\s+|$)")


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Split ``text`` into word and number tokens.

    Punctuation is dropped; apostrophes inside words are kept
    (``don't`` stays one token).
    """
    tokens = _TOKEN_RE.findall(text)
    if lowercase:
        return _lower_all(tokens)
    return tokens


def _lower_all(tokens: list[str]) -> list[str]:
    """Each token lower-cased: tokens hold no whitespace and no cased
    character whose lower case depends on its neighbours, so lower-casing
    them joined is lower-casing each."""
    return " ".join(tokens).lower().split()


def word_tokens(text: str, lowercase: bool = True) -> list[str]:
    """Tokens that are words (numbers filtered out)."""
    return [token for token in tokenize(text, lowercase=lowercase) if not token[0].isdigit()]


def span_tokens(text: str, spans: list[tuple[int, int]]) -> list[list[str]]:
    """Lower-cased :func:`tokenize` tokens of each ``text[start:end]`` span.

    Scans ``text`` in place, without slicing it; for the spans of
    :func:`sentence_spans` the lists concatenate to ``tokenize(text)``,
    since no token crosses the whitespace between two sentences.
    """
    return [_lower_all(_TOKEN_RE.findall(text, start, end)) for start, end in spans]


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """``(start, end)`` offsets of each sentence of ``text``.

    Sentences end on ., ! and ? followed by whitespace or the end of
    the text; common abbreviations (Mr., Inc., U.S., ...) do not end a
    sentence.  Each span is stripped of surrounding whitespace and
    whitespace-only fragments are dropped, so between two consecutive
    spans there is only whitespace.
    """
    spans: list[tuple[int, int]] = []
    # A sentence starts where the whitespace after the previous one ends,
    # so only the first can start with blanks to strip.
    start = len(text) - len(text.lstrip())
    for match in _SENTENCE_END_RE.finditer(text, start):
        if match.group(1) == ".":
            preceding = text[start : match.start(1)].rsplit(None, 1)
            if preceding and preceding[-1].lower().rstrip(".") in _ABBREVIATIONS:
                continue
        spans.append((start, match.end(1)))
        start = match.end()
    end = len(text.rstrip())
    if start < end:
        spans.append((start, end))
    return spans


def split_sentences(text: str) -> list[str]:
    """Split ``text`` into sentences on ., ! and ? boundaries.

    The sentences :func:`sentence_spans` finds, as stripped strings.
    """
    return [text[start:end] for start, end in sentence_spans(text)]
