"""The single-scan NLU engine against the regex-per-surface oracle.

``reference_nlu.py`` holds the engine as it was before the matcher:
one regex per surface form, a per-character mask, five passes.  The
new engine must return exactly what it returns — same mentions in the
same order, same floats, same key order — for the three provider
configurations of the default catalog and for any gazetteer.
"""

import json
import re
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_world
from repro.data.corpus import generate_corpus
from repro.data.gazetteer import Entity, Gazetteer, default_gazetteer
from repro.data.lexicon import default_sentiment_lexicon
from repro.data.taxonomy import default_taxonomy
from repro.services.nlu import _FOLD, ALL_FEATURES, NluEngine
from tests.services.reference_nlu import ReferenceNluEngine, reference_for

FEATURE_SUBSETS = [subset for size in range(len(ALL_FEATURES) + 1)
                   for subset in combinations(ALL_FEATURES, size)]

# Every 4th of the 1,000 documents keeps tier-1 fast; benchmark A15
# (benchmarks/test_a15_nlu_engine.py) asserts the same equality over all
# 1,000 while it times both engines.
CORPUS_STRIDE = 4


@pytest.fixture(scope="module")
def providers():
    """(new engine, oracle) for lexica-prime / glotta / wordsmith-lite."""
    world = build_world(seed=42, corpus_size=20)
    engines = [service.engine for service in world.registry if service.kind == "nlu"]
    assert [(e.alias_recall, e.heuristic_ner) for e in engines] == [
        (0.98, False), (0.85, False), (0.70, True)]
    return [(engine, reference_for(engine)) for engine in engines]


def _dump(value) -> str:
    return json.dumps(value, ensure_ascii=False)


def _assert_same_analysis(providers, text):
    for engine, oracle in providers:
        expected = oracle.analyze(text)
        assert _dump(engine.analyze(text)) == _dump(expected)
        for subset in FEATURE_SUBSETS:
            # The oracle's features are independent passes, so a subset
            # of it is a projection of the full answer.
            projection = {key: value for key, value in expected.items()
                          if key in subset or key not in ALL_FEATURES}
            assert _dump(engine.analyze(text, subset)) == _dump(projection)


class TestCorpus:
    def test_identical_json_on_the_seed_42_corpus(self, providers):
        documents = generate_corpus(size=1000, seed=42, gazetteer=default_gazetteer())
        for engine, oracle in providers:
            for document in documents.documents[::CORPUS_STRIDE]:
                assert _dump(engine.analyze(document.text)) == _dump(
                    oracle.analyze(document.text)), document.doc_id

    def test_public_methods_agree_one_by_one(self, providers):
        documents = generate_corpus(size=12, seed=5, gazetteer=default_gazetteer())
        for engine, oracle in providers:
            for document in documents:
                text = document.text
                for method in ("extract_entities", "extract_keywords", "extract_concepts",
                               "document_sentiment", "entity_sentiment"):
                    assert _dump(getattr(engine, method)(text)) == _dump(
                        getattr(oracle, method)(text)), method
                assert engine.disambiguate(text) == oracle.disambiguate(text)


# -- generated text over the default gazetteer ------------------------------

_SURFACES = sorted({surface for entity in default_gazetteer()
                    for surface in entity.all_surface_forms()})
_FILLER = ["the", "in", "us", "it", "not", "never", "very", "barely", "good", "excellent",
           "terrible", "scandal", "growth", "market", "stock", "patients", "software",
           "Inc.", "Mr.", "e.g.", "U.S", "3.5", "42", "don't", "of", "and", "New", "York",
           "United", "States", "City", "People", "s", "Republic", "Big", "Flurbcorp",
           "Zed Devices", "This Thing"]
_ODD_LETTERS = ["é", "ß", "İ", "ı", "ſ", "K", "Σ", "ς", "中", "_", " ", "٣"]
_JOINERS = [" ", " ", " ", "", ". ", ".", "! ", "? ", ", ", "-", "'", "’s ", "\n", "  ",
            " (", ") ", ".A ", "'s "]


def _case_variants(surface):
    return st.sampled_from([surface, surface.upper(), surface.lower(), surface.swapcase(),
                            surface.title()])


_piece = st.one_of(
    st.sampled_from(_SURFACES).flatmap(_case_variants),
    st.sampled_from(_SURFACES),
    st.sampled_from(["U.S.", "U.S.A.", "U.K.", "u.s.a.", "People's Republic of China",
                     "PEOPLE'S REPUBLIC OF CHINA", "New York City of Light",
                     "United States of America", "the Big Apple", "the States"]),
    st.sampled_from(_FILLER),
    st.sampled_from(_ODD_LETTERS),
)
_texts = st.lists(st.tuples(_piece, st.sampled_from(_JOINERS)), min_size=1, max_size=14).map(
    lambda pairs: "".join(piece + joiner for piece, joiner in pairs))


@settings(max_examples=150, deadline=None)
@given(text=_texts)
def test_generated_text_matches_the_oracle(providers, text):
    _assert_same_analysis(providers, text)


@pytest.mark.parametrize("text", [
    "The U.S. is large. U.S.A. wins and the U.K. too.",
    "New York City of Light",          # equal-length surfaces: the tie goes by string
    "United States of America Corp and the United States",
    "PEOPLE'S republic OF china praised İBM, ıbm and Kelvin-Karl Marx.",
    "ſtark Pariſ İndia ındia Indıa ToKyo",   # (?i) s / i / k also match U+017F, U+0130/1, U+212A
    "IN in In iN",
    "éUS USé US",                      # \b next to a non-ASCII letter
    "IBMIBM IBM_IBM IBM-IBM IBM.IBM",
    "  \n ",
    "",
])
def test_pinned_edge_cases_match_the_oracle(providers, text):
    _assert_same_analysis(providers, text)


# -- generated gazetteers: nesting, self-overlap, separators at the edges ----

_WORDS = ["a", "b", "ab", "A", "Ba", "abc", "abcd", "x1", "İ", "ſ"]
_GAPS = [" ", ".", "'", " - ", ". "]
_surface = st.tuples(
    st.sampled_from(["", "", "", "."]),
    st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_GAPS)),
             min_size=1, max_size=4),
    st.sampled_from(["", "", "", ".", "'"]),
).map(lambda parts: parts[0] + "".join(w + g for w, g in parts[1][:-1])
      + parts[1][-1][0] + parts[2])


def _tiny_engines(surfaces, heuristic_ner):
    by_key = {}
    for surface in surfaces:
        by_key.setdefault(surface.lower(), surface)   # Gazetteer keys are lower-cased
    gazetteer = Gazetteer([Entity(f"E{index}", name, "Thing")
                           for index, name in enumerate(by_key.values())])
    args = (gazetteer, default_taxonomy(), default_sentiment_lexicon())
    return (NluEngine(*args, heuristic_ner=heuristic_ner),
            ReferenceNluEngine(*args, heuristic_ner=heuristic_ner))


@settings(max_examples=150, deadline=None)
@given(surfaces=st.lists(_surface, min_size=1, max_size=6),
       pieces=st.lists(st.tuples(st.sampled_from(_WORDS + ["Zed", "The Ab"]),
                                 st.sampled_from(_GAPS + ["", "! ", "  "])),
                       min_size=0, max_size=12),
       heuristic_ner=st.booleans())
def test_any_gazetteer_matches_the_oracle(surfaces, pieces, heuristic_ner):
    engine, oracle = _tiny_engines(surfaces, heuristic_ner)
    text = "".join(word + gap for word, gap in pieces)
    assert _dump(engine.extract_entities(text)) == _dump(oracle.extract_entities(text))
    assert _dump(engine.entity_sentiment(text)) == _dump(oracle.entity_sentiment(text))


def test_self_overlapping_surface_resolves_like_finditer():
    engine, oracle = _tiny_engines(["a b a"], heuristic_ner=False)
    for text, count in (("a b a b a", 1), ("a b a b a b a", 2), ("A B A B a b a b A", 2)):
        assert engine.extract_entities(text) == oracle.extract_entities(text)
        # The occurrence starting inside the previous one is never a
        # candidate, exactly as ``finditer`` would not report it.
        assert engine.extract_entities(text)[0]["count"] == count


def test_an_untaken_occurrence_still_hides_the_one_it_overlaps():
    engine, oracle = _tiny_engines(["a b a", "x1 a b"], heuristic_ner=False)
    text = "x1 a b a b a"
    # "x1 a b" takes the front; "a b a" at 3 overlaps it and is dropped, and
    # the "a b a" at 7 starts inside that dropped occurrence: never reported.
    assert [e["id"] for e in oracle.extract_entities(text)] == ["E1"]
    assert engine.extract_entities(text) == oracle.extract_entities(text)


# -- sentence edges: one document scan serves every sentence ------------------
#
# ``entity_sentiment`` resolves each sentence from the occurrences the
# document scan found inside that sentence; the oracle scans every sentence
# on its own.  These texts crowd surfaces against sentence breaks: dotted
# surfaces that open or close a sentence, a surface a break splits, and
# the exact short surfaces at either edge of a sentence.

_EDGE_SURFACES = ["U.S.", "U.S.A.", "U.K.", "u.s.a.", "US", "IN", "CA", "UK", "us", "In",
                  "New York", "New York City", "the U.S", "United States", "IBM",
                  "People's Republic of China"]
_BREAKS = [". ", "! ", "? ", ".\n", ".\n\n", "!? ", ". \n ", "... ", ".  "]


def _edge_sentence(parts):
    lead, body, tail, brk = parts
    return " ".join(word for word in (lead, body, tail) if word) + brk


_edge_text = st.lists(
    st.tuples(st.sampled_from(_EDGE_SURFACES + [""]),
              st.sampled_from(_FILLER + ["", "excellent", "terrible", "Mr.", "Inc."]),
              st.sampled_from(_EDGE_SURFACES + ["", "growth"]),
              st.sampled_from(_BREAKS + [" ", ""])),
    min_size=1, max_size=8,
).map(lambda sentences: "".join(_edge_sentence(parts) for parts in sentences))


@settings(max_examples=100, deadline=None)
@given(text=_edge_text)
def test_sentence_edges_match_the_oracle(providers, text):
    _assert_same_analysis(providers, text)


@pytest.mark.parametrize("text", [
    "New York. City is excellent.",        # a break splits "New York City"
    "U.S. IBM is excellent. U.K.",          # dotted surface at both ends
    "We like the U.K. The U.S.A. fell. U.S.A.",
    "US. IN! CA? UK.\nUS IN CA",
    "IN the US. US in the IN.",
    "Excellent.   \n\n  U.S.A. terrible!  New York",
    "u.s.a. rose. the U.S won.",
])
def test_pinned_sentence_edges_match_the_oracle(providers, text):
    _assert_same_analysis(providers, text)


@pytest.mark.parametrize("text", [
    "Acme. Corp rose. Corp fell.",
    "We met Acme. Corp was there! Acme.  Corp",
    "Corp. Acme. Corp. Acme",
])
def test_a_surface_across_a_sentence_break_is_in_neither_sentence(text):
    """The document scan finds "Acme. Corp" across the break after
    "Acme."; no sentence holds it, so entity sentiment must not count it."""
    engine, oracle = _tiny_engines(["Acme. Corp", "Corp"], heuristic_ner=False)
    assert "E0" in {entity["id"] for entity in engine.extract_entities(text)}
    assert _dump(engine.extract_entities(text)) == _dump(oracle.extract_entities(text))
    assert _dump(engine.entity_sentiment(text)) == _dump(oracle.entity_sentiment(text))


def test_case_folding_keeps_every_word_boundary():
    """``SurfaceMatcher.scan`` cuts the folded text into words: folding
    must never turn a word character into a non-word one or back."""
    word = re.compile(r"\w")
    changed = [code for code in range(sys.maxunicode + 1)
               if chr(code).lower() != chr(code)]
    assert changed
    assert all(bool(word.match(chr(code))) == bool(word.match(chr(code).translate(_FOLD)))
               for code in changed)
