"""Tests for the NLU engine and service wrapper."""

import re
import string
import sys

import pytest

from repro.data.gazetteer import default_gazetteer
from repro.data.lexicon import default_sentiment_lexicon
from repro.data.taxonomy import default_taxonomy
from repro.services.nlu import _FOLD, ALL_FEATURES, NluEngine, NluService, SurfaceMatcher
from repro.simnet.errors import RemoteServiceError


@pytest.fixture(scope="module")
def engine():
    return NluEngine(default_gazetteer(), default_taxonomy(), default_sentiment_lexicon())


class TestEntityExtraction:
    def test_finds_canonical_names(self, engine):
        entities = engine.extract_entities("IBM and Initech are companies.")
        ids = {entity["id"] for entity in entities}
        assert ids == {"C_ibm", "C_initech"}

    def test_finds_aliases(self, engine):
        entities = engine.extract_entities("Big Blue announced a partnership.")
        assert entities[0]["id"] == "C_ibm"

    def test_longest_match_wins(self, engine):
        entities = engine.extract_entities("The United States of America is large.")
        assert len(entities) == 1
        assert entities[0]["id"] == "Q30"
        assert entities[0]["mentions"] == ["United States of America"]

    def test_counts_mentions(self, engine):
        entities = engine.extract_entities("IBM grew. IBM hired. IBM expanded.")
        assert entities[0]["count"] == 3

    def test_short_alias_requires_exact_case(self, engine):
        # "in" must not match India's alias "IN".
        entities = engine.extract_entities("She lives in a small town.")
        assert all(entity["id"] != "Q668" for entity in entities)
        entities = engine.extract_entities("Exports from IN rose sharply.")
        assert any(entity["id"] == "Q668" for entity in entities)

    def test_links_included(self, engine):
        entities = engine.extract_entities("USA")
        assert "dbpedia" in entities[0]["links"]

    def test_no_entities(self, engine):
        assert engine.extract_entities("nothing notable here") == []

    def test_alias_recall_thins_surfaces(self):
        full = NluEngine(default_gazetteer(), default_taxonomy(),
                         default_sentiment_lexicon(), alias_recall=1.0, seed=9)
        thin = NluEngine(default_gazetteer(), default_taxonomy(),
                         default_sentiment_lexicon(), alias_recall=0.3, seed=9)
        assert len(thin._known_surfaces) < len(full._known_surfaces)
        # Canonical names always survive.
        assert "United States of America" in thin._known_surfaces

    def test_heuristic_ner_flags_unknown_capitalized(self):
        engine = NluEngine(default_gazetteer(), default_taxonomy(),
                           default_sentiment_lexicon(), heuristic_ner=True)
        entities = engine.extract_entities("Flurbcorp Devices shipped units to IBM.")
        heuristic = [e for e in entities if not e["disambiguated"]]
        assert any("Flurbcorp" in e["name"] for e in heuristic)
        assert any(e["id"] == "C_ibm" and e["disambiguated"] for e in entities)


class TestKeywordsConceptsSentiment:
    def test_keywords_exclude_stopwords(self, engine):
        keywords = engine.extract_keywords(
            "the the the market market rally rally rally rally")
        texts = [keyword["text"] for keyword in keywords]
        assert "the" not in texts
        assert texts[0] == "rally"
        assert keywords[0]["relevance"] == 1.0

    def test_keywords_empty_text(self, engine):
        assert engine.extract_keywords("the a an") == []

    def test_concepts_triggered(self, engine):
        concepts = engine.extract_concepts(
            "Investors watched the stock market as earnings and revenue grew.")
        names = {concept["concept"] for concept in concepts}
        assert "finance" in names
        top = concepts[0]
        assert top["path"].startswith("/business") or top["path"].startswith("/")

    def test_document_sentiment_positive(self, engine):
        result = engine.document_sentiment("The results were excellent and wonderful.")
        assert result["label"] == "positive"
        assert result["score"] > 0

    def test_document_sentiment_negative(self, engine):
        result = engine.document_sentiment("A terrible, disastrous scandal unfolded.")
        assert result["label"] == "negative"

    def test_document_sentiment_neutral(self, engine):
        result = engine.document_sentiment("The meeting is scheduled for Tuesday.")
        assert result["label"] == "neutral"

    def test_score_clamped(self, engine):
        text = "excellent " * 200
        assert -1.0 <= engine.document_sentiment(text)["score"] <= 1.0

    def test_entity_sentiment_separates_entities(self, engine):
        text = ("IBM delivered excellent wonderful results. "
                "Initech suffered a terrible disaster.")
        sentiment = engine.entity_sentiment(text)
        assert sentiment["C_ibm"]["label"] == "positive"
        assert sentiment["C_initech"]["label"] == "negative"

    def test_entity_sentiment_skips_heuristic_entities(self):
        engine = NluEngine(default_gazetteer(), default_taxonomy(),
                           default_sentiment_lexicon(), heuristic_ner=True)
        sentiment = engine.entity_sentiment("Blorbtech had excellent results.")
        assert all(not key.startswith("unk:") for key in sentiment)


class TestDisambiguation:
    def test_direct_alias(self, engine):
        resolved = engine.disambiguate("USA")
        assert resolved["id"] == "Q30"
        assert resolved["links"]["dbpedia"].endswith("United_States_of_America")

    def test_sentence_scan(self, engine):
        """The paper's example sentence resolves to the US."""
        resolved = engine.disambiguate("The US is a country")
        assert resolved["id"] == "Q30"

    def test_unknown_phrase(self, engine):
        assert engine.disambiguate("the quick brown fox") is None


class TestAnalyze:
    def test_full_analysis_has_all_features(self, engine):
        analysis = engine.analyze("IBM had excellent results in the stock market.")
        for feature in ALL_FEATURES:
            assert feature in analysis

    def test_feature_subset(self, engine):
        analysis = engine.analyze("IBM rose.", features=("entities",))
        assert "entities" in analysis
        assert "sentiment" not in analysis

    def test_unknown_feature_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.analyze("text", features=("entities", "emotions"))


class TestNluService:
    def test_analyze_over_the_wire(self, transport, engine):
        service = NluService("nlu-test", transport, engine)
        response = service.invoke("analyze", {"text": "IBM thrived."})
        assert response.value["entities"][0]["id"] == "C_ibm"

    def test_empty_text_rejected(self, transport, engine):
        service = NluService("nlu-test", transport, engine)
        with pytest.raises(RemoteServiceError) as excinfo:
            service.invoke("analyze", {"text": "   "})
        assert excinfo.value.status == 400

    def test_analyze_url_with_fetcher(self, transport, engine):
        pages = {"http://x/1": "<html><title>T</title><body><p>IBM thrived.</p></body></html>"}
        service = NluService("nlu-test", transport, engine,
                             web_fetcher=pages.get)
        response = service.invoke("analyze_url", {"url": "http://x/1"})
        assert response.value["retrieved_url"] == "http://x/1"
        assert any(e["id"] == "C_ibm" for e in response.value["entities"])

    def test_analyze_url_without_fetcher_rejected(self, transport, engine):
        service = NluService("nlu-test", transport, engine)
        with pytest.raises(RemoteServiceError) as excinfo:
            service.invoke("analyze_url", {"url": "http://x/1"})
        assert excinfo.value.status == 400

    def test_analyze_url_missing_page_404(self, transport, engine):
        service = NluService("nlu-test", transport, engine,
                             web_fetcher=lambda url: None)
        with pytest.raises(RemoteServiceError) as excinfo:
            service.invoke("analyze_url", {"url": "http://gone/"})
        assert excinfo.value.status == 404

    def test_disambiguate_operation(self, transport, engine):
        service = NluService("nlu-test", transport, engine)
        response = service.invoke("disambiguate", {"phrase": "US"})
        assert response.value["resolved"]["id"] == "Q30"

    def test_unknown_operation(self, transport, engine):
        service = NluService("nlu-test", transport, engine)
        with pytest.raises(RemoteServiceError):
            service.invoke("summon", {})

    def test_latency_params_use_text_length(self, transport, engine):
        from repro.services.base import ServiceRequest

        service = NluService("nlu-test", transport, engine)
        params = service.latency_params(ServiceRequest("analyze", {"text": "abcde"}))
        assert params["size"] == 5.0


BAD_FEATURES = [["bogus"], "sentiment", 5]


class TestBadFeaturesAreAClientError:
    """A malformed ``features`` is status 400 on the single and the batch path."""

    @pytest.fixture
    def client(self):
        from repro import RichClient, build_world

        world = build_world(seed=3, corpus_size=20)
        return RichClient(world.registry)

    @pytest.mark.parametrize("features", BAD_FEATURES)
    def test_invoke(self, client, features):
        with pytest.raises(RemoteServiceError) as excinfo:
            client.invoke("glotta", "analyze", {"text": "IBM thrived.", "features": features})
        assert excinfo.value.status == 400
        assert "features" in str(excinfo.value)

    @pytest.mark.parametrize("features", BAD_FEATURES)
    def test_invoke_many(self, client, features):
        good, bad = client.invoke_many("glotta", "analyze", [
            {"text": "IBM thrived."},
            {"text": "IBM thrived.", "features": features},
        ], use_cache=False)
        assert "entities" in good.value
        assert isinstance(bad, RemoteServiceError)
        assert bad.status == 400
        assert str(bad).count("returned 400") == 1

    @pytest.mark.parametrize("features", BAD_FEATURES)
    def test_analyze_url(self, transport, engine, features):
        fetched = []
        service = NluService("nlu-test", transport, engine,
                             web_fetcher=lambda url: fetched.append(url))
        with pytest.raises(RemoteServiceError) as excinfo:
            service.invoke("analyze_url", {"url": "http://x/1", "features": features})
        assert excinfo.value.status == 400
        assert fetched == []   # rejected before paying for the fetch

    def test_missing_or_empty_features_mean_all(self, transport, engine):
        service = NluService("nlu-test", transport, engine)
        for payload in ({"text": "IBM thrived."}, {"text": "IBM thrived.", "features": []},
                        {"text": "IBM thrived.", "features": None}):
            assert set(ALL_FEATURES) <= set(service.invoke("analyze", payload).value)

    def test_tuple_and_list_accepted(self, transport, engine):
        service = NluService("nlu-test", transport, engine)
        for features in (["sentiment"], ("sentiment",)):
            value = service.invoke("analyze", {"text": "IBM thrived.",
                                               "features": features}).value
            assert "sentiment" in value and "entities" not in value


class TestDottedAliasQuirk:
    r"""Pinned, not fixed: ``\bU\.S\.\b`` wants a word character after the last dot.

    Known recall bug (ROADMAP item 5): fixing it changes every answer
    digest, so it waits for the quality benchmark.
    """

    def test_trailing_dot_alias_is_missed_before_a_space(self, engine):
        assert engine.extract_entities("The U.S. is large") == []
        assert engine.extract_entities("Made in the U.K.") == []

    def test_trailing_dot_alias_matches_before_a_letter(self, engine):
        entities = engine.extract_entities("U.S.A. wins")
        assert [(e["id"], e["mentions"]) for e in entities] == [("Q30", ["U.S."])]


class TestSurfaceMatcher:
    def test_resolution_order_is_longest_then_alphabetical(self):
        matcher = SurfaceMatcher({"US", "New York", "City of Light", "New York City"})
        assert matcher.surfaces == ["City of Light", "New York City", "New York", "US"]

    def test_scan_reports_every_occurrence_overlaps_included(self):
        matcher = SurfaceMatcher(["New York", "New York City", "York City Council"])
        text = "in NEW YORK CITY Council"
        found = [(matcher.surfaces[rank], text[start:end])
                 for rank, start, end in matcher.scan(text)]
        assert found == [("York City Council", "YORK CITY Council"),
                         ("New York City", "NEW YORK CITY"),
                         ("New York", "NEW YORK")]

    def test_short_surfaces_are_case_sensitive(self):
        matcher = SurfaceMatcher(["IN", "Acme"])
        assert [(start, end) for _, start, end in matcher.scan("in IN In acme")] == [
            (9, 13), (3, 5)]

    def test_whole_words_only(self):
        matcher = SurfaceMatcher(["New York"])
        for text in ("New Yorkshire", "New  York", "Renew York", "New_York", "New Yorké"):
            assert matcher.scan(text) == []

    def test_separator_at_the_edge_must_touch_a_word(self):
        matcher = SurfaceMatcher([".NET", "U.S."])
        assert [(s, e) for _, s, e in matcher.scan("ASP.NET and U.S.A")] == [(3, 7), (12, 16)]
        assert matcher.scan(".NET is old. The U.S. is large. U.S.") == []

    def test_surface_without_a_word_is_rejected(self):
        with pytest.raises(ValueError, match="no letter or digit"):
            SurfaceMatcher(["&&"])

    def test_case_folding_is_what_ignorecase_does_for_ascii_letters(self):
        """Every code point ``(?i)[a-z]`` accepts folds onto that letter, no other does."""
        everything = "".join(chr(code) for code in range(sys.maxunicode + 1)
                             if not 0xD800 <= code <= 0xDFFF)
        for letter in string.ascii_lowercase:
            accepted = set(re.findall(letter, everything, re.IGNORECASE))
            assert {char.translate(_FOLD) for char in accepted} == {letter}
        # Uncased characters fold onto themselves; of the cased rest, none
        # may land on an ASCII letter.
        others = re.sub("(?i)[a-z]", "", everything)
        cased = "".join(char for char in others if char.lower() != char)
        assert not set(string.ascii_lowercase) & set(cased.translate(type(_FOLD)(_FOLD)))
