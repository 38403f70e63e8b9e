"""Tests for the sentiment lexicon."""

import pytest

from repro.data.lexicon import SentimentLexicon, default_sentiment_lexicon
from repro.textproc.tokenizer import tokenize


@pytest.fixture
def lexicon():
    return default_sentiment_lexicon()


class TestValence:
    def test_positive_words(self, lexicon):
        assert lexicon.valence("excellent") > 0
        assert lexicon.valence("great") > 0

    def test_negative_words(self, lexicon):
        assert lexicon.valence("terrible") < 0
        assert lexicon.valence("fraud") < 0

    def test_neutral_unknown_word(self, lexicon):
        assert lexicon.valence("table") == 0

    def test_case_insensitive(self, lexicon):
        assert lexicon.valence("Excellent") == lexicon.valence("excellent")

    def test_contains(self, lexicon):
        assert "excellent" in lexicon
        assert "zebra" not in lexicon


class TestScoring:
    def test_positive_sentence(self, lexicon):
        assert lexicon.score_tokens(tokenize("the results were excellent")) > 0

    def test_negative_sentence(self, lexicon):
        assert lexicon.score_tokens(tokenize("a terrible and costly disaster")) < 0

    def test_negation_flips_sign(self, lexicon):
        plain = lexicon.score_tokens(tokenize("this is good"))
        negated = lexicon.score_tokens(tokenize("this is not good"))
        assert plain > 0
        assert negated < 0
        assert abs(negated) < plain  # damped, not fully inverted

    def test_intensifier_amplifies(self, lexicon):
        plain = lexicon.score_tokens(tokenize("it was good"))
        intense = lexicon.score_tokens(tokenize("it was extremely good"))
        assert intense > plain

    def test_downtoner_dampens(self, lexicon):
        plain = lexicon.score_tokens(tokenize("it was good"))
        damped = lexicon.score_tokens(tokenize("it was slightly good"))
        assert 0 < damped < plain

    def test_neutral_text_scores_zero(self, lexicon):
        assert lexicon.score_tokens(tokenize("the meeting is on tuesday")) == 0

    @pytest.mark.parametrize("sentence", [
        "good",                                   # nothing before the hit
        "not good",                               # negation one back, at the edge
        "not very good",                          # negation two back + intensifier
        "never a good",                           # negation two back, at the edge
        "not at all good",                        # negation three back: out of the window
        "extremely good",                         # intensifier at the edge
        "very not good",                          # intensifier two back: ignored
        "barely good",                            # both a negation and an intensifier
        "not barely terrible",
        "slightly terrible but not really excellent and never bad",
        "good good not good very good don't very really good",
        "it isn't somewhat risky without fraud",
        "3.5 excellent 42 not 7 good",            # numbers count as tokens in the window
    ])
    def test_bit_identical_to_the_windowed_formula(self, lexicon, sentence):
        from tests.services.reference_nlu import reference_score_tokens

        tokens = tokenize(sentence)
        for scorer in (lexicon, lexicon.restricted(0.75), lexicon.restricted(0.5)):
            expected = reference_score_tokens(scorer, tokens)
            assert repr(scorer.score_tokens(tokens)) == repr(expected)
        assert repr(lexicon.score_tokens([])) == repr(0.0)


class TestRestriction:
    def test_restricted_is_subset(self, lexicon):
        small = lexicon.restricted(0.5)
        assert set(small.scores) <= set(lexicon.scores)
        assert 0 < len(small) < len(lexicon)

    def test_restriction_deterministic(self, lexicon):
        assert lexicon.restricted(0.5).scores == lexicon.restricted(0.5).scores

    def test_different_seeds_differ(self, lexicon):
        assert lexicon.restricted(0.5, seed=1).scores != lexicon.restricted(0.5, seed=2).scores

    def test_fraction_validated(self, lexicon):
        with pytest.raises(ValueError):
            lexicon.restricted(0.0)
        with pytest.raises(ValueError):
            lexicon.restricted(1.5)

    def test_tiny_fraction_keeps_at_least_one(self, lexicon):
        assert len(lexicon.restricted(0.0001)) >= 1

    def test_full_fraction_keeps_everything(self, lexicon):
        assert lexicon.restricted(1.0).scores == lexicon.scores
