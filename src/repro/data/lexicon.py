"""Sentiment lexicon (AFINN-style) with negation and intensifier rules.

The simulated sentiment-analysis services score documents and entity
mentions with this lexicon.  Different providers use different subsets
of it (see :mod:`repro.services.nlu`), which produces the measurable
quality differences the Rich SDK's ranking machinery needs.
"""

from __future__ import annotations

_POSITIVE = {
    "good": 3, "great": 4, "excellent": 5, "outstanding": 5, "superb": 5,
    "amazing": 4, "wonderful": 4, "fantastic": 4, "impressive": 3,
    "strong": 2, "positive": 2, "beneficial": 3, "successful": 3,
    "success": 3, "innovative": 3, "reliable": 3, "robust": 2,
    "efficient": 2, "profitable": 3, "growth": 2, "improved": 2,
    "improving": 2, "improvement": 2, "win": 3, "winning": 3, "won": 3,
    "breakthrough": 4, "leading": 2, "leader": 2, "best": 4, "better": 2,
    "thriving": 4, "praised": 3, "praise": 3, "acclaimed": 4, "love": 3,
    "loved": 3, "gains": 2, "gain": 2, "soared": 3, "soaring": 3,
    "surged": 3, "record": 2, "popular": 2, "promising": 3, "healthy": 2,
    "recovery": 2, "recovered": 2, "optimistic": 3, "favorable": 3,
    "delighted": 4, "celebrated": 3, "admired": 3, "trusted": 3,
    "pioneering": 3, "visionary": 3, "brilliant": 4, "remarkable": 3,
    "safe": 2, "secure": 2, "stable": 2, "prosperous": 4, "vibrant": 3,
    "generous": 3, "clean": 2, "fair": 2, "happy": 3, "progress": 2,
}

_NEGATIVE = {
    "bad": -3, "terrible": -5, "awful": -5, "horrible": -5, "poor": -3,
    "weak": -2, "negative": -2, "harmful": -3, "failed": -3, "failure": -3,
    "failing": -3, "loss": -2, "losses": -2, "lost": -2, "decline": -2,
    "declining": -2, "declined": -3, "drop": -2, "dropped": -2, "plunged": -3,
    "plummeted": -4, "crisis": -4, "scandal": -4, "fraud": -5, "corrupt": -4,
    "corruption": -4, "lawsuit": -3, "sued": -3, "fined": -3, "penalty": -2,
    "recall": -3, "defect": -3, "defective": -3, "broken": -3, "unreliable": -3,
    "slow": -2, "costly": -2, "expensive": -2, "risky": -2, "risk": -1,
    "dangerous": -3, "unsafe": -3, "disaster": -5, "disastrous": -5,
    "disappointing": -3, "disappointed": -3, "criticized": -3, "criticism": -2,
    "worst": -4, "worse": -2, "struggling": -3, "struggle": -2, "layoffs": -3,
    "bankruptcy": -5, "bankrupt": -5, "collapse": -4, "collapsed": -4,
    "outbreak": -3, "epidemic": -4, "pandemic": -4, "deadly": -4, "death": -3,
    "deaths": -3, "suffering": -3, "painful": -3, "hate": -3, "hated": -3,
    "angry": -3, "protest": -2, "unrest": -3, "war": -4, "conflict": -3,
    "pollution": -3, "contaminated": -4, "toxic": -4, "shortage": -2,
    "delayed": -2, "delay": -1, "breach": -4, "hacked": -4, "vulnerable": -2,
    "recession": -4, "inflation": -2, "unemployment": -3, "pessimistic": -3,
}

NEGATIONS = frozenset({"not", "no", "never", "neither", "nor", "without", "hardly", "barely",
                       "don't", "doesn't", "didn't", "won't", "isn't", "wasn't", "aren't",
                       "cannot", "can't", "couldn't", "shouldn't", "wouldn't"})

INTENSIFIERS = {
    "very": 1.5, "extremely": 2.0, "highly": 1.5, "remarkably": 1.5,
    "incredibly": 1.8, "really": 1.3, "quite": 1.2, "somewhat": 0.7,
    "slightly": 0.5, "barely": 0.4, "deeply": 1.5, "truly": 1.4,
}


class SentimentLexicon:
    """A word→valence map plus the rules for negation and intensifiers."""

    def __init__(self, scores: dict[str, int] | None = None) -> None:
        self.scores = dict(scores) if scores is not None else {**_POSITIVE, **_NEGATIVE}

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.scores

    def valence(self, word: str) -> int:
        """The raw score of ``word`` (0 when unknown)."""
        return self.scores.get(word.lower(), 0)

    def restricted(self, keep_fraction: float, seed: int = 7) -> "SentimentLexicon":
        """A deterministic subset keeping roughly ``keep_fraction`` of the entries.

        Providers of lower quality use restricted lexicons: they miss
        sentiment-bearing words, which degrades their accuracy in a
        controlled, reproducible way.
        """
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
        import hashlib

        kept: dict[str, int] = {}
        threshold = int(keep_fraction * 2**32)
        for word, score in self.scores.items():
            digest = hashlib.sha256(f"{seed}:{word}".encode()).digest()
            if int.from_bytes(digest[:4], "big") < threshold:
                kept[word] = score
        # Guarantee a non-empty lexicon even for tiny fractions.
        if not kept:
            strongest = max(self.scores.items(), key=lambda item: abs(item[1]))
            kept[strongest[0]] = strongest[1]
        return SentimentLexicon(kept)

    def score_tokens(self, tokens: list[str]) -> float:
        """Score a lower-cased token sequence (as ``tokenize`` returns it).

        A negation within the two tokens before a sentiment word flips
        its sign and damps it (the conventional 0.5 factor); an
        intensifier immediately before it scales it.
        """
        total = 0.0
        scores = self.scores
        for index, token in enumerate(tokens):
            valence = scores.get(token, 0)
            if valence == 0:
                continue
            weight = 1.0
            if index >= 1:
                previous = tokens[index - 1]
                if previous in INTENSIFIERS:
                    weight *= INTENSIFIERS[previous]
                if previous in NEGATIONS or (index >= 2 and tokens[index - 2] in NEGATIONS):
                    weight *= -0.5
            total += valence * weight
        return total


def default_sentiment_lexicon() -> SentimentLexicon:
    """The full built-in lexicon."""
    return SentimentLexicon()
