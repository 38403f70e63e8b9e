"""Test-only oracle: the NLU engine exactly as it was before PR 16.

One compiled regex per gazetteer surface form, a per-character
``consumed`` mask, five independent passes in ``analyze`` and the
original ``score_tokens`` formula — moved here verbatim so the
differential tests in ``test_nlu_differential.py`` and benchmark A15
can compare the single-scan matcher against it.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter, defaultdict

from repro.data.gazetteer import Gazetteer
from repro.data.lexicon import INTENSIFIERS, NEGATIONS, SentimentLexicon
from repro.data.taxonomy import ConceptTaxonomy
from repro.services.nlu import ALL_FEATURES
from repro.textproc.stopwords import remove_stopwords
from repro.textproc.tokenizer import split_sentences, tokenize, word_tokens


def reference_score_tokens(lexicon: SentimentLexicon, tokens: list[str]) -> float:
    """``SentimentLexicon.score_tokens`` as it was: per-hit window list."""
    total = 0.0
    for index, token in enumerate(tokens):
        valence = lexicon.valence(token)
        if valence == 0:
            continue
        weight = 1.0
        if index >= 1 and tokens[index - 1].lower() in INTENSIFIERS:
            weight *= INTENSIFIERS[tokens[index - 1].lower()]
        window = [tokens[back].lower() for back in range(max(0, index - 2), index)]
        if any(word in NEGATIONS for word in window):
            weight *= -0.5
        total += valence * weight
    return total


_CAPITALIZED_RUN_RE = re.compile(r"\b([A-Z][a-z]+(?:\s+[A-Z][a-z]+){0,2})\b")


def _stable_fraction(seed: int, token: str) -> float:
    """Deterministic pseudo-uniform value in [0, 1) keyed by (seed, token)."""
    digest = hashlib.sha256(f"{seed}:{token}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


class ReferenceNluEngine:
    """``NluEngine`` as it was before the single-scan matcher."""

    def __init__(
        self,
        gazetteer: Gazetteer,
        taxonomy: ConceptTaxonomy,
        lexicon: SentimentLexicon,
        alias_recall: float = 1.0,
        heuristic_ner: bool = False,
        seed: int = 0,
    ) -> None:
        if not 0.0 < alias_recall <= 1.0:
            raise ValueError(f"alias_recall must be in (0, 1], got {alias_recall}")
        self.gazetteer = gazetteer
        self.taxonomy = taxonomy
        self.lexicon = lexicon
        self.alias_recall = alias_recall
        self.heuristic_ner = heuristic_ner
        self.seed = seed
        self._known_surfaces = self._build_surface_table()
        # Longest-first so greedy matching prefers "United States of America"
        # over "United States".  Short surface forms ("US", "IN", "CA")
        # must match case-sensitively or they would swallow ordinary
        # words like the preposition "in".
        self._surface_patterns = []
        for surface in sorted(self._known_surfaces, key=lambda s: (-len(s), s)):
            flags = 0 if len(surface) <= 3 else re.IGNORECASE
            pattern = re.compile(r"\b" + re.escape(surface) + r"\b", flags)
            self._surface_patterns.append((surface, pattern))

    def _build_surface_table(self) -> dict[str, str]:
        """Surface form (original casing) -> entity id, thinned by recall."""
        table: dict[str, str] = {}
        for entity in self.gazetteer:
            # Canonical names are always known; aliases are dropped
            # deterministically for weaker providers.
            table[entity.name] = entity.entity_id
            for alias in entity.aliases:
                if _stable_fraction(self.seed, f"{entity.entity_id}:{alias}") < self.alias_recall:
                    table[alias] = entity.entity_id
        return table

    # -- features ----------------------------------------------------------

    def extract_entities(self, text: str) -> list[dict]:
        """Gazetteer NER with greedy longest-first matching."""
        mentions: dict[str, list[str]] = defaultdict(list)
        consumed = [False] * len(text)
        for surface, pattern in self._surface_patterns:
            for match in pattern.finditer(text):
                span = range(match.start(), match.end())
                if any(consumed[index] for index in span):
                    continue
                for index in span:
                    consumed[index] = True
                entity_id = self._known_surfaces[surface]
                mentions[entity_id].append(match.group(0))

        results = []
        for entity_id, surfaces in mentions.items():
            entity = self.gazetteer.get(entity_id)
            results.append(
                {
                    "id": entity_id,
                    "name": entity.name,
                    "type": entity.entity_type,
                    "count": len(surfaces),
                    "mentions": surfaces,
                    "links": entity.links,
                    "disambiguated": True,
                }
            )

        if self.heuristic_ner:
            results.extend(self._heuristic_entities(text, consumed))
        results.sort(key=lambda item: (-item["count"], item["id"]))
        return results

    def _heuristic_entities(self, text: str, consumed: list[bool]) -> list[dict]:
        """Capitalized runs the gazetteer does not know — possible false positives."""
        found: Counter[str] = Counter()
        for match in _CAPITALIZED_RUN_RE.finditer(text):
            if any(consumed[index] for index in range(match.start(), match.end())):
                continue
            candidate = match.group(1)
            first_word = candidate.split()[0].lower()
            if first_word in {"the", "a", "an", "this", "that", "these", "those"}:
                continue
            found[candidate] += 1
        return [
            {
                "id": f"unk:{surface.lower().replace(' ', '_')}",
                "name": surface,
                "type": "Unknown",
                "count": count,
                "mentions": [surface] * count,
                "links": {},
                "disambiguated": False,
            }
            for surface, count in found.items()
        ]

    def extract_keywords(self, text: str, limit: int = 10) -> list[dict]:
        """Frequent content words; relevance normalized to the top word.

        Keywords are *not* disambiguated (the paper is explicit about
        this asymmetry with entities).
        """
        tokens = remove_stopwords(word_tokens(text))
        counts = Counter(token for token in tokens if len(token) > 2)
        if not counts:
            return []
        top = counts.most_common(limit)
        peak = top[0][1]
        return [
            {"text": token, "relevance": round(count / peak, 4), "count": count}
            for token, count in top
        ]

    def extract_concepts(self, text: str, limit: int = 5) -> list[dict]:
        """Taxonomy concepts triggered by the document's tokens."""
        tokens = word_tokens(text)
        hits: Counter[str] = Counter()
        for token in tokens:
            for concept in self.taxonomy.concepts_for_token(token):
                hits[concept] += 1
        if not hits:
            return []
        top = hits.most_common(limit)
        peak = top[0][1]
        return [
            {
                "concept": concept,
                "path": "/" + "/".join(self.taxonomy.path(concept)),
                "relevance": round(count / peak, 4),
            }
            for concept, count in top
        ]

    def document_sentiment(self, text: str) -> dict:
        """Whole-document polarity in [-1, 1] with a discrete label."""
        sentences = split_sentences(text)
        total = 0.0
        for sentence in sentences:
            total += reference_score_tokens(self.lexicon, tokenize(sentence))
        # Normalize by document length: an identical rant twice as long
        # should not look twice as polarized.
        scale = max(1.0, len(sentences) ** 0.5) * 4.0
        score = max(-1.0, min(1.0, total / scale))
        if score > 0.05:
            label = "positive"
        elif score < -0.05:
            label = "negative"
        else:
            label = "neutral"
        return {"score": round(score, 4), "label": label}

    def entity_sentiment(self, text: str) -> dict[str, dict]:
        """Per-entity polarity: average sentiment of sentences mentioning it.

        Mirrors the Watson feature §2.2 highlights — sentiment for
        individual entities rather than whole documents.
        """
        sentences = split_sentences(text)
        totals: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for sentence in sentences:
            entities_here = self.extract_entities(sentence)
            if not entities_here:
                continue
            sentence_score = reference_score_tokens(self.lexicon, tokenize(sentence))
            for entity in entities_here:
                if not entity["disambiguated"]:
                    continue
                totals[entity["id"]] += sentence_score
                counts[entity["id"]] += 1
        results: dict[str, dict] = {}
        for entity_id, total in totals.items():
            mean = total / counts[entity_id]
            score = max(-1.0, min(1.0, mean / 4.0))
            if score > 0.05:
                label = "positive"
            elif score < -0.05:
                label = "negative"
            else:
                label = "neutral"
            results[entity_id] = {"score": round(score, 4), "label": label,
                                  "mentions": counts[entity_id]}
        return results

    def disambiguate(self, phrase: str) -> dict | None:
        """Resolve a phrase to a unique entity with its link bundle.

        Reproduces the paper's example: ``"US"`` resolves to the United
        States with DBpedia/YAGO/Wikidata URLs.  Falls back to scanning
        the phrase for a known surface form (so whole sentences like
        "The US is a country" also resolve).
        """
        entity = self.gazetteer.resolve(phrase)
        if entity is None:
            found = self.extract_entities(phrase)
            disambiguated = [item for item in found if item["disambiguated"]]
            if not disambiguated:
                return None
            best = disambiguated[0]
            entity = self.gazetteer.get(best["id"])
        return {
            "id": entity.entity_id,
            "name": entity.name,
            "type": entity.entity_type,
            "links": entity.links,
        }

    def analyze(self, text: str, features: tuple[str, ...] = ALL_FEATURES) -> dict:
        """Run the requested features over one document."""
        unknown = set(features) - set(ALL_FEATURES)
        if unknown:
            raise ValueError(f"unknown NLU features: {sorted(unknown)}")
        result: dict[str, object] = {"language": "en", "text_length": len(text)}
        if "entities" in features:
            result["entities"] = self.extract_entities(text)
        if "keywords" in features:
            result["keywords"] = self.extract_keywords(text)
        if "concepts" in features:
            result["concepts"] = self.extract_concepts(text)
        if "sentiment" in features:
            result["sentiment"] = self.document_sentiment(text)
        if "entity_sentiment" in features:
            result["entity_sentiment"] = self.entity_sentiment(text)
        return result


def reference_for(engine) -> ReferenceNluEngine:
    """The oracle configured exactly like ``engine`` (an ``NluEngine``)."""
    return ReferenceNluEngine(
        engine.gazetteer, engine.taxonomy, engine.lexicon,
        alias_recall=engine.alias_recall, heuristic_ner=engine.heuristic_ner,
        seed=engine.seed)
