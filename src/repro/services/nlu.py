"""Simulated natural language understanding services.

Each provider is a *real* NLU engine — gazetteer NER with alias
disambiguation, TF-based keyword extraction, taxonomy concept tagging,
lexicon sentiment with negation handling, and entity-targeted
sentiment — wrapped as a :class:`SimulatedService`.  Providers differ
in three measurable ways, mirroring the real Watson/Google/Microsoft
spread the paper targets:

* **alias recall** — weaker providers recognize fewer surface forms
  (deterministically, per provider seed), so they miss entities;
* **lexicon coverage** — weaker providers use restricted sentiment
  lexicons, so their polarity calls are noisier;
* **heuristic NER** — the cheapest provider also reports capitalized
  word sequences it cannot disambiguate, hurting precision.

Because the synthetic corpus carries gold annotations, these quality
differences are measurable, which gives the Rich SDK's quality signal
``q`` (Equations 1 and 2) real content.

Each engine compiles its surface table into one :class:`SurfaceMatcher`
(a trie over the surfaces' words) that finds every occurrence of every
surface in one pass over a text.  ``extract_entities`` resolves them
in a fixed order: longest surface first (ties by surface string), each
surface's occurrences left to right and non-overlapping, an occurrence
dropped when it overlaps a span an earlier one took.  ``analyze``
scans the document once, splits it into sentence spans once, tokenises
and scores each sentence once, and computes only what the requested
features need: a sentence's mentions for ``entity_sentiment`` are the
document's occurrences that lie inside that sentence.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_right, insort
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from itertools import accumulate, chain
from operator import itemgetter

from repro.data.gazetteer import Gazetteer
from repro.data.lexicon import SentimentLexicon
from repro.data.taxonomy import ConceptTaxonomy
from repro.services.base import ServiceRequest, SimulatedService
from repro.simnet.errors import RemoteServiceError
from repro.simnet.latency import LatencyDistribution
from repro.simnet.transport import Transport
from repro.textproc.html import strip_html
from repro.textproc.stopwords import STOPWORDS
from repro.textproc.tokenizer import sentence_spans, span_tokens, tokenize

ALL_FEATURES = ("entities", "keywords", "concepts", "sentiment", "entity_sentiment")

_CAPITALIZED_RUN_RE = re.compile(r"\b([A-Z][a-z]+(?:\s+[A-Z][a-z]+){0,2})\b")
_WORD_SPLIT_RE = re.compile(r"(\w+)")

Span = tuple[int, int]
Occurrence = tuple[int, int, int]


def _stable_fraction(seed: int, token: str) -> float:
    """Deterministic pseudo-uniform value in [0, 1) keyed by (seed, token)."""
    digest = hashlib.sha256(f"{seed}:{token}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


class _CaseFold(dict):
    """``str.translate`` table: each character to its one-character lower case.

    Length-preserving, so offsets survive folding.  Seeded with ASCII
    and the code points regex ``IGNORECASE`` equates with an ASCII
    letter though ``str.lower`` does not; other upper-case code points
    are added when first seen.
    """

    def __missing__(self, code: int) -> int:
        char = chr(code)
        lowered = char.lower()
        if lowered == char or len(lowered) != 1:
            return code
        self[code] = folded = ord(lowered)
        return folded


_FOLD = _CaseFold({code: ord(chr(code).lower()) for code in range(128)})
_FOLD.update({0x130: ord("i"), 0x131: ord("i"), 0x17F: ord("s")})


def _word_counts(tokens: Iterable[str]) -> Counter[str]:
    """Counts of the word tokens (numbers dropped), in first-seen order."""
    counts = Counter(tokens)
    for token in [token for token in counts if token[0].isdigit()]:
        del counts[token]
    return counts


def _overlaps(taken: list[Span], start: int, end: int) -> bool:
    """Whether ``[start, end)`` meets any of the sorted, disjoint ``taken``."""
    index = bisect_right(taken, (start, end))
    return (index > 0 and taken[index - 1][1] > start) or (
        index < len(taken) and taken[index][0] < end)


class SurfaceMatcher:
    r"""Finds every occurrence of a fixed set of surface forms in one scan.

    A surface matches where ``\b`` + surface + ``\b`` would: surfaces
    longer than three characters case-insensitively, shorter ones
    ("US", "IN", "CA") exactly, or they would swallow ordinary words
    like the preposition "in".  Each surface is cut into its ``\w+``
    words and the separators around them and stored in a trie keyed by
    folded word, then by ``(separator, folded word)``.  ``scan`` cuts
    the text the same way once and walks the trie from each word; since
    words are maximal ``\w`` runs, covering whole words with exactly the
    surface's separators *is* the ``\b`` condition at both ends.
    """

    def __init__(self, surfaces: Iterable[str]) -> None:
        #: Resolution order: longest first, so "United States of America"
        #: is preferred over "United States"; ties by surface string.
        self.surfaces = sorted(surfaces, key=lambda s: (-len(s), s))
        self._root: dict = {}
        for rank, surface in enumerate(self.surfaces):
            lead, *pieces = _WORD_SPLIT_RE.split(surface.translate(_FOLD))
            if not pieces:
                raise ValueError(f"surface form {surface!r} has no letter or digit")
            trail = pieces.pop()
            node = self._root.setdefault(pieces[0], {})
            for gap, word in zip(pieces[1::2], pieces[2::2]):
                node = node.setdefault((gap, word), {})
            exact = surface if len(surface) <= 3 else None
            node.setdefault(None, []).append((rank, exact, lead, trail))

    def scan(self, text: str) -> list[Occurrence]:
        """``(rank, start, end)`` of every occurrence, sorted.

        ``rank`` indexes :attr:`surfaces`.  Occurrences of different
        surfaces — and of one surface with itself — may overlap.
        """
        # Folding keeps every character's ``\w``-ness, so the folded text
        # cuts at the same offsets: gap, word, gap, ..., word, gap.
        pieces = _WORD_SPLIT_RE.split(text.translate(_FOLD))
        ends = list(accumulate(map(len, pieces)))
        final_gap = len(pieces) - 1
        root = self._root
        found = []
        for first in range(1, final_gap, 2):
            node = root.get(pieces[first])
            last = first
            while node is not None:
                for rank, exact, lead, trail in node.get(None, ()):
                    # A leading / trailing separator must be the whole gap
                    # to the neighbouring word (``\b`` next to a non-word
                    # character asks for a word character beyond it).
                    if lead and (first == 1 or pieces[first - 1] != lead):
                        continue
                    if trail and (last + 1 == final_gap or pieces[last + 1] != trail):
                        continue
                    start = ends[first - 1] - len(lead)
                    if exact is None or text.startswith(exact, start):
                        found.append((rank, start, ends[last] + len(trail)))
                if last + 1 == final_gap:
                    break
                node = node.get((pieces[last + 1], pieces[last + 2]))
                last += 2
        found.sort()
        return found


class NluEngine:
    """The actual language-understanding implementation.

    Separated from the service wrapper so the personalized knowledge
    base can also run one *locally* (the paper's local-processing
    fallback while disconnected).
    """

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
        self._matcher = SurfaceMatcher(self._known_surfaces)

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

    def _resolve(self, text: str, occurrences: list[Occurrence]
                 ) -> tuple[dict[str, list[str]], list[Span]]:
        """Greedy longest-first resolution of sorted matcher occurrences.

        Returns entity id -> mention strings (in the text's casing, in
        resolution order) and the sorted disjoint spans they took.
        """
        mentions: dict[str, list[str]] = defaultdict(list)
        taken: list[Span] = []
        surfaces = self._matcher.surfaces
        last_rank, resume = -1, 0
        for rank, start, end in occurrences:
            # One surface's occurrences do not overlap each other, taken
            # or not — what ``finditer`` would have yielded.
            if rank == last_rank and start < resume:
                continue
            last_rank, resume = rank, end
            if _overlaps(taken, start, end):
                continue
            insort(taken, (start, end))
            mentions[self._known_surfaces[surfaces[rank]]].append(text[start:end])
        return mentions, taken

    def extract_entities(self, text: str) -> list[dict]:
        """Gazetteer NER with greedy longest-first matching."""
        return self._entities(text, self._matcher.scan(text))

    def _entities(self, text: str, occurrences: list[Occurrence]) -> list[dict]:
        mentions, taken = self._resolve(text, occurrences)
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
            results.extend(self._heuristic_entities(text, taken))
        results.sort(key=lambda item: (-item["count"], item["id"]))
        return results

    def _heuristic_entities(self, text: str, taken: list[Span]) -> list[dict]:
        """Capitalized runs the gazetteer does not know — possible false positives."""
        found: Counter[str] = Counter()
        for match in _CAPITALIZED_RUN_RE.finditer(text):
            if _overlaps(taken, match.start(), match.end()):
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
        return self._keywords(_word_counts(tokenize(text)), limit)

    def _keywords(self, word_counts: Counter[str], limit: int = 10) -> list[dict]:
        counts = [(word, count) for word, count in word_counts.items()
                  if len(word) > 2 and word not in STOPWORDS]
        if not counts:
            return []
        # ``Counter.most_common``, without its Python-level heap.
        top = sorted(counts, key=itemgetter(1), reverse=True)[:limit]
        peak = top[0][1]
        return [
            {"text": token, "relevance": round(count / peak, 4), "count": count}
            for token, count in top
        ]

    def extract_concepts(self, text: str, limit: int = 5) -> list[dict]:
        """Taxonomy concepts triggered by the document's tokens."""
        return self._concepts(_word_counts(tokenize(text)), limit)

    def _concepts(self, word_counts: Counter[str], limit: int = 5) -> list[dict]:
        hits: Counter[str] = Counter()
        triggers = self.taxonomy.triggers
        for token in filter(triggers.__contains__, word_counts):
            for concept in triggers[token]:
                hits[concept] += word_counts[token]
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

    def _sentence_scores(self, sentence_tokens: list[list[str]]) -> list[float]:
        """Lexicon score of each sentence's tokens."""
        return [self.lexicon.score_tokens(tokens) for tokens in sentence_tokens]

    @staticmethod
    def _polarity(score: float) -> dict:
        score = max(-1.0, min(1.0, score))
        if score > 0.05:
            label = "positive"
        elif score < -0.05:
            label = "negative"
        else:
            label = "neutral"
        return {"score": round(score, 4), "label": label}

    def document_sentiment(self, text: str) -> dict:
        """Whole-document polarity in [-1, 1] with a discrete label."""
        return self._document_sentiment(
            self._sentence_scores(span_tokens(text, sentence_spans(text))))

    def _document_sentiment(self, scores: list[float]) -> dict:
        total = 0.0
        for score in scores:  # not sum(): 3.12 compensates float sums, changing the rounding
            total += score
        # Normalize by document length: an identical rant twice as long
        # should not look twice as polarized.
        scale = max(1.0, len(scores) ** 0.5) * 4.0
        return self._polarity(total / scale)

    def entity_sentiment(self, text: str) -> dict[str, dict]:
        """Per-entity polarity: average sentiment of sentences mentioning it.

        Mirrors the Watson feature §2.2 highlights — sentiment for
        individual entities rather than whole documents.
        """
        spans = sentence_spans(text)
        return self._entity_sentiment(
            text, spans, self._sentence_scores(span_tokens(text, spans)),
            self._matcher.scan(text))

    def _entity_sentiment(self, text: str, spans: list[Span], scores: list[float],
                          occurrences: list[Occurrence]) -> dict[str, dict]:
        # A sentence's mentions are the document's occurrences inside its
        # span, in scan order: sentences are whole words apart, so an
        # occurrence within one sees the same neighbours a scan of the
        # sentence alone would (one with a separator at a sentence edge is
        # refused by both), and one across a break is in neither.
        starts = [start for start, _ in spans]
        inside: list[list[Occurrence]] = [[] for _ in spans]
        for occurrence in occurrences:
            index = bisect_right(starts, occurrence[1]) - 1
            if index >= 0 and occurrence[2] <= spans[index][1]:
                inside[index].append(occurrence)
        totals: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for found, sentence_score in zip(inside, scores):
            if not found:
                continue
            mentions, _ = self._resolve(text, found)
            # Same order as ``extract_entities`` reports them.
            for entity_id in sorted(mentions, key=lambda key: (-len(mentions[key]), key)):
                totals[entity_id] += sentence_score
                counts[entity_id] += 1
        return {
            entity_id: {**self._polarity(total / counts[entity_id] / 4.0),
                        "mentions": counts[entity_id]}
            for entity_id, total in totals.items()
        }

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
        """Run the requested features over one document, in one pass.

        The surface scan is shared by entities and entity sentiment;
        sentences are split, tokenised and scored once for both
        sentiment features, and their tokens are the word counts
        keywords and concepts share.  Nothing a feature needs is
        computed unless it was requested.
        """
        unknown = set(features) - set(ALL_FEATURES)
        if unknown:
            raise ValueError(f"unknown NLU features: {sorted(unknown)}")
        result: dict[str, object] = {"language": "en", "text_length": len(text)}
        occurrences = (self._matcher.scan(text) if "entities" in features
                       or "entity_sentiment" in features else [])
        if "entities" in features:
            result["entities"] = self._entities(text, occurrences)
        by_sentence = "sentiment" in features or "entity_sentiment" in features
        if by_sentence:
            spans = sentence_spans(text)
            sentence_tokens = span_tokens(text, spans)
        if "keywords" in features or "concepts" in features:
            # The sentences' tokens, in order, are ``tokenize(text)``.
            word_counts = _word_counts(chain.from_iterable(sentence_tokens)
                                       if by_sentence else tokenize(text))
            if "keywords" in features:
                result["keywords"] = self._keywords(word_counts)
            if "concepts" in features:
                result["concepts"] = self._concepts(word_counts)
        if by_sentence:
            scores = self._sentence_scores(sentence_tokens)
            if "sentiment" in features:
                result["sentiment"] = self._document_sentiment(scores)
            if "entity_sentiment" in features:
                result["entity_sentiment"] = self._entity_sentiment(
                    text, spans, scores, occurrences)
        return result


class NluService(SimulatedService):
    """A remote NLU endpoint wrapping an :class:`NluEngine`.

    Operations (one document per request, as the paper notes real NLU
    APIs require):

    * ``analyze`` — ``{"text": ..., "features": [...]}``
    * ``analyze_url`` — ``{"url": ..., "features": [...]}`` (only when
      constructed with a ``web_fetcher``)
    * ``disambiguate`` — ``{"phrase": ...}``
    """

    def __init__(
        self,
        name: str,
        transport: Transport,
        engine: NluEngine,
        web_fetcher: Callable[[str], str | None] | None = None,
        latency: LatencyDistribution | None = None,
        **service_kwargs,
    ) -> None:
        super().__init__(name, "nlu", transport, latency=latency, **service_kwargs)
        self.engine = engine
        self.web_fetcher = web_fetcher

    def latency_params(self, request: ServiceRequest) -> dict[str, float]:
        text = request.payload.get("text", "")
        return {"size": float(len(text)) if isinstance(text, str) else 0.0}

    def _features(self, payload) -> tuple[str, ...]:
        """The requested features, or status 400 — a bad list is the caller's fault."""
        features = payload.get("features") or ALL_FEATURES
        if not isinstance(features, (list, tuple)) or not all(
                isinstance(feature, str) and feature in ALL_FEATURES for feature in features):
            raise RemoteServiceError(
                self.name, f"'features' must be a list drawn from {list(ALL_FEATURES)}, "
                f"got {features!r}", status=400)
        return tuple(features)

    def _handle(self, request: ServiceRequest) -> object:
        payload = request.payload
        if request.operation == "analyze":
            text = payload.get("text")
            if not isinstance(text, str) or not text.strip():
                raise RemoteServiceError(self.name, "analyze requires non-empty 'text'",
                                         status=400)
            return self.engine.analyze(text, self._features(payload))
        if request.operation == "analyze_url":
            if self.web_fetcher is None:
                raise RemoteServiceError(self.name, "this service cannot fetch URLs",
                                         status=400)
            features = self._features(payload)
            url = payload.get("url")
            html = self.web_fetcher(str(url))
            if html is None:
                raise RemoteServiceError(self.name, f"could not fetch {url!r}", status=404)
            result = self.engine.analyze(strip_html(html), features)
            result["retrieved_url"] = url
            return result
        if request.operation == "disambiguate":
            phrase = payload.get("phrase")
            if not isinstance(phrase, str) or not phrase.strip():
                raise RemoteServiceError(self.name, "disambiguate requires 'phrase'",
                                         status=400)
            resolved = self.engine.disambiguate(phrase)
            return {"resolved": resolved}
        raise RemoteServiceError(self.name, f"unknown operation {request.operation!r}",
                                 status=400)
