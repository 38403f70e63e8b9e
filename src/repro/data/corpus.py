"""Seeded synthetic web-corpus generator.

Generates HTML documents about gazetteer entities **with gold
annotations**: which entities are mentioned (by which alias), the
intended per-entity sentiment, and the dominant topics.  Gold labels are
what let the reproduction *measure* NLU provider quality — the paper's
ranking formulas need a real quality signal ``q`` to weigh.

Documents carry a URL, a source domain, a type tag (``news``, ``blog``
or ``reference``) and a timestamp, so the search engines can implement
the paper's "restrict to news stories" feature and the SDK can store
query results along with the query time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from repro.data.gazetteer import Entity, Gazetteer, default_gazetteer
from repro.textproc.html import render_html
from repro.textproc.tfidf import content_terms
from repro.textproc.tokenizer import word_tokens
from repro.util.rng import SeededRng

_POSITIVE_TEMPLATES = [
    "{entity} delivered excellent results this quarter and analysts were impressed.",
    "Observers praised {entity} for its outstanding and reliable performance.",
    "{entity} announced a remarkable breakthrough that experts called brilliant.",
    "The outlook for {entity} is promising, with strong and healthy growth expected.",
    "{entity} was celebrated as a leading and innovative force in its field.",
    "Customers reported that {entity} has been wonderful and trusted for years.",
]

_NEGATIVE_TEMPLATES = [
    "{entity} suffered a terrible setback and critics called the situation disastrous.",
    "A scandal surrounding {entity} led to lawsuits and heavy criticism.",
    "{entity} reported disappointing losses as its market position declined.",
    "Analysts warned that {entity} faces a dangerous and costly crisis.",
    "{entity} was criticized after a defective product forced an expensive recall.",
    "The struggling {entity} announced layoffs amid fears of collapse.",
]

_NEUTRAL_TEMPLATES = [
    "{entity} was mentioned in a report published on Tuesday.",
    "A spokesperson for {entity} confirmed the schedule for the meeting.",
    "The document describes the history and structure of {entity}.",
    "Representatives of {entity} attended the annual conference.",
    "{entity} appears in several public records and databases.",
]

_TOPIC_SENTENCES = {
    "Company": [
        "The stock market reacted as investors weighed revenue and earnings figures.",
        "Executives discussed strategy, a possible merger, and quarterly profit.",
    ],
    "Country": [
        "The government outlined new policy ahead of the coming election.",
        "Economists debated trade, inflation, and the state of the economy.",
    ],
    "Person": [
        "Historians discussed the proof, the theorem, and related mathematics.",
        "The lecture covered physics, energy, and early computing research.",
    ],
    "City": [
        "Tourism officials expect travel to the destination to rise this season.",
        "Urban planners presented transit data at the city council meeting.",
    ],
    "Disease": [
        "Hospitals tracked patients while clinical teams evaluated treatment options.",
        "Public health officials monitored the outbreak and vaccine supplies.",
    ],
    "Technology": [
        "Researchers trained a new model using a novel learning algorithm.",
        "Engineers deployed the system on cloud infrastructure across a cluster.",
    ],
}

_FILLER_SENTENCES = [
    "Further details are expected to be released next week.",
    "The announcement follows months of preparation.",
    "Several independent sources confirmed the account.",
    "Additional background information is available in the archive.",
    "The findings were presented at an international venue.",
]

_DOMAINS = {
    "news": ["news.example.com", "daily-wire.example.org", "world-report.example.net"],
    "blog": ["blog.example.io", "opinions.example.me"],
    "reference": ["encyclopedia.example.org", "reference.example.com"],
}


@dataclass
class CorpusDocument:
    """One generated web document plus its gold annotations."""

    doc_id: str
    url: str
    title: str
    html: str
    text: str
    doc_type: str
    domain: str
    timestamp: float
    gold_entities: dict[str, int] = field(default_factory=dict)
    gold_aliases: dict[str, list[str]] = field(default_factory=dict)
    gold_sentiment: dict[str, int] = field(default_factory=dict)
    gold_topics: list[str] = field(default_factory=list)

    @property
    def overall_gold_sentiment(self) -> int:
        """Sign of the summed per-entity stances."""
        total = sum(self.gold_sentiment.values())
        if total > 0:
            return 1
        if total < 0:
            return -1
        return 0


class SyntheticCorpus:
    """A collection of generated documents, indexable by id and URL."""

    def __init__(self, documents: list[CorpusDocument]) -> None:
        self.documents = list(documents)
        self._by_id = {document.doc_id: document for document in self.documents}
        self._by_url = {document.url: document for document in self.documents}

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def by_id(self, doc_id: str) -> CorpusDocument:
        return self._by_id[doc_id]

    def by_url(self, url: str) -> CorpusDocument | None:
        return self._by_url.get(url)

    @cached_property
    def _counts(self) -> tuple[dict[str, Counter[str]], Counter[str]]:
        """One tokenise pass: per-document index terms and corpus word counts.

        Built on first use and owned by this instance, so two corpora
        share nothing; the token lists are not kept.  Every reader gets
        the same objects: treat them as read-only.
        """
        term_counts, word_counts = {}, Counter()
        for document in self.documents:
            tokens = word_tokens(document.text)
            word_counts.update(tokens)
            # Engines index ``title + "\n" + text``; no token spans the newline.
            term_counts[document.doc_id] = Counter(
                content_terms(word_tokens(document.title) + tokens))
        return term_counts, word_counts

    def term_counts(self) -> dict[str, Counter[str]]:
        """``doc_id`` → content-term counts of ``title + "\n" + text``."""
        return self._counts[0]

    def word_counts(self) -> Counter[str]:
        """Raw word counts over every document's ``text``."""
        return self._counts[1]

    def of_type(self, doc_type: str) -> list[CorpusDocument]:
        return [document for document in self.documents if document.doc_type == doc_type]

    def mentioning(self, entity_id: str) -> list[CorpusDocument]:
        return [document for document in self.documents if entity_id in document.gold_entities]


def _surface_form(rng: SeededRng, entity: Entity) -> str:
    """Pick the canonical name or an alias — aliases keep NER honest."""
    forms = entity.all_surface_forms()
    # Canonical name twice as likely as any single alias.
    weights = [2.0] + [1.0] * (len(forms) - 1)
    return rng.weighted_choice(forms, weights)


def _stance_sentences(rng: SeededRng, entity: Entity, stance: int, count: int,
                      aliases_used: list[str]) -> list[str]:
    if stance > 0:
        pool = _POSITIVE_TEMPLATES
    elif stance < 0:
        pool = _NEGATIVE_TEMPLATES
    else:
        pool = _NEUTRAL_TEMPLATES
    # A document refers to an entity by one surface form throughout (as
    # real articles do); an NLU provider that does not know this alias
    # misses the entity entirely, which is what makes provider recall
    # measurably different.
    surface = _surface_form(rng, entity)
    sentences = []
    for _ in range(count):
        aliases_used.append(surface)
        sentences.append(rng.choice(pool).format(entity=surface))
    return sentences


def generate_corpus(
    size: int = 120,
    seed: int = 42,
    gazetteer: Gazetteer | None = None,
    start_time: float = 1_700_000_000.0,
) -> SyntheticCorpus:
    """Generate a deterministic corpus of ``size`` documents.

    Each document discusses one to three entities with independent
    stances; roughly 55% of documents are news, 25% blogs and 20%
    reference pages.
    """
    world = gazetteer if gazetteer is not None else default_gazetteer()
    rng = SeededRng(seed)
    entities = list(world)
    documents: list[CorpusDocument] = []

    for index in range(size):
        doc_rng = rng.child(f"doc-{index}")
        doc_type = doc_rng.weighted_choice(["news", "blog", "reference"], [0.55, 0.25, 0.20])
        domain = doc_rng.choice(_DOMAINS[doc_type])
        subjects = doc_rng.sample(entities, doc_rng.randint(1, min(3, len(entities))))

        paragraphs: list[str] = []
        gold_entities: dict[str, int] = {}
        gold_aliases: dict[str, list[str]] = {}
        gold_sentiment: dict[str, int] = {}
        topics: list[str] = []

        for entity in subjects:
            if doc_type == "reference":
                stance = 0  # encyclopedias are written neutrally
            else:
                stance = doc_rng.weighted_choice([1, -1, 0], [0.4, 0.4, 0.2])
            mention_count = doc_rng.randint(2, 4)
            aliases_used: list[str] = []
            sentences = _stance_sentences(doc_rng, entity, stance, mention_count, aliases_used)
            topic_pool = _TOPIC_SENTENCES.get(entity.entity_type, [])
            if topic_pool:
                sentences.append(doc_rng.choice(topic_pool))
                topics.append(entity.entity_type)
            sentences.append(doc_rng.choice(_FILLER_SENTENCES))
            paragraphs.append(" ".join(sentences))
            gold_entities[entity.entity_id] = mention_count
            gold_aliases[entity.entity_id] = aliases_used
            gold_sentiment[entity.entity_id] = stance

        lead_name = subjects[0].name
        title_verb = {1: "thrives", -1: "under pressure", 0: "in review"}[
            gold_sentiment[subjects[0].entity_id]
        ]
        title = f"{lead_name} {title_verb}"
        doc_id = f"doc-{index:04d}"
        url = f"http://{domain}/{doc_type}/{doc_id}"
        timestamp = start_time + index * 3600.0 + doc_rng.uniform(0, 1800)
        html = render_html(title, paragraphs, metadata={"doc-type": doc_type})
        text = title + "\n" + "\n".join(paragraphs)

        documents.append(
            CorpusDocument(
                doc_id=doc_id,
                url=url,
                title=title,
                html=html,
                text=text,
                doc_type=doc_type,
                domain=domain,
                timestamp=timestamp,
                gold_entities=gold_entities,
                gold_aliases=gold_aliases,
                gold_sentiment=gold_sentiment,
                gold_topics=topics,
            )
        )
    return SyntheticCorpus(documents)
