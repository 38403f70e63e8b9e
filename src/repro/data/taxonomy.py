"""Concept taxonomy: a small ontology with subclass edges.

Serves two roles:

* the NLU concept/taxonomy taggers map keywords to concepts and report
  the concept path (e.g. ``/technology/artificial intelligence/machine
  learning``), mirroring Watson NLU's taxonomy feature;
* the subclass edges become ``rdfs:subClassOf`` triples in the RDF
  store, giving the transitive and RDFS reasoners real work to do.
"""

from __future__ import annotations

from collections.abc import Mapping, Set


class ConceptTaxonomy:
    """A forest of concepts with keyword triggers."""

    def __init__(self) -> None:
        self._parent: dict[str, str | None] = {}
        self._triggers: dict[str, set[str]] = {}

    def add_concept(self, concept: str, parent: str | None = None,
                    triggers: list[str] | None = None) -> None:
        """Register ``concept`` under ``parent`` with trigger keywords.

        Parents must be registered before their children so the
        hierarchy is always well-formed.
        """
        if parent is not None and parent not in self._parent:
            raise ValueError(f"unknown parent concept {parent!r}")
        if concept in self._parent:
            raise ValueError(f"duplicate concept {concept!r}")
        self._parent[concept] = parent
        for trigger in triggers or []:
            self._triggers.setdefault(trigger.lower(), set()).add(concept)

    def __contains__(self, concept: str) -> bool:
        return concept in self._parent

    def __iter__(self):
        return iter(self._parent)

    def parent(self, concept: str) -> str | None:
        return self._parent[concept]

    def path(self, concept: str) -> list[str]:
        """Root-to-concept path, e.g. ['technology', 'ai', 'machine learning']."""
        chain: list[str] = []
        cursor: str | None = concept
        while cursor is not None:
            chain.append(cursor)
            cursor = self._parent[cursor]
        return list(reversed(chain))

    def ancestors(self, concept: str) -> list[str]:
        """Proper ancestors of ``concept``, nearest first."""
        return list(reversed(self.path(concept)))[1:]

    def concepts_for_token(self, token: str) -> set[str]:
        """Concepts triggered by one keyword token."""
        return set(self._triggers.get(token.lower(), set()))

    @property
    def triggers(self) -> Mapping[str, Set[str]]:
        """Lower-cased trigger token -> the concepts it triggers.

        The live table, not a copy (the NLU engine reads it once per
        token); callers must not edit it.
        """
        return self._triggers

    def subclass_pairs(self) -> list[tuple[str, str]]:
        """All (child, parent) edges — ready to become rdfs:subClassOf triples."""
        return [(child, parent) for child, parent in self._parent.items() if parent is not None]


def default_taxonomy() -> ConceptTaxonomy:
    """The built-in concept forest used by the default NLU providers."""
    taxonomy = ConceptTaxonomy()
    add = taxonomy.add_concept

    add("technology")
    add("artificial intelligence", "technology",
        ["intelligence", "cognitive", "ai"])
    add("machine learning", "artificial intelligence",
        ["learning", "model", "training", "ml", "algorithm"])
    add("natural language processing", "artificial intelligence",
        ["language", "text", "nlp", "linguistic", "translation"])
    add("computer vision", "artificial intelligence",
        ["image", "vision", "visual", "video"])
    add("distributed systems", "technology",
        ["distributed", "cluster", "replication"])
    add("cloud computing", "distributed systems",
        ["cloud", "datacenter", "saas"])
    add("blockchain", "distributed systems", ["blockchain", "ledger", "crypto"])
    add("computing hardware", "technology", ["chip", "processor", "hardware"])
    add("quantum computing", "computing hardware", ["quantum", "qubit"])
    add("internet of things", "distributed systems", ["iot", "sensor", "sensors"])

    add("business")
    add("finance", "business",
        ["stock", "stocks", "market", "revenue", "profit", "earnings",
         "shares", "investor", "investors"])
    add("economics", "business", ["economy", "economic", "inflation", "gdp", "trade"])
    add("management", "business", ["ceo", "executive", "strategy", "merger"])

    add("health")
    add("medicine", "health", ["disease", "treatment", "patients", "clinical", "vaccine"])
    add("public health", "health", ["outbreak", "epidemic", "pandemic", "hospital",
                                    "hospitals"])

    add("science")
    add("physics", "science", ["physics", "particle", "relativity", "energy"])
    add("mathematics", "science", ["mathematics", "theorem", "proof", "equations"])
    add("climate science", "science", ["climate", "warming", "emissions", "carbon"])

    add("society")
    add("politics", "society", ["government", "election", "policy", "parliament",
                                "congress", "minister"])
    add("sports", "society", ["championship", "tournament", "team", "olympic"])
    add("travel", "society", ["tourism", "tourists", "travel", "destination"])
    return taxonomy
