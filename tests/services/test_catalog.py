"""Tests for the assembled world."""

from repro.services.catalog import build_world


class TestBuildWorld:
    def test_all_kinds_present(self, world):
        kinds = world.registry.kinds()
        assert {"nlu", "search", "web", "knowledge", "storage",
                "marketdata", "geodata", "spellcheck", "vision"} <= kinds

    def test_three_providers_per_competitive_kind(self, world):
        for kind in ("nlu", "search", "knowledge", "storage", "vision"):
            assert len(world.services_of_kind(kind)) == 3

    def test_shared_clock(self, world):
        clocks = {id(service.transport.clock) for service in world.registry}
        assert len(clocks) == 1
        assert world.clock is world.transport.clock

    def test_two_worlds_of_one_seed_share_no_index_state(self):
        first = build_world(seed=42, corpus_size=25)
        second = build_world(seed=42, corpus_size=25)
        assert first.corpus is not second.corpus
        assert first.corpus.term_counts() is not second.corpus.term_counts()
        assert first.corpus.word_counts() is not second.corpus.word_counts()
        for name in ("goggle", "bung", "yahu"):
            ours, theirs = first.service(name)._index, second.service(name)._index
            assert ours is not theirs and ours._doc_terms == theirs._doc_terms
            for doc_id, counts in ours._doc_terms.items():
                assert counts is first.corpus.term_counts()[doc_id]
                assert counts is not theirs._doc_terms[doc_id]
            assert all(postings is not theirs._postings[term]
                       for term, postings in ours._postings.items())
        ours, theirs = (world.service("orthografix").checker.counts
                        for world in (first, second))
        assert ours == theirs and ours is not theirs
        assert ours is not first.corpus.word_counts()

    def test_deterministic_construction(self):
        first = build_world(seed=9, corpus_size=10)
        second = build_world(seed=9, corpus_size=10)
        assert [doc.text for doc in first.corpus] == [doc.text for doc in second.corpus]
        response_a = first.service("lexica-prime").invoke(
            "analyze", {"text": first.corpus.documents[0].text})
        response_b = second.service("lexica-prime").invoke(
            "analyze", {"text": second.corpus.documents[0].text})
        assert response_a.value == response_b.value
        assert response_a.latency == response_b.latency

    def test_nlu_quality_ordering(self):
        """The premium provider really is better than the budget one."""
        world = build_world(seed=42, corpus_size=60)

        def recall(provider_name: str) -> float:
            provider = world.service(provider_name)
            found_total = gold_total = 0
            for doc in world.corpus.documents:
                analysis = provider.invoke(
                    "analyze", {"text": doc.text, "features": ["entities"]}
                ).value
                found = {entity["id"] for entity in analysis["entities"]
                         if entity["disambiguated"]}
                gold = set(doc.gold_entities)
                found_total += len(found & gold)
                gold_total += len(gold)
            return found_total / gold_total

        assert recall("lexica-prime") > recall("wordsmith-lite")

    def test_web_serves_corpus(self, world):
        doc = world.corpus.documents[0]
        response = world.web.invoke("fetch", {"url": doc.url})
        assert response.value["html"] == doc.html

    def test_nlu_latency_ordering(self, world):
        """Premium is slower (and pricier) than budget, as configured."""
        text = world.corpus.documents[0].text
        premium = [world.service("lexica-prime").invoke("analyze", {"text": text}).latency
                   for _ in range(10)]
        budget = [world.service("wordsmith-lite").invoke("analyze", {"text": text}).latency
                  for _ in range(10)]
        assert sum(premium) / 10 > sum(budget) / 10
