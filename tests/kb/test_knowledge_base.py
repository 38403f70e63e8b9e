"""Tests for the PersonalKnowledgeBase facade."""

import errno
import io

import pytest

from repro.kb.disambiguation import EntityDisambiguator, ServiceBackedStrategy
from repro.kb.knowledge_base import PersonalKnowledgeBase
from repro.stores.rdf.graph import RDF, RDFS, REPRO
from repro.stores.rdf.rules import Rule
from repro.util.errors import ConfigurationError


@pytest.fixture
def kb(client):
    disambiguator = EntityDisambiguator(
        [ServiceBackedStrategy(client, "lexica-prime")])
    return PersonalKnowledgeBase(client=client, disambiguator=disambiguator)


CSV_TEXT = "city,month,temp\nTokyo,1,5.1\nTokyo,7,26.9\nParis,7,20.2\n"


class TestFactEntry:
    def test_add_fact_disambiguates_subject(self, kb):
        kb.add_fact("USA", "repro:visited", "true")
        assert ("Q30", "repro:visited", "true") in kb.graph

    def test_aliases_collapse_to_one_subject(self, kb):
        """'This prevents the proliferation of redundant database
        entries' — all aliases write to one canonical subject."""
        kb.add_fact("USA", "repro:p1", "a")
        kb.add_fact("United States of America", "repro:p2", "b")
        kb.add_fact("the States", "repro:p3", "c")
        subjects = {t.subject for t in kb.graph.match(None, None, None)
                    if t.predicate.startswith("repro:p")}
        assert subjects == {"Q30"}

    def test_label_and_links_stored(self, kb):
        kb.add_fact("USA", "repro:visited", "true")
        assert ("Q30", RDFS.label, "United States of America") in kb.graph
        assert kb.graph.match("Q30", REPRO("link_dbpedia"), None)

    def test_string_objects_also_disambiguated(self, kb):
        kb.add_fact("France", "repro:ally_of", "the States")
        assert ("Q142", "repro:ally_of", "Q30") in kb.graph

    def test_disambiguation_can_be_disabled(self, kb):
        kb.add_fact("USA", "repro:raw", 1, disambiguate=False)
        assert ("USA", "repro:raw", 1) in kb.graph

    def test_unresolvable_subject_kept_verbatim(self, kb):
        kb.add_fact("my house", "repro:rooms", 5)
        assert ("my house", "repro:rooms", 5) in kb.graph

    def test_facts_about_resolves_aliases(self, kb):
        kb.add_fact("USA", "repro:visited", "true")
        assert kb.facts_about("America")

    def test_kb_works_without_disambiguator(self):
        bare = PersonalKnowledgeBase()
        bare.add_fact("x", "p", 1)
        assert ("x", "p", 1) in bare.graph


class TestIngestion:
    def test_ingest_entity_from_all_sources(self, kb):
        outcomes = kb.ingest_entity("US")
        assert set(outcomes) == {"dbpedia-sim", "wikidata-sim", "yago-sim"}
        # Property names are normalized back to canonical form.
        assert kb.graph.match("Q30", REPRO("population_millions"), None)
        assert kb.graph.match("Q30", REPRO("capital"), None)

    def test_ingest_records_provenance(self, kb):
        kb.ingest_entity("US", sources=["dbpedia-sim"])
        provenance = kb.graph.match("Q30", REPRO("source_dbpedia-sim"), None)
        assert provenance and "dbpedia.org" in str(provenance[0].object)

    def test_ingest_skips_uncovered_sources(self, kb, world):
        source = world.service("yago-sim")
        missing = next(entity for entity in world.gazetteer
                       if not source.covers(entity.entity_id))
        outcomes = kb.ingest_entity(missing.name, sources=["yago-sim"])
        assert outcomes["yago-sim"].startswith("miss")

    def test_ingest_requires_client(self):
        with pytest.raises(ConfigurationError):
            PersonalKnowledgeBase().ingest_entity("US")


class TestFormatConversion:
    def test_csv_to_table(self, kb):
        table = kb.ingest_csv_text("readings", CSV_TEXT)
        assert len(table) == 3
        assert table.aggregate("max", "temp") == 26.9

    def test_table_to_rdf_and_query(self, kb):
        kb.ingest_csv_text("readings", CSV_TEXT)
        added = kb.table_to_rdf("readings")
        assert added == 12  # 3 rows x (3 columns + rdf:type)
        rows = kb.query(
            [("?r", "repro:city", "Tokyo"), ("?r", "repro:temp", "?t")],
            variables=["?t"],
        )
        assert {row["?t"] for row in rows} == {5.1, 26.9}

    def test_rdf_back_to_table_includes_inferred(self, kb):
        kb.ingest_csv_text("readings", CSV_TEXT)
        kb.table_to_rdf("readings")
        kb.infer_with_rules([Rule(
            premises=[("?r", "repro:temp", "?t")],
            conclusions=[("?r", "repro:measured", "yes")],
            name="measured",
        )])
        table = kb.rdf_to_table("readings")
        assert "measured" in table.column_names
        assert all(row["measured"] == "yes" for row in table.select())

    def test_export_csv_roundtrip(self, kb, tmp_path):
        kb.ingest_csv_text("readings", CSV_TEXT)
        path = tmp_path / "out.csv"
        text = kb.export_table_csv("readings", path)
        assert path.read_text() == text
        reimported = kb.ingest_csv_text("copy", text)
        assert reimported.select() == kb.database.table("readings").select()

    def test_csv_file_ingest(self, kb, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(CSV_TEXT)
        table = kb.ingest_csv_file("readings", path)
        assert len(table) == 3


class TestReasoning:
    def test_rdfs_reasoner(self, kb):
        kb.graph.add(("Dog", RDFS.subClassOf, "Animal"))
        kb.graph.add(("rex", RDF.type, "Dog"))
        added = kb.reason("rdfs")
        assert added >= 1
        assert ("rex", RDF.type, "Animal") in kb.graph

    def test_transitive_reasoner(self, kb):
        kb.graph.add(("a", RDFS.subClassOf, "b"))
        kb.graph.add(("b", RDFS.subClassOf, "c"))
        kb.reason("transitive")
        assert ("a", RDFS.subClassOf, "c") in kb.graph

    def test_unknown_reasoner_rejected(self, kb):
        with pytest.raises(ConfigurationError):
            kb.reason("owl-full")

    def test_user_rules(self, kb):
        kb.add_fact("x", "repro:p", "y", disambiguate=False)
        kb.infer_with_rules([Rule([("?a", "repro:p", "?b")],
                                  [("?b", "repro:q", "?a")], name="invert")])
        assert ("y", "repro:q", "x") in kb.graph


class TestAnalysis:
    def test_analyze_numeric_table(self, kb):
        kb.ingest_csv_text("prices", "day,price\n0,10\n1,12\n2,14\n3,16\n")
        result = kb.analyze_numeric_table("prices", "day", "price",
                                          subject="C_x", entity_type="Company")
        assert result["slope"] == pytest.approx(2.0)
        assert ("C_x", REPRO.trend, "rising") in kb.graph
        kb.pipeline.infer()
        assert kb.pipeline.recommendations()["C_x"] == "investment-candidate"

    def test_nulls_skipped(self, kb):
        kb.ingest_csv_text("prices", "day,price\n0,10\n1,\n2,14\n3,16\n")
        result = kb.analyze_numeric_table("prices", "day", "price", subject="s")
        assert result["slope"] == pytest.approx(2.0, abs=0.2)


class TestPersistence:
    def test_snapshot_restore_roundtrip(self, kb):
        kb.add_fact("USA", "repro:visited", "true")
        kb.ingest_csv_text("readings", CSV_TEXT)
        kb.kv.put("note", "hello")
        snapshot = kb.snapshot()

        fresh = PersonalKnowledgeBase()
        fresh.restore(snapshot)
        assert ("Q30", "repro:visited", "true") in fresh.graph
        assert fresh.database.table("readings").select() == kb.database.table(
            "readings").select()
        assert fresh.kv.get("note") == "hello"

    def test_save_load_local_file(self, kb, tmp_path):
        kb.add_fact("USA", "repro:visited", "true")
        path = kb.save_local(tmp_path / "snap.json")
        fresh = PersonalKnowledgeBase()
        fresh.load_local(path)
        assert ("Q30", "repro:visited", "true") in fresh.graph

    def test_failed_save_leaves_previous_snapshot_loadable(
            self, kb, tmp_path, monkeypatch):
        kb.add_fact("USA", "repro:visited", "true")
        path = kb.save_local(tmp_path / "snap.json")
        kb.add_fact("x", "p", 1, disambiguate=False)
        real_open = io.open

        class DiskFull:
            """A file whose first write lands half its text, then fails."""

            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                self.handle.write(text[:len(text) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return DiskFull(handle) if "w" in mode else handle

        monkeypatch.setattr(io, "open", failing_open)
        with pytest.raises(OSError):
            kb.save_local(path)
        monkeypatch.undo()

        fresh = PersonalKnowledgeBase()
        fresh.load_local(path)
        assert ("Q30", "repro:visited", "true") in fresh.graph
        assert ("x", "p", 1) not in fresh.graph
        assert [entry.name for entry in tmp_path.iterdir()] == ["snap.json"]

    def test_data_dir_default_paths(self, client, tmp_path):
        kb = PersonalKnowledgeBase(client=client, data_dir=tmp_path / "kbdata")
        kb.add_fact("x", "p", 1, disambiguate=False)
        kb.save_local()
        fresh = PersonalKnowledgeBase(data_dir=tmp_path / "kbdata")
        fresh.load_local()
        assert ("x", "p", 1) in fresh.graph

    def test_no_remote_configured(self, kb):
        with pytest.raises(ConfigurationError):
            kb.backup_remote()

    def test_spellcheck_requires_checker(self, kb):
        with pytest.raises(ConfigurationError):
            kb.correct_text("helo")

    def test_turtle_export_import_roundtrip(self, kb, tmp_path):
        kb.add_fact("USA", "repro:visited", "true")
        kb.ingest_entity("US", sources=["dbpedia-sim"])
        path = tmp_path / "kb.ttl"
        text = kb.export_graph_turtle(path)
        assert path.read_text() == text
        assert "Q30" in text

        fresh = PersonalKnowledgeBase()
        added = fresh.import_graph_turtle(path)
        assert added == len(kb.graph)
        assert set(fresh.graph) == set(kb.graph)

    def test_turtle_import_from_inline_text(self, kb):
        added = kb.import_graph_turtle("home repro:rooms 5 .\n")
        assert added == 1
        assert ("home", "repro:rooms", 5) in kb.graph

    def test_restore_resets_pipeline_graph(self, kb):
        kb.add_fact("x", "p", 1, disambiguate=False)
        snapshot = kb.snapshot()
        fresh = PersonalKnowledgeBase()
        fresh.restore(snapshot)
        fresh.pipeline.analyze_series("s", [0, 1, 2], [1.0, 2.0, 3.0])
        assert fresh.pipeline.graph is fresh.graph
        assert len(fresh.graph) > 1
