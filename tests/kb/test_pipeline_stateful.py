"""Stateful test of delta inference through the PKB (ROADMAP item 4).

A :class:`~repro.kb.knowledge_base.PersonalKnowledgeBase` is written to
the ways its callers write to it — facade facts, analysed series, adds
straight to ``kb.graph``, removal of a whole subject (the benchmark's
removal shape), another reasoner's derivations — in any interleaving,
and after every ``infer()`` two things must hold:

* the store is exactly the closure of its own asserted facts under the
  default rulebase: a full pass over a copy adds nothing (no skipped
  derivation) and nothing was derived that the facts do not support;
* the pass was a ``"full"`` one exactly when an add the pipeline never
  saw happened since the previous ``infer()`` — so a removal alone
  never costs a full pass.

With a materialized view the view's own derivations are adds the
pipeline does not see, so only the closure half is checked there, and
only facade writes are used (a write past the view is not its contract).
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.kb.knowledge_base import PersonalKnowledgeBase
from repro.kb.pipeline import default_rules
from repro.stores.rdf.graph import Graph, RDF, RDFS, REPRO
from repro.stores.rdf.rules import GenericRuleReasoner

DAYS = [0, 1, 2, 3, 4]
SERIES = {
    "rising": [10.0, 12.1, 13.9, 16.2, 18.0],
    "falling": [18.0, 16.2, 13.9, 12.1, 10.0],
    "flat": [10.0, 10.0, 10.0, 10.0, 10.0],
}
SUBJECTS = st.sampled_from(["acme", "globex", "initech"])
#: What the default rulebase concludes; everything else is asserted.
DERIVED = {REPRO.outlook, REPRO.signal, REPRO.recommendation}
#: Asserted facts the rulebase joins on, a fact it ignores, and a schema
#: edge that gives ``kb.reason("rdfs")`` something to derive.
FACTS = st.sampled_from([
    (RDF.type, REPRO.Company),
    (RDF.type, REPRO.City),
    (REPRO.trend, "rising"),
    (REPRO.trend, "falling"),
    (REPRO.goodness_of_fit, "strong"),
    (REPRO.favorability, 0.5),
])
SCHEMA = (REPRO.Company, RDFS.subClassOf, REPRO.Organization)


class PipelineMachine(RuleBasedStateMachine):
    storage = "memory"
    materialized = False

    @initialize()
    def build(self):
        self.kb = PersonalKnowledgeBase(storage=self.storage)
        if self.materialized:
            self.kb.enable_materialization()
        # The first infer() is always a full pass.
        self.unseen_add = True

    def teardown(self):
        close = getattr(self.kb.graph, "close", None)
        if close is not None:
            close()

    @rule(subject=SUBJECTS, fact=FACTS)
    def add_fact(self, subject, fact):
        self.kb.add_fact(subject, *fact, disambiguate=False)

    @rule()
    def add_schema(self):
        self.kb.add_fact(*SCHEMA, disambiguate=False)

    @rule(subject=SUBJECTS, shape=st.sampled_from(sorted(SERIES)),
          entity_type=st.sampled_from([None, "Company"]))
    def analyze_series(self, subject, shape, entity_type):
        self.kb.pipeline.analyze_series(subject, DAYS, SERIES[shape],
                                        entity_type=entity_type)

    @precondition(lambda self: not self.materialized)
    @rule(subject=SUBJECTS, fact=FACTS)
    def add_past_the_pipeline(self, subject, fact):
        self.unseen_add |= self.kb.graph.add((subject, *fact))

    @precondition(lambda self: not self.materialized)
    @rule(subject=SUBJECTS)
    def remove_subject(self, subject):
        for triple in self.kb.graph.match(subject, None, None):
            self.kb.graph.remove(triple)

    @rule()
    def reason(self):
        self.unseen_add |= self.kb.reason("rdfs") > 0

    @rule()
    def infer(self):
        self.kb.pipeline.infer()
        asserted = Graph(triple for triple in self.kb.graph
                         if triple.predicate not in DERIVED)
        GenericRuleReasoner(default_rules()).forward(asserted)
        assert set(self.kb.graph) == set(asserted)
        if not self.materialized:
            assert self.kb.pipeline.last_infer_mode == (
                "full" if self.unseen_add else "delta")
        self.unseen_add = False


class SqlitePipelineMachine(PipelineMachine):
    storage = "sqlite"


class MaterializedPipelineMachine(PipelineMachine):
    materialized = True


TestPipelineOnDefaultStore = PipelineMachine.TestCase
TestPipelineOnDefaultStore.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None)
TestPipelineOnSqlite = SqlitePipelineMachine.TestCase
TestPipelineOnSqlite.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None)
TestPipelineWithMaterialization = MaterializedPipelineMachine.TestCase
TestPipelineWithMaterialization.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None)
