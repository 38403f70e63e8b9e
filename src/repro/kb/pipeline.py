"""The Figure-5 pipeline: analyze data → store results as RDF → infer.

"One powerful way of using mathematical analysis is to store the key
mathematical results as RDF statements.  The RDF store has the ability
to perform inferencing on the statements ... Therefore, mathematical
analysis combined with inferencing on the RDF store can generate new
knowledge beyond that produced by just the mathematical analysis
itself."

:class:`AnalysisPipeline` regresses numeric series, writes the fitted
slope / r² / trend / forecast into the graph as statements, and runs a
user-extensible rulebase over them.  The default rulebase turns trends
into outlooks and outlooks plus type facts into recommendations — new
facts no single regression produced.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import nullcontext

from repro.analytics.regression import LinearRegression
from repro.analytics.timeseries import slope_trend
from repro.obs import names
from repro.stores.rdf.graph import Graph, RDF, REPRO, Triple
from repro.stores.rdf.rules import GenericRuleReasoner, Rule


def default_rules() -> list[Rule]:
    """The built-in trend → outlook → recommendation rulebase."""
    return [
        Rule(
            premises=[("?s", REPRO.trend, "rising")],
            conclusions=[("?s", REPRO.outlook, "positive")],
            name="rising-implies-positive-outlook",
        ),
        Rule(
            premises=[("?s", REPRO.trend, "falling")],
            conclusions=[("?s", REPRO.outlook, "negative")],
            name="falling-implies-negative-outlook",
        ),
        Rule(
            premises=[
                ("?s", REPRO.outlook, "positive"),
                ("?s", REPRO.goodness_of_fit, "strong"),
            ],
            conclusions=[("?s", REPRO.signal, "reliable-uptrend")],
            name="strong-fit-uptrend",
        ),
        Rule(
            premises=[
                ("?s", REPRO.signal, "reliable-uptrend"),
                ("?s", RDF.type, REPRO.Company),
            ],
            conclusions=[("?s", REPRO.recommendation, "investment-candidate")],
            name="uptrending-company-is-candidate",
        ),
        Rule(
            premises=[
                ("?s", REPRO.outlook, "negative"),
                ("?s", RDF.type, REPRO.Company),
            ],
            conclusions=[("?s", REPRO.recommendation, "watch-list")],
            name="downtrending-company-watchlist",
        ),
    ]


class AnalysisPipeline:
    """Regression over numeric data, materialized as RDF, then inferred.

    Inference is *incremental by default*: every statement written
    through :meth:`record` — the pipeline's own results and every write
    made through the knowledge-base facade — is remembered until the
    next :meth:`infer`, which runs the rulebase semi-naively over just
    that delta instead of rescanning the whole store.  The check is the
    graph's ``additions`` counter: when it has moved by exactly the
    recorded adds, nothing unseen can have new consequences.  An add
    the pipeline did not see (straight to the graph, another reasoner's
    derivations, a materialized view's) makes the next :meth:`infer` a
    full fixpoint, as does a backend without the counter; a removal
    never does — retracting facts creates no consequences (and retracts
    none).  Either way the adds end in the closure a full pass would
    reach, only cheaper.
    """

    def __init__(
        self,
        graph: Graph | None = None,
        rules: Sequence[Rule] | None = None,
        r_squared_strong: float = 0.5,
        trend_threshold: float = 0.0,
        obs=None,
    ) -> None:
        self.graph = graph if graph is not None else Graph()
        self.reasoner = GenericRuleReasoner(
            list(rules) if rules is not None else default_rules()
        )
        self.r_squared_strong = r_squared_strong
        self.trend_threshold = trend_threshold
        self.series_analyzed = 0
        self.last_infer_mode: str | None = None
        # Optional repro.obs.Observability: spans around each analysis
        # and inference run, plus fleet counters.
        if obs is not None and obs.enabled:
            self._tracer = obs.tracer
            self._metric_series = obs.metrics.counter(
                names.KB_SERIES_ANALYZED_TOTAL, "Series run through the analysis pipeline.")
            self._metric_facts = obs.metrics.counter(
                names.KB_FACTS_INFERRED_TOTAL, "New facts derived by the rulebase.")
            self._metric_infer_full = obs.metrics.counter(
                names.KB_INFER_FULL_TOTAL, "Full-fixpoint inference runs.")
            self._metric_infer_delta = obs.metrics.counter(
                names.KB_INFER_DELTA_TOTAL, "Incremental (delta) inference runs.")
        else:
            self._tracer = None
            self._metric_series = self._metric_facts = None
            self._metric_infer_full = self._metric_infer_delta = None

    @property
    def graph(self) -> Graph:
        """The graph analysis results are written to."""
        return self._graph

    @graph.setter
    def graph(self, graph: Graph) -> None:
        # Swapping the graph invalidates all incremental-inference
        # bookkeeping: start over with a mandatory full fixpoint.
        self._graph = graph
        # One entry per successful record() since the last infer().
        self._pending: list[Triple] = []
        # _counters() when the last infer() finished; None until a full
        # fixpoint ran over a graph that counts its additions.
        self._synced: tuple[int, int] | None = None

    def _counters(self) -> tuple[int, int] | None:
        """The graph's (additions, removals) so far; None when it does
        not count additions."""
        additions = getattr(self._graph, "additions", None)
        if additions is None:
            return None
        return additions, self._graph.version - additions

    def record(self, triple: Triple | tuple) -> bool:
        """Write one statement to the graph and into the next delta.

        Returns whether it was new.  Every write that goes through
        here keeps :meth:`infer` incremental; one that bypasses it
        costs the next :meth:`infer` a full pass, never an answer.
        """
        triple = Graph._coerce(triple)
        added = self._graph.add(triple)
        if added:
            self._pending.append(triple)
        return added

    def _span(self, name: str, attributes: dict):
        if self._tracer is None:
            return nullcontext()
        return self._tracer.span(name, attributes)

    def analyze_series(
        self,
        subject: str,
        xs: Sequence[float],
        ys: Sequence[float],
        series_name: str = "series",
        entity_type: str | None = None,
        deadline=None,
    ) -> dict:
        """Regress one series and store the key results as statements.

        Adds to the graph: slope, intercept, r², a discrete trend
        label, a goodness-of-fit label and a one-step forecast — the
        "key mathematical results" Figure 5 shows flowing into the RDF
        store.  Returns the numbers for the caller too.

        A ``deadline`` (:class:`repro.util.deadline.Deadline`) is
        checked *before* any statement is written: an out-of-budget
        analysis raises without half-materializing its results, so the
        graph never holds a partial series.  So does a fit that
        overflows: a non-finite slope, intercept, r² or forecast raises
        ``ValueError`` before anything is written.
        """
        if deadline is not None:
            deadline.check(f"analyze_series {subject}/{series_name}")
        with self._span(names.SPAN_KB_ANALYZE_SERIES,
                        {"subject": subject, "series": series_name}):
            return self._analyze_series(subject, xs, ys, series_name, entity_type)

    def _analyze_series(
        self,
        subject: str,
        xs: Sequence[float],
        ys: Sequence[float],
        series_name: str,
        entity_type: str | None,
    ) -> dict:
        model = LinearRegression(xs, ys)
        # One fit over the index: detect_trend's label and
        # linear_forecast's next point, without fitting it once each.
        by_index = LinearRegression(range(len(ys)), ys)
        trend = slope_trend(by_index.slope, self.trend_threshold)
        forecast = by_index.predict(len(ys))
        if not all(map(math.isfinite, (model.slope, model.intercept, model.r_squared,
                                       by_index.slope, forecast))):
            raise ValueError(f"analyze_series {subject}/{series_name}: "
                             "the fit is not finite")
        fit_label = "strong" if model.r_squared >= self.r_squared_strong else "weak"

        self.record(Triple(subject, REPRO.analyzed_series, series_name))
        self.record(Triple(subject, REPRO.slope, round(model.slope, 6)))
        self.record(Triple(subject, REPRO.intercept, round(model.intercept, 6)))
        self.record(Triple(subject, REPRO.r_squared, round(model.r_squared, 6)))
        self.record(Triple(subject, REPRO.trend, trend))
        self.record(Triple(subject, REPRO.goodness_of_fit, fit_label))
        self.record(Triple(subject, REPRO.forecast_next, round(forecast, 6)))
        if entity_type is not None:
            self.record(Triple(subject, RDF.type, REPRO(entity_type)))
        self.series_analyzed += 1
        if self._metric_series is not None:
            self._metric_series.inc()
        return {
            "subject": subject,
            "slope": model.slope,
            "intercept": model.intercept,
            "r_squared": model.r_squared,
            "trend": trend,
            "fit": fit_label,
            "forecast_next": forecast,
        }

    def infer(self, deadline=None) -> int:
        """Run the rulebase; returns newly derived facts.

        Incremental when possible: if a full fixpoint already ran and
        every triple added to the graph since then came through
        :meth:`record`, only that delta is re-derived
        (``last_infer_mode`` is set to ``"delta"``, else ``"full"``).
        Recorded statements removed again before this call are left
        out of the delta: nothing is derived from a retracted fact.

        A ``deadline`` is checked before the run starts; the pending
        delta stays intact when it raises, so a later in-budget
        :meth:`infer` still derives everything.
        """
        if deadline is not None:
            deadline.check("pipeline infer")
        counters = self._counters()
        incremental = (
            self._synced is not None
            and counters is not None
            and counters[0] == self._synced[0] + len(self._pending)
        )
        with self._span(names.SPAN_KB_INFER, {"series_analyzed": self.series_analyzed}) as span:
            if incremental:
                delta = self._pending
                if counters[1] != self._synced[1]:
                    # Something was removed since the last sync, maybe
                    # a recorded statement: the delta must be in the graph.
                    delta = [triple for triple in delta if triple in self.graph]
                derived = self.reasoner.forward_delta(self.graph, delta)
                self.last_infer_mode = "delta"
            else:
                derived = self.reasoner.forward(self.graph)
                self.last_infer_mode = "full"
            self._pending.clear()
            self._synced = self._counters()
            if span is not None:
                span.set_attribute("facts_derived", derived)
                span.set_attribute("mode", self.last_infer_mode)
        if self._metric_facts is not None and derived:
            self._metric_facts.inc(derived)
        metric_mode = (self._metric_infer_delta if self.last_infer_mode == "delta"
                       else self._metric_infer_full)
        if metric_mode is not None:
            metric_mode.inc()
        return derived

    def recommendations(self) -> dict[str, str]:
        """subject -> recommendation, from the inferred facts."""
        return {
            triple.subject: str(triple.object)
            for triple in self.graph.match(None, REPRO.recommendation, None)
        }

    def facts_about(self, subject: str) -> list[Triple]:
        return self.graph.match(subject, None, None)
