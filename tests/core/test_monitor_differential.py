"""``ServiceMonitor`` against a list-filter model.

The model keeps every record it was ever given in one list per service
and answers each question by filtering and slicing that list: the
history is the last ``max_records`` records, and cache hits are a
count beside it that never touches the list.  Its aggregates spell out
the expressions the ranking and prediction layers have always been fed,
so everything is compared with ``==`` — a float that moves in the last
bit is a failure.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.stats import describe
from repro.core.monitoring import InvocationRecord, ServiceMonitor
from repro.core.ranking import ServiceRanker, Weights
from repro.stores.kvstore import InMemoryKeyValueStore

SERVICES = ("alpha", "beta", "gamma")


class ListFilterMonitor:
    """The specification: unbounded lists, filtered on every question."""

    def __init__(self, max_records):
        self.max_records = max_records
        self.everything = {}
        self.hits = {}
        self.ratings = {}

    def record(self, record):
        self.everything.setdefault(record.service, []).append(record)

    def record_hit(self, service):
        self.hits[service] = self.hits.get(service, 0) + 1

    def rate_quality(self, service, quality):
        self.ratings.setdefault(service, []).append(float(quality))

    def services(self):
        return sorted(set(self.everything) | set(self.hits))

    def records(self, service):
        return self.everything.get(service, [])[-self.max_records:]

    def hit_count(self, service):
        return self.hits.get(service, 0)

    def call_count(self, service):
        return len(self.records(service))

    def latencies(self, service):
        return [record.latency for record in self.records(service)
                if record.success and record.latency is not None]

    def mean_latency(self, service):
        values = self.latencies(service)
        return sum(values) / len(values) if values else None

    def latency_stats(self, service):
        values = self.latencies(service)
        return describe(values) if values else None

    def latency_observations(self, service, param):
        return [(float(record.latency_params[param]), record.latency)
                for record in self.records(service)
                if record.success and record.latency is not None
                and param in record.latency_params]

    def availability(self, service):
        history = self.records(service)
        if not history:
            return None
        return sum(1 for record in history if record.success) / len(history)

    def failure_count(self, service):
        return sum(1 for record in self.records(service) if not record.success)

    def mean_cost(self, service):
        history = [record for record in self.records(service) if record.success]
        if not history:
            return None
        return sum(record.cost for record in history) / len(history)

    def total_cost(self, service):
        return sum(record.cost for record in self.records(service))

    def mean_quality(self, service):
        ratings = [record.quality for record in self.records(service)
                   if record.quality is not None]
        ratings.extend(self.ratings.get(service, [])[-self.max_records:])
        if not ratings:
            return None
        return sum(ratings) / len(ratings)

    def summary(self, service):
        stats = self.latency_stats(service)
        return {
            "service": service,
            "calls": self.call_count(service),
            "availability": self.availability(service),
            "mean_latency": stats.mean if stats else None,
            "p95_latency": stats.p95 if stats else None,
            "mean_cost": self.mean_cost(service),
            "mean_quality": self.mean_quality(service),
        }


AGGREGATES = ("records", "call_count", "hit_count", "latencies",
              "mean_latency", "latency_stats", "availability",
              "failure_count", "mean_cost", "total_cost", "mean_quality",
              "summary")

# Drawn from short lists of floats whose sums depend on the order of
# addition (0.1 + 0.2 + 0.3), so a step costs Hypothesis a few bytes and
# a history can be long enough to overflow the bound.
latencies = st.sampled_from([0.013, 0.1, 0.137, 0.2, 0.3, 0.4571, 0.7, 1.1, 1.9])
costs = st.sampled_from([0.0, 0.0001, 0.0015, 0.003, 0.0107])
qualities = st.sampled_from([None, None, 0.1, 0.55, 0.7, 0.93])
params = st.sampled_from([{}, {"size": 10.0}, {"size": 250.0}, {"size": 1300.0},
                          {"size": 40.0, "words": 7.0}, {"words": 3.0}])
busy_services = st.sampled_from(("alpha",) * 4 + ("beta",) * 2 + ("gamma",))
kinds = st.sampled_from(["remote", "remote", "hit", "hit", "hit", "failed"])


@st.composite
def record_steps(draw):
    service, kind = draw(busy_services), draw(kinds)
    if kind == "hit":
        return ("hit", service)
    if kind == "failed":
        record = InvocationRecord(
            service, "op", 0.0, draw(st.none() | latencies), 0.0, False,
            error="boom", latency_params=draw(params))
    else:
        record = InvocationRecord(
            service, "op", 0.0, draw(latencies), draw(costs), True,
            latency_params=draw(params), quality=draw(qualities))
    return ("record", record)


rating_steps = st.tuples(st.just("rate"), st.sampled_from(SERVICES), latencies)
steps = st.one_of(*[record_steps()] * 5, rating_steps)
histories = st.sampled_from([4, 12, 25, 40, 60]).flatmap(
    lambda size: st.lists(steps, min_size=size, max_size=size))


def replay(history, max_records):
    monitor, model = ServiceMonitor(max_records), ListFilterMonitor(max_records)
    for at, step in enumerate(history):
        for target in (monitor, model):
            if step[0] == "rate":
                target.rate_quality(step[1], step[2])
            elif step[0] == "hit":
                target.record_hit(step[1])
            else:
                target.record(step[1])
        if at % 10 == 9:
            assert_same_answers(monitor, model)
    return monitor, model


def assert_same_answers(monitor, model):
    assert monitor.services() == model.services()
    for service in SERVICES + ("ghost",):
        for aggregate in AGGREGATES:
            assert getattr(monitor, aggregate)(service) == \
                getattr(model, aggregate)(service), aggregate
        for param in ("size", "words"):
            assert monitor.latency_observations(service, param) == \
                model.latency_observations(service, param)


@settings(max_examples=300, deadline=None)
@given(history=histories, max_records=st.sampled_from([1, 3, 8]),
       latency_params=st.none() | st.just({"size": 500.0}),
       formula=st.sampled_from(["weighted", "normalized"]),
       fallback=st.sampled_from(["mean", "median", "user"]))
def test_monitor_matches_the_model(history, max_records, latency_params,
                                   formula, fallback):
    monitor, model = replay(history, max_records)
    assert_same_answers(monitor, model)

    # What the answers feed: Eq. 1 / 2 over the three services.
    weights = Weights(response_time=1.0, cost=2.0, quality=0.5)
    ranked, expected = (
        ServiceRanker(source, fallback=fallback).rank(
            SERVICES, latency_params, formula, weights)
        for source in (monitor, model))
    assert ranked == expected

    # And a restart changes none of them.
    store = InMemoryKeyValueStore()
    monitor.save_to(store)
    restored = ServiceMonitor(max_records)
    restored.load_from(store)
    assert_same_answers(restored, model)
