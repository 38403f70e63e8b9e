"""Tests of the benchmark's own arithmetic and tooling.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (tier-1's
``testpaths = ["tests"]`` does not collect this file).
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.e2e import cli
from benchmarks.e2e.compare import compare, spread, verdict, worsening
from benchmarks.e2e.harness import (
    END_TO_END, fastest_steps, percentile, time_metrics)
from benchmarks.e2e.layers import PER_LAYER
from benchmarks.e2e.tracer import ROOT_SPAN, Tracer, self_times
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles -------------------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert percentile(samples, 0.50) == 50.0
    assert percentile(samples, 0.95) == 95.0
    assert percentile(samples, 0.99) == 99.0
    assert percentile([3.0, 1.0, 2.0], 0.50) == 2.0
    assert percentile([7.0], 0.95) == 7.0
    # 200 samples leave exactly ten beyond the 95th percentile.
    assert sum(1 for value in range(200)
               if value > percentile(list(range(200)), 0.95)) == 10
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_time_metrics_rest_on_each_steps_fastest_repeat():
    # Three rounds of the same four steps (ns); a different step is
    # disturbed in each round, and one round is slow throughout.
    rounds = [{"step_ns": [1_000_000, 9_000_000, 3_000_000, 4_000_000]},
              {"step_ns": [8_000_000, 2_000_000, 3_000_000, 4_000_000]},
              {"step_ns": [2_000_000, 4_000_000, 6_000_000, 8_000_000]}]
    best = fastest_steps(rounds)
    assert best == [1_000_000, 2_000_000, 3_000_000, 4_000_000]
    # A step of weight w is w ops and one sample, its time / w.
    metrics = time_metrics(best, [1, 1, 1, 2], completed=5)
    assert metrics["wall_s"] == pytest.approx(0.010)
    assert metrics["ops_per_s"] == pytest.approx(500.0)
    assert metrics["op_ms_p50"] == 2.0
    assert metrics["op_ms_p95"] == 3.0


# -- self time ---------------------------------------------------------------

def span(span_id, parent, name, start, end):
    return {"id": span_id, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end, "op": 0, "thread": "main"}


def test_self_time_subtracts_children_only():
    # op [0,100] -> invoke [10,90] -> cache.get [20,30], transport [40,80]
    #                                   transport -> engine [50,70]
    tree = [
        span(0, None, ROOT_SPAN, 0, 100),
        span(1, 0, "core.invoker:invoke", 10, 90),
        span(2, 1, "core.caching:get", 20, 30),
        span(3, 1, "simnet.transport:call", 40, 80),
        span(4, 3, "services.nlu:analyze", 50, 70),
    ]
    assert self_times(tree) == {
        ROOT_SPAN: 20, "core.invoker:invoke": 30, "core.caching:get": 10,
        "simnet.transport:call": 20, "services.nlu:analyze": 20}
    assert sum(self_times(tree).values()) == 100


def test_self_time_adds_repeated_names_and_siblings():
    tree = [
        span(0, None, ROOT_SPAN, 0, 50),
        span(1, 0, "stores.rdf.graph:match", 5, 15),
        span(2, 0, "stores.rdf.graph:match", 20, 45),
        span(3, 2, "stores.rdf.graph:match", 25, 30),
    ]
    assert self_times(tree) == {ROOT_SPAN: 15, "stores.rdf.graph:match": 35}


def test_tracer_totals_match_its_own_span_log():
    class Layered:
        def outer(self, depth):
            return sum(self.inner(index) for index in range(depth))

        def inner(self, value):
            return value * 2

    tracer = Tracer(span_ops=10)
    target = Layered()
    tracer.install(target, "inner", "layer.b:inner")
    tracer.install(target, "outer", "layer.a:outer")
    run = tracer.traced(target.outer, ROOT_SPAN)
    for op in range(3):
        tracer.begin_op(op)
        assert run(4) == 12
    tracer.uninstall()
    assert "outer" not in vars(target) and "inner" not in vars(target)
    totals = tracer.totals()["driver"]
    assert totals["calls"] == {ROOT_SPAN: 3, "layer.a:outer": 3,
                               "layer.b:inner": 12}
    records = tracer.span_records()
    assert totals["self_ns"] == self_times(records)
    roots = [record for record in records if record["parent"] is None]
    assert sum(totals["self_ns"].values()) == sum(
        record["end_ns"] - record["start_ns"] for record in roots)


def test_tracer_keeps_spans_for_early_ops_only():
    tracer = Tracer(span_ops=1)
    run = tracer.traced(lambda: None, ROOT_SPAN)
    for op in range(5):
        tracer.begin_op(op)
        run()
    assert len(tracer.span_records()) == 1
    assert tracer.totals()["driver"]["calls"][ROOT_SPAN] == 5


# -- --compare ---------------------------------------------------------------

def results(**overrides):
    end_to_end = {"setup_s": 1.0, "ops_per_s": 100.0, "op_ms_p50": 10.0,
                  "op_ms_p95": 20.0, "sim_s_per_op": 0.5,
                  "spend_usd_per_kop": 2.0, "failed_share": 0.0,
                  "peak_rss_mb": 80.0}
    end_to_end.update(overrides)
    steady = {name: [value, value * 1.01, value * 0.99]
              for name, value in end_to_end.items()
              if name in ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p95")}
    return {"environment": {"seed": 7, "size": "full"},
            "workloads": {"serve-hot": {"end_to_end": end_to_end,
                                        "per_round": steady,
                                        "answers_digest": "abc"}}}


METRICS = {metric["name"]: metric for metric in END_TO_END}


def test_worsening_follows_the_metric_direction():
    assert worsening(METRICS["ops_per_s"], 100.0, 80.0) == pytest.approx(0.2)
    assert worsening(METRICS["ops_per_s"], 100.0, 120.0) == pytest.approx(-0.2)
    assert worsening(METRICS["op_ms_p50"], 10.0, 12.0) == pytest.approx(0.2)
    assert worsening(METRICS["failed_share"], 0.0, 0.0) == 0.0
    assert worsening(METRICS["failed_share"], 0.0, 0.01) == float("inf")


def test_compare_same_results_is_ok():
    lines, bad = compare(results(), results())
    assert not bad
    assert all(line.endswith(("ok", "equal", "serve-hot")) for line in lines)


def test_compare_flags_each_kind_of_regression():
    for name, worse in (("ops_per_s", 70.0), ("op_ms_p95", 26.0),
                        ("sim_s_per_op", 0.51), ("failed_share", 0.001),
                        ("peak_rss_mb", 90.0)):
        base, new = results(), results(**{name: worse})
        entry = new["workloads"]["serve-hot"]
        assert verdict(METRICS[name], base["workloads"]["serve-hot"],
                       entry) == "regressed", name
        assert compare(base, new)[1]
    # Inside the bound, and better, are both fine.
    assert not compare(results(), results(ops_per_s=90.0, op_ms_p50=8.0))[1]


def test_compare_reports_wide_spread_as_unresolved():
    base, new = results(), results()
    noisy = new["workloads"]["serve-hot"]
    noisy["per_round"]["op_ms_p50"] = [8.0, 10.0, 13.0]
    assert spread(noisy["per_round"]["op_ms_p50"]) > METRICS["op_ms_p50"]["bound"]
    assert verdict(METRICS["op_ms_p50"], base["workloads"]["serve-hot"],
                   noisy) == "unresolved"
    assert not compare(base, new)[1]  # unresolved is reported, not failed
    # ... unless every round of B beats every round of A.
    noisy["per_round"]["op_ms_p50"] = [5.0, 6.5, 8.0]
    noisy["end_to_end"]["op_ms_p50"] = 6.5
    assert verdict(METRICS["op_ms_p50"], base["workloads"]["serve-hot"],
                   noisy) == "ok"


def test_compare_flags_a_changed_digest_for_the_same_seed():
    changed = results()
    changed["workloads"]["serve-hot"]["answers_digest"] = "xyz"
    lines, bad = compare(results(), changed)
    assert bad and any(line.endswith("changed") for line in lines)
    other_seed = copy.deepcopy(changed)
    other_seed["environment"]["seed"] = 8
    assert not compare(results(), other_seed)[1]


# -- the suite itself --------------------------------------------------------

def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in declared["workloads"]] == [
        name for name, workload in WORKLOADS.items()
        if workload.in_benchmark_json]
    assert declared["end_to_end"] == [
        {key: metric[key] for key in ("name", "unit", "better", "bound")}
        for metric in END_TO_END if metric["gated"]]
    assert declared["per_layer"] == [
        {key: metric[key] for key in ("name", "unit", "better")}
        for metric in PER_LAYER]
    assert declared["run_seconds"] == cli.RUN_SECONDS
    assert declared["paths"] == ["benchmarks/e2e"]


def test_smoke_suite_repeats_exactly(tmp_path, capsys):
    runs = []
    for attempt in ("a", "b"):
        out = tmp_path / f"{attempt}.json"
        assert cli.main(["--smoke", "--seed", "11", "--out", str(out)]) == 0
        runs.append(json.loads(out.read_text()))
    printed = capsys.readouterr().out
    for metric in END_TO_END:
        assert metric["name"] in printed
    first, second = (run["workloads"] for run in runs)
    assert list(first) == list(WORKLOADS)
    for name in WORKLOADS:
        assert first[name]["failed"] == 0
        for key in ("attempted", "ops_per_round", "counters", "answers_digest"):
            assert first[name][key] == second[name][key], (name, key)
        for key in ("sim_s_per_op", "spend_usd_per_kop", "failed_share"):
            assert (first[name]["end_to_end"][key]
                    == second[name]["end_to_end"][key]), (name, key)
    assert cli.main(["--compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) in (0, 1)
    assert "answers_digest     equal" in capsys.readouterr().out
