"""A17 — the gateway envelope and the ranking read, each timed alone.

``serve-hot`` (``benchmarks/e2e``) spent 58% of a warm hit in
``core.gateway`` and 18% in ``core.ranking``.  PR 20 made the text path
the one serving path (one ``json.loads`` and one ``json.dumps`` per
envelope where there were three of each) and gave ``ServiceMonitor`` a
remote-only history, so a ranking no longer copies and filters every
cache hit; since then a hit is only a count in the monitor.  Since then a warm ``invoke`` also
reuses the JSON text its cache entry keeps: the response is that text
spliced into the envelope, where the oracle runs ``json.dumps`` over the
whole value on every hit.  Two kernels:

* µs per warm ``handle_json`` envelope by response size, the serving
  gateway (one parse, the spliced hit) against the test-only oracle
  (``tests/core/reference_gateway.py``: the old bodies verbatim — three
  round trips and a whole-response dump) on twin worlds, responses
  byte-equal;
* µs per ``best_service`` envelope with 0 / 1,000 / 10,000 cache hits
  per candidate behind it, against the oracle gateway over a monitor
  that reads the way the old one did (one log, hits filtered out per
  question).  The new cost must not grow with the hits; the old one's
  growth is recorded, not asserted.  At 10,000 hits the old layout has
  also evicted every remote observation (``max_records`` is 10,000), so
  whether it still names the same service is recorded too.

Results land in ``benchmarks/results/BENCH_A17.json``.
"""

import json
import time
from collections import deque

from benchmarks._report import fmt_row, report, report_json
from repro import RichClient, build_world
from repro.core.gateway import SdkGateway
from repro.core.monitoring import ServiceMonitor
from tests.core.reference_gateway import ReferenceSdkGateway

SEED = 42
REPEATS = 7
ENVELOPES_PER_ROUND = 400
HIT_LADDER = (0, 1_000, 10_000)
NLU_PROVIDERS = ("lexica-prime", "glotta", "wordsmith-lite")

#: With the spliced hit: measured 1.90-1.93x (336-byte response) to
#: 4.35-4.68x (2.2 kB) over five runs on 2 cores — the larger the
#: value, the more the skipped encode was worth (one parse and one dump
#: alone read 1.71-1.76x to 2.19-2.41x).  Raised from 1.3x; still far
#: enough below the smallest response's reading for a noisy runner.
ENVELOPE_SPEEDUP_FLOOR = 1.5
#: New best_service at 10,000 hits per candidate / at none: measured
#: 0.80-1.06 over six runs (the oracle: 43-58x).
FLAT_WITHIN = 1.5


#: What a cache hit leaves in the oracle's log (the old monitor appended
#: a cached record there).
_HIT = object()


class SingleLogMonitor(ServiceMonitor):
    """Reads as the monitor did before PR 20: one bounded log per service
    holds remote calls and cache hits alike, and every question filters
    the hits out of it."""

    def __init__(self):
        super().__init__()
        self._log = {}

    def _log_entry(self, service, entry):
        with self._lock:
            log = self._log.get(service)
            if log is None:
                log = self._log[service] = deque(maxlen=self.max_records)
            log.append(entry)

    def record(self, record):
        super().record(record)
        self._log_entry(record.service, record)

    def record_hit(self, service):
        super().record_hit(service)
        self._log_entry(service, _HIT)

    def records(self, service):
        with self._lock:
            history = list(self._log.get(service, ()))
        return [entry for entry in history if entry is not _HIT]


def _gateway(gateway_type, monitor):
    world = build_world(seed=SEED, corpus_size=40)
    return gateway_type(RichClient(world.registry, monitor=monitor)), world


def _twins():
    """(new gateway, oracle gateway over the old monitor) on equal worlds."""
    new, world = _gateway(SdkGateway, ServiceMonitor())
    old, _ = _gateway(ReferenceSdkGateway, SingleLogMonitor())
    return new, old, world


def _close(*gateways):
    for gateway in gateways:
        gateway.client.close()


def _best_us(gateways, text):
    """Fastest round per gateway, µs per envelope; rounds take turns, so
    a slow stretch on the host lands on both alike."""
    best = [float("inf")] * len(gateways)
    for _ in range(REPEATS):
        for index, gateway in enumerate(gateways):
            serve = gateway.handle_json
            started = time.perf_counter()
            for _ in range(ENVELOPES_PER_ROUND):
                serve(text)
            best[index] = min(best[index], time.perf_counter() - started)
    return [seconds / ENVELOPES_PER_ROUND * 1e6 for seconds in best]


def _envelope(method, **params):
    return json.dumps({"method": method, "params": params})


def _warm_envelopes(world):
    """name -> invoke envelope, smallest response to largest."""
    document = max(world.corpus.documents, key=lambda doc: len(doc.text))
    sentence = document.text.split("\n")[1]
    return {
        "kb-lookup": _envelope("invoke", service="dbpedia-sim", operation="lookup",
                               payload={"entity": "IBM"}),
        "nlu-sentence": _envelope("invoke", service="glotta", operation="analyze",
                                  payload={"text": sentence}),
        "search-5": _envelope("invoke", service="goggle", operation="search",
                              payload={"query": document.title, "limit": 5}),
        "nlu-document": _envelope("invoke", service="lexica-prime",
                                  operation="analyze",
                                  payload={"text": document.text}),
    }


def _envelope_kernel():
    new, old, world = _twins()
    sizes = {}
    for name, text in _warm_envelopes(world).items():
        cold = new.handle_json(text)
        assert old.handle_json(text) == cold and json.loads(cold)["status"] == 200
        warm = new.handle_json(text)
        assert old.handle_json(text) == warm
        assert json.loads(warm)["result"]["cached"] is True
        new_us, old_us = _best_us((new, old), text)
        sizes[name] = {
            "request_bytes": len(text),
            "response_bytes": len(warm),
            "oracle_us": round(old_us, 2),
            "new_us": round(new_us, 2),
            "speedup_x": round(old_us / new_us, 2),
        }
    assert (new.requests_served, new.errors_returned) == (
        old.requests_served, old.errors_returned)
    _close(new, old)
    return sizes


def _ranking_kernel():
    new, old, world = _twins()
    documents = world.corpus.documents
    best_service = _envelope("best_service", kind="nlu")
    # A few real observations per candidate, then the hits pile up on one
    # warm request each — the serve-hot shape.
    for gateway in (new, old):
        for provider in NLU_PROVIDERS:
            for document in documents[:6]:
                gateway.client.invoke(provider, "analyze", {"text": document.text})
    ladder, hits_so_far = {}, 0
    for hits in HIT_LADDER:
        for gateway in (new, old):
            for provider in NLU_PROVIDERS:
                for _ in range(hits - hits_so_far):
                    gateway.client.invoke(provider, "analyze",
                                          {"text": documents[0].text})
        hits_so_far = hits
        answers = [gateway.handle_json(best_service) for gateway in (new, old)]
        new_us, old_us = _best_us((new, old), best_service)
        ladder[hits] = {
            "oracle_us": round(old_us, 2),
            "new_us": round(new_us, 2),
            "speedup_x": round(old_us / new_us, 2),
            "remote_observations": new.client.monitor.call_count(NLU_PROVIDERS[0]),
            "oracle_remote_observations":
                old.client.monitor.call_count(NLU_PROVIDERS[0]),
            "oracle_same_answer": answers[0] == answers[1],
        }
    _close(new, old)
    return ladder


def test_a17_gateway_ranking():
    sizes = _envelope_kernel()
    ladder = _ranking_kernel()

    for name, entry in sizes.items():
        assert entry["speedup_x"] >= ENVELOPE_SPEEDUP_FLOOR, (name, entry)
    flat = ladder[HIT_LADDER[-1]]["new_us"] / ladder[0]["new_us"]
    assert flat <= FLAT_WITHIN, ladder
    # Until the old layout overflows, the two must agree on the answer —
    # and the new one never loses an observation to a hit.
    assert ladder[0]["oracle_same_answer"] and ladder[1_000]["oracle_same_answer"]
    assert len({entry["remote_observations"] for entry in ladder.values()}) == 1

    widths = (13, 9, 10, 10, 8, 7)
    rows = [fmt_row("envelope", "req B", "resp B", "oracle us", "new us", "x",
                    widths=widths)]
    rows += [fmt_row(name, entry["request_bytes"], entry["response_bytes"],
                     entry["oracle_us"], entry["new_us"],
                     f'{entry["speedup_x"]}x', widths=widths)
             for name, entry in sizes.items()]
    widths = (13, 10, 8, 7, 14, 12)
    rows += ["", fmt_row("hits/service", "oracle us", "new us", "x",
                         "oracle remote", "same answer", widths=widths)]
    rows += [fmt_row(hits, entry["oracle_us"], entry["new_us"],
                     f'{entry["speedup_x"]}x',
                     entry["oracle_remote_observations"],
                     entry["oracle_same_answer"], widths=widths)
             for hits, entry in ladder.items()]
    report("A17", "gateway envelope and ranking read, oracle vs new "
           "(us per warm handle_json envelope)", [
               *rows,
               f"best of {REPEATS} alternating rounds of {ENVELOPES_PER_ROUND} "
               "envelopes; invoke responses byte-equal; best_service over "
               f"{len(NLU_PROVIDERS)} candidates, new at "
               f"{HIT_LADDER[-1]} hits = {flat:.2f}x new at 0",
           ])
    report_json("A17", {
        "seed": SEED,
        "repeats": REPEATS,
        "envelopes_per_round": ENVELOPES_PER_ROUND,
        "responses_byte_equal": True,
        "envelope_speedup_floor_x": ENVELOPE_SPEEDUP_FLOOR,
        "warm_invoke_by_response_size": sizes,
        "best_service_candidates": len(NLU_PROVIDERS),
        "best_service_flat_within_x": FLAT_WITHIN,
        "best_service_new_10k_over_0_x": round(flat, 2),
        "best_service_by_hits_per_candidate": {
            str(hits): entry for hits, entry in ladder.items()},
    })
