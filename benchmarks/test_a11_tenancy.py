"""A11 — multi-tenant fairness under an aggressor (extension).

A 100-tenant Zipf population offers background load at about 60% of
the service's capacity while the most popular tenant floods it at 10x
its natural share.  The same seeded arrival schedule is played through
the shipped serving path (``client.aio`` behind a ``Tenancy`` and the
``geosphere`` bulkhead, :data:`repro.loadgen.driver.LIMIT`) with
weighted-fair admission — DRR grants plus longest-queue push-out —
and with a FIFO bulkhead as the control.  Measured per discipline: a
well-behaved *victim* tenant's p99 latency (against its no-aggressor
baseline), overall shed rate, and Jain's fairness index over delivered
fractions.  The victim is rank 2, which offers 110 requests in the 30
simulated seconds at seed 11, so its p99 is a percentile rather than
its slowest call.

Fair admission keeps the victim's p99 within 2x its solo baseline and
the Jain index >= 0.9; the FIFO control is demonstrably unfair — the
victim queues behind the flood (p99 past 2x) and is shed at
double-digit rates.  Results are persisted machine-readably as
``benchmarks/results/BENCH_A11.json``.
"""

from benchmarks._report import fmt_row, report, report_json
from repro.loadgen import Aggressor, LoadSpec, run_spec
from repro.loadgen.driver import LIMIT

SEED = 11
TENANTS = 100
ARRIVAL_RATE = 65.0
DURATION = 30.0
VICTIM_RANK = 2
VICTIM = f"t{VICTIM_RANK:05d}"
AGGRESSOR = Aggressor(rank=0, multiplier=10.0)


def _spec(discipline: str, aggressors: tuple = ()) -> LoadSpec:
    return LoadSpec(tenants=TENANTS, arrival_rate=ARRIVAL_RATE,
                    duration=DURATION, seed=SEED, discipline=discipline,
                    aggressors=aggressors)


def test_fair_scheduling_protects_victims_from_an_aggressor():
    baseline = run_spec(_spec("fair"))
    fair = run_spec(_spec("fair", (AGGRESSOR,)))
    fifo = run_spec(_spec("fifo", (AGGRESSOR,)))

    victim_base_p99 = baseline.tenant(VICTIM).latency_percentile(0.99)
    victim_fair = fair.tenant(VICTIM)
    victim_fifo = fifo.tenant(VICTIM)
    assert baseline.tenant(VICTIM).arrivals >= 100

    rows = [fmt_row("run", "arrivals", "shed rate", "jain",
                    "victim p99 (s)", "vs baseline")]
    for label, run, victim in (("fair, no aggressor", baseline,
                                baseline.tenant(VICTIM)),
                               ("fair, 10x aggressor", fair, victim_fair),
                               ("fifo, 10x aggressor", fifo, victim_fifo)):
        p99 = victim.latency_percentile(0.99)
        rows.append(fmt_row(label, run.total_arrivals,
                            run.shed_rate, run.fairness(), p99,
                            p99 / victim_base_p99))
    rows.append(fmt_row("victim shed rate (fair vs fifo)",
                        victim_fair.shed_rate, victim_fifo.shed_rate,
                        widths=(30, 18, 18)))
    report("A11.tenancy",
           f"{TENANTS} Zipf tenants, rank-0 aggressor at 10x, victim "
           f"{VICTIM} (seed={SEED})",
           rows)

    report_json("A11", {
        "experiment": "A11.tenancy",
        "seed": SEED,
        "spec": {"tenants": TENANTS, "arrival_rate": ARRIVAL_RATE,
                 "duration": DURATION, "aggressor_rank": AGGRESSOR.rank,
                 "aggressor_multiplier": AGGRESSOR.multiplier,
                 "victim": VICTIM,
                 "victim_arrivals": baseline.tenant(VICTIM).arrivals,
                 "limit": {"max_concurrent": LIMIT.max_concurrent,
                           "max_queue": LIMIT.max_queue,
                           "queue_timeout": LIMIT.queue_timeout}},
        "victim": {
            "baseline_p99": round(victim_base_p99, 6),
            "fair_p99": round(victim_fair.latency_percentile(0.99), 6),
            "fifo_p99": round(victim_fifo.latency_percentile(0.99), 6),
            "fair_shed_rate": round(victim_fair.shed_rate, 6),
            "fifo_shed_rate": round(victim_fifo.shed_rate, 6),
        },
        "runs": {
            "fair_baseline": baseline.to_dict(),
            "fair_aggressor": fair.to_dict(),
            "fifo_aggressor": fifo.to_dict(),
        },
    })

    # Acceptance: fair scheduling bounds the victim's p99 at 2x its
    # solo baseline and keeps the population's Jain index >= 0.9.
    assert victim_fair.latency_percentile(0.99) <= 2.0 * victim_base_p99
    assert fair.fairness() >= 0.9

    # The FIFO control is demonstrably unfair: the victim queues behind
    # the flood and is shed at double-digit rates.
    assert victim_fifo.latency_percentile(0.99) > 2.0 * victim_base_p99
    assert victim_fifo.shed_rate > 10 * max(victim_fair.shed_rate, 0.005)


def test_weighted_shares_divide_saturated_capacity():
    """Backlogged tenants complete work proportionally to their weights."""
    weights = {0: 4.0, 1: 2.0, 2: 1.0, 3: 1.0}
    # 250 requests/s each, over twice the service's whole capacity.
    run = run_spec(LoadSpec(tenants=4, zipf_exponent=0.0,
                            arrival_rate=1_000.0, duration=10.0,
                            seed=SEED, discipline="fair", weights=weights))
    completions = {rank: run.tenant(f"t{rank:05d}").completions
                   for rank in weights}
    unit = completions[2]

    rows = [fmt_row("tenant", "weight", "completions", "vs weight-1")]
    for rank, weight in weights.items():
        rows.append(fmt_row(f"t{rank:05d}", weight, completions[rank],
                            completions[rank] / unit))
    report("A11.weighted",
           f"4 saturated tenants at weights 4:2:1:1 (seed={SEED})", rows)

    # Each tenant's goodput tracks its declared weight within 15%.
    for rank, weight in weights.items():
        assert abs(completions[rank] / unit - weight) <= 0.15 * weight
