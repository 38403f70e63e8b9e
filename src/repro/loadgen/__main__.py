"""Command-line entry point: ``python -m repro.loadgen``.

Two modes:

* ``--smoke`` runs the end-to-end tenancy smoke checks against the
  real SDK stack (CI's tenancy job; exits non-zero on any failure);
* otherwise, drives one seeded tenant population through the real
  serving path on the virtual clock and prints its report (``--json``
  for the machine-readable form).

Same seed, same bytes — one virtual loop drives the clock, and every
random draw is seeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.loadgen.driver import DISCIPLINE_FAIR, DISCIPLINE_FIFO, LoadSpec, run_spec
from repro.loadgen.workload import Aggressor


def _parse_aggressor(text: str) -> Aggressor:
    """``RANK:MULTIPLIER`` (e.g. ``0:10``) -> :class:`Aggressor`."""
    try:
        rank_text, _, multiplier_text = text.partition(":")
        return Aggressor(rank=int(rank_text),
                         multiplier=float(multiplier_text or 10.0))
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"aggressor must look like RANK:MULTIPLIER, got {text!r}") from error


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="Deterministic multi-tenant load generation: drive "
                    "Zipf-skewed tenant populations through fair or FIFO "
                    "admission on the virtual clock, or smoke-test the "
                    "tenancy stack.")
    parser.add_argument("--smoke", action="store_true",
                        help="run the end-to-end tenancy smoke checks "
                             "(exits 1 on any failure)")
    parser.add_argument("--seed", type=int, default=7,
                        help="run seed (default: 7); same seed, same bytes")
    parser.add_argument("--tenants", type=int, default=100,
                        help="population size (default: 100)")
    parser.add_argument("--rate", type=float, default=65.0,
                        help="aggregate open-loop arrivals/s (default: 65; "
                             "the service takes ~110/s)")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="simulated seconds (default: 30)")
    parser.add_argument("--discipline",
                        choices=[DISCIPLINE_FAIR, DISCIPLINE_FIFO],
                        default=DISCIPLINE_FAIR,
                        help="queue discipline (default: fair)")
    parser.add_argument("--aggressor", action="append", default=[],
                        type=_parse_aggressor, metavar="RANK:MULT",
                        help="add a scripted aggressor tenant (repeatable), "
                             "e.g. 0:10 = rank-0 tenant at 10x its share")
    parser.add_argument("--zipf", type=float, default=1.0,
                        help="Zipf exponent for arrival skew (default: 1.0)")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report as JSON")
    args = parser.parse_args(argv)

    if args.smoke:
        from repro.loadgen.smoke import run_smoke

        return run_smoke(seed=args.seed)

    spec = LoadSpec(
        tenants=args.tenants,
        zipf_exponent=args.zipf,
        arrival_rate=args.rate,
        duration=args.duration,
        discipline=args.discipline,
        seed=args.seed,
        aggressors=tuple(args.aggressor),
    )
    report = run_spec(spec)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
