"""Command line: one workload (the BENCHMARK.json contract) or the suite.

``--workload W`` runs one workload in this process and prints one JSON
object as the last line of standard output; that is the command
``BENCHMARK.json`` names.  Without ``--workload`` the whole suite runs,
each workload in a fresh subprocess of the same program, and the
collected results are printed as a table and written to
``results/BENCH_E2E.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import platform
import pstats
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import PACKAGE_DIR, RESULTS_DIR

RUN_SECONDS = 24
"""Default wall seconds per workload (``run_seconds`` in BENCHMARK.json)."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed: changes the generated inputs only")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="wall seconds per workload, set-ups included "
                             "(rounds repeat to fill it)")
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced run, per-layer metrics")
    parser.add_argument("--detail", action="store_true",
                        help="with --workload: print the full result object")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts, one round (whole suite < 15 s)")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add the traced run and per-layer metrics")
    parser.add_argument("--profile", action="store_true",
                        help="suite: add a cProfile run, top 20 by self time")
    parser.add_argument("--profile-out", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path,
                        default=RESULTS_DIR / "BENCH_E2E.json",
                        help="suite: where to write the results file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results files and exit")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.compare:
        from benchmarks.e2e.compare import compare_files

        return compare_files(Path(args.compare[0]), Path(args.compare[1]))
    try:
        import repro  # noqa: F401 — fail before any output without the source tree
    except ImportError as error:
        print(f"benchmarks.e2e: cannot import the program under test: {error}",
              file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args)
    return run_suite(args)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def run_one(args: argparse.Namespace) -> int:
    from benchmarks.e2e.harness import (
        END_TO_END, MIN_ROUNDS, BenchmarkError, run_rounds, summarize)
    from benchmarks.e2e.workloads import WORKLOADS, GuardError

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing feeds set / dict iteration order inside the
        # program; pin it so two runs of a seed do identical work.
        os.execve(sys.executable,
                  [sys.executable, str(PACKAGE_DIR / "run.py"), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    workload = WORKLOADS[args.workload]("smoke" if args.smoke else "full")
    seconds = 0.0 if args.smoke else args.seconds
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    try:
        if args.profile_out:
            return profile_one(workload, args.seed, Path(args.profile_out))
        if args.trace:
            from benchmarks.e2e.layers import PER_LAYER, traced_run

            result = traced_run(workload, args.seed)
            table, values = PER_LAYER, result["per_layer"]
        else:
            rounds = run_rounds(workload, args.seed, seconds, min_rounds)
            result = summarize(workload, args.seed, rounds)
            table = [entry for entry in END_TO_END if entry["gated"]]
            values = result["end_to_end"]
    except (GuardError, BenchmarkError) as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]} for entry in table}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    if args.detail:
        line["detail"] = result
    print(json.dumps(line))
    return 0


def profile_one(workload, seed: int, out: Path) -> int:
    """One round under cProfile; top 20 functions by self time."""
    from benchmarks.e2e.harness import run_round

    profiler = cProfile.Profile()
    profiler.enable()
    run_round(workload, seed)
    profiler.disable()
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(20)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text.getvalue())
    return 0


# ---------------------------------------------------------------------------
# The suite: one subprocess per workload
# ---------------------------------------------------------------------------

def environment(args: argparse.Namespace) -> dict:
    """The header recorded with every results file."""
    def git(*command: str) -> str:
        try:
            return subprocess.run(
                ["git", *command], cwd=PACKAGE_DIR, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git("rev-parse", "HEAD"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "PYTHONHASHSEED": "0",
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "smoke" if args.smoke else "full",
    }


def child(args: argparse.Namespace, workload: str, *extra: str) -> dict | None:
    """Run one workload in a fresh interpreter; parse its last line."""
    command = [sys.executable, str(PACKAGE_DIR / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *extra]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    if done.returncode != 0:
        print(f"{workload}: exit {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_suite(args: argparse.Namespace) -> int:
    from benchmarks.e2e.harness import END_TO_END
    from benchmarks.e2e.layers import PER_LAYER, layer_shares
    from benchmarks.e2e.workloads import WORKLOADS

    report = {"environment": environment(args), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        line = child(args, name, "--detail")
        if line is None:
            ok = False
            continue
        entry = line["detail"]
        ok = ok and line["correct"]
        print(f"\n== {name}: {entry['rounds']} round(s) x "
              f"{entry['ops_per_round']} ops, "
              f"{entry['samples_per_round']} timed samples per round, "
              f"{entry['failed']} failed of {entry['attempted']}")
        for metric in END_TO_END:
            value = entry["end_to_end"][metric["name"]]
            print(f"   {metric['name']:<20} {value:>14.6g} {metric['unit']}")
        print(f"   {'op_ms_p99':<20} {entry['op_ms_p99']:>14.6g} ms "
              "(diagnostic, not gated)")
        print(f"   answers_digest       {entry['answers_digest'][:16]}…")
        if args.traced:
            traced = child(args, name, "--trace", "1", "--detail")
            if traced is None:
                ok = False
            else:
                entry["per_layer"] = traced["detail"]["per_layer"]
                entry["layer_share"] = traced["detail"]["layer_share"]
                ok = ok and traced["correct"]
                print("   -- per-layer (traced run)")
                for metric in PER_LAYER:
                    value = entry["per_layer"][metric["name"]]
                    if value:
                        print(f"   {metric['name']:<44} {value:>12.6g} "
                              f"{metric['unit']}")
                top = layer_shares(entry["layer_share"])[:3]
                print("   top layers by self time: " + ", ".join(
                    f"{layer} {share:.1%}" for layer, share in top))
        if args.profile:
            target = RESULTS_DIR / f"profile.{name}.txt"
            if child(args, name, "--profile-out", str(target)) is None:
                ok = False
            else:
                print(f"   profile written to {target}")
        report["workloads"][name] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nresults written to {args.out}")
    if not ok:
        print("FAILED: a correctness check, guard or subprocess failed",
              file=sys.stderr)
    return 0 if ok else 1
