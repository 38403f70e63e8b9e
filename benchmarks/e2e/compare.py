"""``--compare A.json B.json``: is B no worse than A, metric by metric?

For every workload x end-to-end metric the two values are printed with
their ratio (base: A) and the metric's bound, and a verdict:

* ``regressed`` — B is worse than A by more than the bound;
* ``unresolved`` — not regressed, but the round-to-round spread inside
  either file is wider than the bound, so "unchanged" cannot be claimed
  (unless every round of B reads better than every round of A);
* ``ok`` — otherwise.

An ``answers_digest`` that differs between two runs of the same seed is
reported as ``changed``: the program's outputs moved.  Exit status is 1
when anything regressed or changed, else 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchmarks.e2e.harness import END_TO_END


def worsening(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base`` as a share of ``base``
    (negative = better).  A zero base can only be compared for equality."""
    delta = base - new if metric["better"] == "higher" else new - base
    if base == 0:
        return 0.0 if delta == 0 else float("inf") if delta > 0 else float("-inf")
    return delta / abs(base)


def spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 with too few values."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def verdict(metric: dict, base: dict, new: dict) -> str:
    """Classify one metric of one workload; see the module docstring."""
    name = metric["name"]
    worse = worsening(metric, base["end_to_end"][name], new["end_to_end"][name])
    if worse > metric["bound"]:
        return "regressed"
    base_rounds = base.get("per_round", {}).get(name, [])
    new_rounds = new.get("per_round", {}).get(name, [])
    if max(spread(base_rounds), spread(new_rounds)) > metric["bound"] > 0:
        lower = metric["better"] == "lower"
        clearly_better = bool(base_rounds and new_rounds) and (
            max(new_rounds) < min(base_rounds) if lower
            else min(new_rounds) > max(base_rounds))
        if not clearly_better:
            return "unresolved"
    return "ok"


def compare(base: dict, new: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything regressed or changed."""
    lines: list[str] = []
    bad = False
    same_seed = (base["environment"]["seed"] == new["environment"]["seed"]
                 and base["environment"]["size"] == new["environment"]["size"])
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            lines.append(f"{workload}: missing from B")
            bad = True
            continue
        lines.append(f"{workload}")
        for metric in END_TO_END:
            name = metric["name"]
            old, now = base_entry["end_to_end"][name], new_entry["end_to_end"][name]
            ratio = f"{now / old:.3f}x of A" if old else "n/a (A is 0)"
            outcome = verdict(metric, base_entry, new_entry)
            bad = bad or outcome == "regressed"
            lines.append(
                f"  {name:<18} A={old:<12.6g} B={now:<12.6g} {ratio:<16} "
                f"bound {metric['bound']:.1%} {metric['better']:<6} {outcome}")
        if same_seed:
            changed = base_entry["answers_digest"] != new_entry["answers_digest"]
            bad = bad or changed
            lines.append(f"  answers_digest     "
                         f"{'changed' if changed else 'equal'}")
    return lines, bad


def compare_files(base_path: Path, new_path: Path) -> int:
    lines, bad = compare(json.loads(base_path.read_text()),
                         json.loads(new_path.read_text()))
    print(f"A = {base_path}\nB = {new_path}")
    print("\n".join(lines))
    print("RESULT: " + ("regression or changed answers" if bad else "no regression"))
    return 1 if bad else 0
