"""Golden fixtures for every chaos scenario: reports, metrics and ledgers.

The determinism tests in ``test_scenarios.py`` replay a seed twice in
one process, so they cannot see a scenario drift between commits.
These fixtures can: every scenario x seeds 7 and 11 x protections
on/off is pinned by its rendered report, its ``ScenarioResult.metrics``
and its call ledger (``ScenarioRun.calls``, plus the issued-request
count and stale ages), compared exactly.

A deliberate change to a scenario regenerates them with::

    PYTHONPATH=src python tests/chaos/test_golden.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.chaos.scenarios import SCENARIOS, run_scenario

GOLDEN = Path(__file__).with_name("golden")
SEEDS = (7, 11)
MODES = (True, False)


def fixture_path(seed: int, protections: bool) -> Path:
    mode = "on" if protections else "off"
    return GOLDEN / f"seed{seed}-protections-{mode}.json"


def capture(seed: int, protections: bool) -> dict:
    """Every scenario's report, metrics and call ledger, JSON-ready."""
    captured = {}
    for name in SCENARIOS:
        run = SCENARIOS[name](seed, protections)
        result = run_scenario(name, seed=seed, protections=protections)
        captured[name] = {
            "report": result.render().splitlines(),
            "metrics": result.metrics,
            "requests": run.requests,
            "stale_ages": run.stale_ages,
            "calls": [asdict(call) for call in run.calls],
        }
    return captured


def _as_json(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("protections", MODES,
                         ids=lambda on: "on" if on else "off")
@pytest.mark.parametrize("seed", SEEDS)
def test_scenarios_match_golden_fixture(seed, protections):
    expected = fixture_path(seed, protections).read_text()
    assert _as_json(capture(seed, protections)) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for seed in SEEDS:
        for protections in MODES:
            fixture_path(seed, protections).write_text(
                _as_json(capture(seed, protections)))
