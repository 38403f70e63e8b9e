"""End-to-end benchmark: six real-seconds workloads and a per-layer trace.

Self-contained (stdlib plus the ``repro`` public API).  Entry points:

* ``python -m benchmarks.e2e --seed 7`` — the whole suite, one
  subprocess per workload, written to ``results/BENCH_E2E.json``;
* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, one JSON line (the ``BENCHMARK.json``
  command).

See ``README.md`` in this directory for the metric glossary.
"""

import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
RESULTS_DIR = PACKAGE_DIR / "results"
#: Scratch space for the durable workload; inside the checkout because
#: the benchmark may write nowhere else.
TMP_ROOT = PACKAGE_DIR / ".tmp"

# ``repro`` is not installed in the checkout the benchmark runs from; it
# is imported from the source tree next to this package.
_SRC = PACKAGE_DIR.parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
