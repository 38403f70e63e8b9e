"""Script entry point: ``python3 benchmarks/e2e/run.py --workload W ...``.

The command ``BENCHMARK.json`` names.  Same program as
``python -m benchmarks.e2e``; it only puts the checkout's root on the
import path first, so it can be started by file name from a checkout
that is not installed.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# Started by file name, Python puts this directory first on the path;
# its modules are imported as benchmarks.e2e.*, never as top-level names.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != _HERE]
sys.path.insert(0, str(_HERE.parents[1]))

from benchmarks.e2e.cli import main  # noqa: E402 — needs the path set above

if __name__ == "__main__":
    sys.exit(main())
