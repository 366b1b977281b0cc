"""Regenerate the fault-injection golden records.

Writes ``tests/sim/golden_faults.json``: per-iteration makespans,
out-of-order counts and array digests of faulted engine runs (the
matrix is defined once, in ``tests/sim/test_faults_golden.py``, and
replayed by that test).

Regenerate ONLY when intentionally changing fault semantics::

    PYTHONPATH=src python benchmarks/make_faults_golden.py

and say so in the commit message (fault results feed committed
``results/fault_resilience*.csv`` artifacts and the sweep cache via the
plan's presence in cell keys).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from tests.sim.test_faults_golden import (  # noqa: E402
    GOLDEN_PATH,
    ITERATIONS,
    case_matrix,
    run_case,
)


def main() -> None:
    golden = [run_case(case) for case in case_matrix()]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"iterations_per_case": ITERATIONS, "cases": golden}, fh, indent=1)
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
