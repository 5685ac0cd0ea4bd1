"""Time one set-up of a workload in a fresh interpreter.

Set-up is what a user pays before the first result: the imports, problem
construction, and either a warm reference load (sweeps) or the creation of
an empty reference cache (reference-osc).  Run from the checkout root with
``src`` on PYTHONPATH:

    python3 perfbench/probe.py sweep CACHE_DIR PROBLEM...
    python3 perfbench/probe.py design
    python3 perfbench/probe.py reference CACHE_DIR

Prints the set-up seconds scaled to nominal speed (see speed.py).  The
probe may run on another core than the benchmark, so it times its own
calibration loop right before and after the set-up.  The loop is plain
Python because numpy is not imported yet.
"""

import math
import time

CALIBRATION_S = 0.005


def calibration():
    start = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += math.sin(i * 1e-3)
    return time.perf_counter() - start


BEFORE = min(calibration() for _ in range(3))
START = time.perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from cxsplit import cli, designer, problems  # noqa: E402,F401


def set_up(argv):
    kind = argv[0]
    if kind == "sweep":
        for name in argv[2:]:
            problems.reference_solution(problems.make_problem(name), cache_dir=argv[1])
    elif kind == "design":
        designer.DesignProblem(4, (0.125,))
        designer.DesignProblem(6, (1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0))
    elif kind == "reference":
        problems.make_problem("osc")
        cache = Path(argv[1])
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
    else:
        raise SystemExit(f"unknown probe {kind!r}")


if __name__ == "__main__":
    set_up(sys.argv[1:])
    seconds = time.perf_counter() - START
    after = min(calibration() for _ in range(3))
    print(repr(seconds * CALIBRATION_S / (0.5 * (BEFORE + after))))
