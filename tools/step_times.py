"""Print the microseconds per step of each method on osc and the PDEs, and the osc oracles' times.

    python tools/step_times.py [CHECKOUT] [--repeats R]

CHECKOUT (default: the checkout this file is in) is the source tree whose
``src/cxsplit`` runs.  For osc, every PDE grid size N
(``make_problem(name, n_grid=N)``) and every method of ``bench.METHODS``, a
run of ``integrate_with`` over [t0, tf] is timed R times (default 7), and
the line gives the fastest run's ``wall_time`` over its step count.  The
step counts keep each run near 10 ms on one core.  Then each osc oracle,
``_splitting_oracle`` (SM4, 2^16 steps) and ``_classical_oracle`` (RK4,
2^20 steps), is timed ORACLE_REPEATS times in this process, and its line
gives the fastest build in seconds.  Alternate two checkouts' runs to
compare them: the host's speed drifts.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from pathlib import Path

if __name__ == "__main__":      # the checkout to time, put first before cxsplit is imported
    ARGS = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ARGS.add_argument("checkout", nargs="?", default=Path(__file__).parent.parent, type=Path)
    ARGS.add_argument("--repeats", type=int, default=7)
    ARGS = ARGS.parse_args()
    sys.path.insert(0, str(ARGS.checkout.resolve() / "src"))

import numpy as np  # noqa: E402

from cxsplit import bench, problems  # noqa: E402
from cxsplit.errors import StepFailed  # noqa: E402
from cxsplit.stepper import integrate_with  # noqa: E402

#: PDE grid size -> steps per timed run
GRIDS = {100: 256, 1024: 64, 8192: 8}
#: problem -> {grid size, or None for osc: steps per timed run}
RUNS = {"osc": {None: 512}, "parabolic": GRIDS, "fisher": GRIDS}
ORACLES = {"split": problems._splitting_oracle, "rk4": problems._classical_oracle}
ORACLE_REPEATS = 3


def us_per_step(name, n_grid, method, n_steps, repeats):
    """The fastest of `repeats` runs of method on a fresh problem, in microseconds per step."""
    problem = problems.make_problem(name, **({} if n_grid is None else {"n_grid": n_grid}))
    step_fn = bench.resolve_method(method, problem)
    best = float("inf")
    for _ in range(repeats):
        _, record = integrate_with(step_fn, problem.u0(), problem.t0, problem.tf,
                                   n_steps, method)
        best = min(best, record.wall_time)
    return 1e6 * best / n_steps


def oracle_s(oracle, repeats):
    """The fastest of `repeats` builds of an osc oracle, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        oracle(problems.make_problem("osc"))
        best = min(best, time.perf_counter() - start)
    return best


def main(args):
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"src {Path(bench.__file__).parent}")
    print(f"{'problem':<10} {'N':>5} {'method':<7} {'us_per_step':>12}")
    for name, grids in RUNS.items():
        for n_grid, n_steps in grids.items():
            for method in bench.METHODS:
                try:
                    cell = f"{us_per_step(name, n_grid, method, n_steps, args.repeats):12.1f}"
                except StepFailed as exc:
                    cell = f"failed: {exc}"
                print(f"{name:<10} {n_grid or '-':>5} {method:<7} {cell}", flush=True)
    for kind, oracle in ORACLES.items():
        print(f"osc oracle {kind:<5} {oracle_s(oracle, ORACLE_REPEATS):.3f} s", flush=True)


if __name__ == "__main__":
    main(ARGS)
