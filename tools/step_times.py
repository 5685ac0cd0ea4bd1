"""Print the microseconds per step of each method on osc and the PDEs, each problem's oracle
times, and the designer's kick solve and a1 scan times.

    python tools/step_times.py [CHECKOUT] [--repeats R]

CHECKOUT (default: the checkout this file is in) is the source tree whose
``src/cxsplit`` runs.  For osc, every PDE grid size N
(``make_problem(name, n_grid=N)``) and every method of ``bench.METHODS``, a
run of ``integrate_with`` over [t0, tf] is timed R times (default 7), and
the line gives the fastest run's ``wall_time`` over its step count, and
beside it the time that run spent tabulating its time halves
(``stepper._tabulate``) over the same count.  The step counts keep each
run near 10 ms on one core.  Two more columns time runs of SHORT_STEPS
steps, the smallest sweep-osc grid point, where a run's set-up (the
tabulation of its first chunk) shows.  Then each oracle of each problem at
its defaults, ``_splitting_oracle`` (SM4, 2^16 steps) and
``_classical_oracle`` (RK4: 2^20 steps on osc, 6945 on the PDEs at N = 100),
is timed ORACLE_REPEATS times in this process, and its line gives the
fastest build in seconds.  Last come the designer's lines: the
fastest of R timings of SOLVES ``solve_b`` calls, in microseconds per call,
for each stage count of ``designer.STAGES`` (SM4's a1, else equal flows),
and of one ``scan_a1`` at each of SCAN_GRIDS points, in milliseconds, with
the count of one-design ``_scan_points`` calls the scan makes after its
grid; then of ``_scan_points`` on the 50-point scan grid, and of scoring
STACK seeded random 6-stage flows, from the flows array to each row's
Re(p_abaaa) (inf where no kick is usable), both in milliseconds, with the
count of rows scored finite.  Alternate two checkouts' runs to compare
them: the host's speed drifts.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
import timeit
from pathlib import Path

if __name__ == "__main__":      # the checkout to time, put first before cxsplit is imported
    ARGS = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ARGS.add_argument("checkout", nargs="?", default=Path(__file__).parent.parent, type=Path)
    ARGS.add_argument("--repeats", type=int, default=7)
    ARGS = ARGS.parse_args()
    sys.path.insert(0, str(ARGS.checkout.resolve() / "src"))

import numpy as np  # noqa: E402

from cxsplit import bench, designer, problems, stepper  # noqa: E402
from cxsplit.errors import StepFailed  # noqa: E402
from cxsplit.schemes import builtin_scheme  # noqa: E402
from cxsplit.stepper import integrate_with  # noqa: E402

#: PDE grid size -> steps per timed run
GRIDS = {100: 256, 1024: 64, 8192: 8}
#: problem -> {grid size, or None for osc: steps per timed run}
RUNS = {"osc": {None: 512}, "parabolic": GRIDS, "fisher": GRIDS}
SHORT_STEPS = 16
ORACLES = {"split": problems._splitting_oracle, "rk4": problems._classical_oracle}
ORACLE_REPEATS = 3
SOLVES = 200                 # solve_b calls per timing
SCAN_GRIDS = (50, 200)       # scan_a1 grid sizes
POINTS_CALLS = 20            # _scan_points calls per timing
STACK = 10 ** 4              # random 6-stage flows scored per timing


def us_per_step(name, n_grid, method, n_steps, repeats):
    """The fastest of `repeats` runs of method on a fresh problem: its microseconds per step,
    and those of its tabulation of the time halves (``stepper._tabulate``) per step."""
    problem = problems.make_problem(name, **({} if n_grid is None else {"n_grid": n_grid}))
    step_fn = bench.resolve_method(method, problem)
    tabulate, spent = stepper._tabulate, [0.0]

    def timed(*args):
        start = time.perf_counter()
        try:
            return tabulate(*args)
        finally:
            spent[0] += time.perf_counter() - start

    best = (float("inf"), 0.0)
    stepper._tabulate = timed       # the step functions read it at each call
    try:
        for _ in range(repeats):
            spent[0] = 0.0
            _, record = integrate_with(step_fn, problem.u0(), problem.t0, problem.tf,
                                       n_steps, method)
            best = min(best, (record.wall_time, spent[0]))
    finally:
        stepper._tabulate = tabulate
    return tuple(1e6 * s / n_steps for s in best)


def oracle_s(name, oracle, repeats):
    """The fastest of `repeats` builds of an oracle of problem `name`, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        oracle(problems.make_problem(name))
        best = min(best, time.perf_counter() - start)
    return best


def solve_us(stages, repeats):
    """The fastest of `repeats` timings of solve_b on a stages design, in microseconds per call."""
    fixed = (builtin_scheme("SM4").a[0],) if stages == 4 else (1.0 / stages,) * (stages // 2)
    problem = designer.DesignProblem(stages, fixed)
    return 1e6 * min(timeit.repeat(lambda: designer.solve_b(problem), number=SOLVES,
                                   repeat=repeats)) / SOLVES


def scan_ms(grid_points, repeats):
    """The fastest of `repeats` scans in milliseconds, and one scan's one-design solves."""
    scan_points, sizes = designer._scan_points, []

    def counted(a1s):
        sizes.append(len(a1s))
        return scan_points(a1s)

    designer._scan_points = counted
    try:
        designer.scan_a1(grid_points)
    finally:
        designer._scan_points = scan_points
    best = min(timeit.repeat(lambda: designer.scan_a1(grid_points), number=1, repeat=repeats))
    return 1e3 * best, sizes.count(1)


def points_ms(grid_points, repeats):
    """The fastest of `repeats` timings of _scan_points on a scan grid, in ms per call."""
    grid = np.linspace(designer.SCAN_MARGIN, 0.5 - designer.SCAN_MARGIN, grid_points)
    return 1e3 * min(timeit.repeat(lambda: designer._scan_points(grid), number=POINTS_CALLS,
                                   repeat=repeats)) / POINTS_CALLS


def stack_scores(flows):
    """Re(p_abaaa) of the 6-stage designs with reduced flows (B, 3), inf where no kick is
    usable: kick_nodes, then solve_stack."""
    solved = designer.solve_stack(designer.kick_nodes(flows))
    return np.where(solved.status == designer.SOLVED, solved.re_mu_4, np.inf)


def stack_ms(repeats):
    """The fastest of `repeats` scorings of STACK seeded random 6-stage flows in ms, and the
    count of rows scored finite."""
    weights = np.random.default_rng(0).uniform(0.02, 1.0, (STACK, 3))
    flows = weights / (2.0 * weights.sum(axis=1, keepdims=True))
    best = min(timeit.repeat(lambda: stack_scores(flows), number=1, repeat=repeats))
    return 1e3 * best, int(np.isfinite(stack_scores(flows)).sum())


def designer_lines(repeats):
    """Print the solve_b time of each stage count, each scan's time and solve count, the
    50-point _scan_points time and the 6-stage stack's scoring time."""
    for stages in designer.STAGES:
        print(f"designer solve_b stages={stages} {solve_us(stages, repeats):.1f} us", flush=True)
    for grid_points in SCAN_GRIDS:
        ms, solves = scan_ms(grid_points, repeats)
        print(f"designer scan_a1 grid_points={grid_points} {ms:.2f} ms "
              f"one_design_solves={solves}", flush=True)
    print(f"designer _scan_points grid_points={SCAN_GRIDS[0]} "
          f"{points_ms(SCAN_GRIDS[0], repeats):.3f} ms", flush=True)
    ms, finite = stack_ms(repeats)
    print(f"designer score stages=6 flows={STACK} {ms:.1f} ms finite={finite}", flush=True)


def main(args):
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"src {Path(bench.__file__).parent}")
    print(f"{'problem':<10} {'N':>5} {'method':<7} {'us_per_step':>12} {'tabulate_us':>12} "
          f"{f'at_n{SHORT_STEPS}':>12} {'tabulate_us':>12}")
    for name, grids in RUNS.items():
        for n_grid, n_steps in grids.items():
            for method in bench.METHODS:
                try:
                    cell = " ".join(f"{us:12.1f}" for n in (n_steps, SHORT_STEPS)
                                    for us in us_per_step(name, n_grid, method, n, args.repeats))
                except StepFailed as exc:
                    cell = f"failed: {exc}"
                print(f"{name:<10} {n_grid or '-':>5} {method:<7} {cell}", flush=True)
    for name in RUNS:
        for kind, oracle in ORACLES.items():
            print(f"{name} oracle {kind:<5} {oracle_s(name, oracle, ORACLE_REPEATS):.3f} s",
                  flush=True)
    designer_lines(args.repeats)


if __name__ == "__main__":
    main(ARGS)
