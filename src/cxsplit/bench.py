"""Benchmark harness: method registry, error-vs-cost sweeps, slope fits."""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InsufficientData, StepFailed
from .problems import REF_AGREE_TOL, make_problem, reference_solution, run_forked
from .schemes import Scheme, builtin_scheme, resolve_scheme
from .stepper import RunRecord, StepperConfig, extrapolate, integrate_with, plan_step

_CF4_ONLY = Scheme("cf4", "ABA", (1.0,), (), 4, False)

#: method name -> its row: (scheme, pinned A-flow kind or None, Richardson-extrapolated)
METHODS = {
    "strang": (builtin_scheme("STRANG_BAB"), "cf2", False),
    "ext4": (builtin_scheme("STRANG_BAB"), "cf2", True),
    "s62": (builtin_scheme("S62"), None, False),
    "sm4": (builtin_scheme("SM4"), None, False),
    "sm64": (builtin_scheme("SM64"), None, False),
    "cf4": (_CF4_ONLY, None, False),
}


def method(name):
    """The METHODS row of a name, else the row (scheme, None, False) of a builtin or file."""
    return METHODS.get(name.lower()) or (resolve_scheme(name)[0], None, False)


def stages(row):
    """A-flow stages per step, the cost unit; an extrapolated step runs its plan thrice."""
    return row[0].n_a * (3 if row[2] else 1)


METHOD_STAGES = {name: stages(row) for name, row in METHODS.items()}


def _step(row, problem, a_flow_kind, freeze_convention):
    scheme, pinned, ext = row
    cfg = StepperConfig(scheme, pinned or a_flow_kind, freeze_convention)
    return extrapolate(cfg, problem) if ext else plan_step(cfg, problem)


def resolve_method(name, problem, a_flow_kind="cf4", freeze_convention="midpoint"):
    """The one-step map of a method name, builtin scheme or scheme file on problem."""
    return _step(method(name), problem, a_flow_kind, freeze_convention)


def check_step_grid(grid):
    """Return grid; ValueError unless it has step counts, all >= 1 and strictly increasing."""
    if not grid:
        raise ValueError("no step counts")
    if any(n < 1 for n in grid):
        raise ValueError("step counts must be >= 1")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("step counts must be strictly increasing")
    return grid


@dataclass
class SweepSpec:
    problem: str
    methods: list
    n_steps_grid: list
    params: dict = field(default_factory=dict)
    a_flow_kind: str = "cf4"
    freeze_convention: str = "midpoint"
    cache_dir: str | None = None
    rows: list = field(init=False)      # method(name) of each of methods, in order

    def __post_init__(self):
        if not self.methods:
            raise ValueError("no methods")
        check_step_grid(self.n_steps_grid)
        self.rows = [method(name) for name in self.methods]


def run_point(problem, name, n_steps, reference, step_fn):
    """One (method, n_steps) point, run by step_fn, measured against the reference."""
    try:
        state, record = integrate_with(step_fn, problem.u0(), problem.t0, problem.tf,
                                       n_steps, name)
        record.error_l2 = _norm(state.values.real - reference)
    except StepFailed:
        record = RunRecord(method=name, h=(problem.tf - problem.t0) / n_steps,
                           n_steps=n_steps, failed=True)
    return record


def _norm(x):
    """The 2-norm of x, rescaled by its largest |component| if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(x)
        if not math.isfinite(norm):
            scale = np.max(np.abs(x))
            norm = scale * np.linalg.norm(x / scale)
    return float(norm)


def sweep(spec):
    """Run the full method x n_steps grid; rows sorted by (method, n_steps).

    Compiling the steps for the problem, before the reference, checks their A-flows.
    The points go in one share per usable core: this process runs the first,
    a forked child each other one, so a row's wall_time is its process's.
    """
    problem = make_problem(spec.problem, **spec.params)
    steps = {name: _step(row, problem, spec.a_flow_kind, spec.freeze_convention)
             for name, row in zip(spec.methods, spec.rows)}
    reference = reference_solution(problem, cache_dir=spec.cache_dir)

    def run(share):
        return [run_point(problem, name, n_steps, reference, steps[name])
                for name, n_steps, _ in share]

    points = [(name, n, n * stages(row)) for name, row in zip(spec.methods, spec.rows)
              for n in spec.n_steps_grid]
    first, *rest = _shares(points, min(len(points), len(os.sched_getaffinity(0))))
    shares = run_forked(f"{problem.key()}: a sweep share's process", partial(run, first),
                        *(partial(run, share) for share in rest))
    return sorted((r for share in shares for r in share), key=lambda r: (r.method, r.n_steps))


def _shares(points, count):
    """Deal (method, n_steps, cost) points into `count` shares of near-equal cost:
    greedy, largest first, each point to the share with the least cost so far.
    A point costs its A-flow stages, n_steps times ``stages`` of its row."""
    shares, loads = [[] for _ in range(count)], [0] * count
    for point in sorted(points, key=lambda p: p[2], reverse=True):
        i = loads.index(min(loads))
        shares[i].append(point)
        loads[i] += point[2]
    return shares


CSV_HEADER = "method,h,n_steps,a_flow_evals,kernel_evals,error_l2,wall_time,failed"


def records_to_csv(records):
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    writer = csv.writer(out, lineterminator="\n")     # quotes a method name with a comma
    for r in records:
        err = "nan" if r.failed or not math.isfinite(r.error_l2) else repr(r.error_l2)
        writer.writerow((r.method, repr(r.h), r.n_steps, r.a_flow_evals, r.kernel_evals,
                         err, f"{r.wall_time:.6f}", int(r.failed)))
    return out.getvalue()


def write_csv(records, path):
    # surrogateescape writes a method name from an undecodable argv back as its bytes
    with open(path, "w", newline="\n", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(records_to_csv(records))


def fit_order(h_values, errors, floor=100.0 * REF_AGREE_TOL):
    """Least-squares slope of log(error) vs log(h), skipping noise-floor points."""
    pts = [(h, e) for h, e in zip(h_values, errors)
           if math.isfinite(e) and e > floor]
    if len(pts) < 3:
        raise InsufficientData(
            f"only {len(pts)} usable points above the error floor {floor:.1e}")
    log_h = np.log([p[0] for p in pts])
    log_e = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(log_h, log_e, 1)
    resid = float(np.sqrt(np.mean((np.polyval((slope, intercept), log_h) - log_e) ** 2)))
    return float(slope), resid


def self_converge(problem, name, n_steps_grid, refine=16, a_flow_kind="cf4",
                  freeze_convention="midpoint"):
    """Slope against a fine run of the same method (self-consistent reference).

    Removes the oracle's own error from the fit, which matters for schemes
    whose errors approach the oracle accuracy on the finest grids.  Returns
    (slope, errors); needs at least 3 grid points.  A failed grid point has
    a NaN error, which the fit skips.
    """
    if len(n_steps_grid) < 3:
        raise InsufficientData("need at least 3 grid points for a slope fit")
    check_step_grid(n_steps_grid)
    step_fn = resolve_method(name, problem, a_flow_kind, freeze_convention)
    fine, _ = integrate_with(step_fn, problem.u0(), problem.t0, problem.tf,
                             max(n_steps_grid) * refine, name)
    records = [run_point(problem, name, n, fine.values.real, step_fn) for n in n_steps_grid]
    errors = [r.error_l2 for r in records]
    slope, _ = fit_order([r.h for r in records], errors, floor=0.0)
    return slope, errors


def converge(spec):
    """Measured global convergence order of the one method of a sweep spec.

    Returns (slope, fit residual, records); needs at least 4 grid points.
    """
    if len(spec.methods) != 1:
        raise ValueError("converge needs a spec with exactly one method")
    if len(spec.n_steps_grid) < 4:
        raise InsufficientData("need at least 4 grid points for a slope fit")
    records = sweep(spec)
    slope, resid = fit_order([r.h for r in records],
                             [r.error_l2 for r in records])
    return slope, resid, records
