"""Benchmark harness: method registry, error-vs-cost sweeps, slope fits."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InsufficientData, StepFailed
from .problems import REF_AGREE_TOL, make_problem, reference_solution, run_forked
from .schemes import Scheme, builtin_scheme, resolve_scheme
from .stepper import RunRecord, StepperConfig, extrapolate, integrate_with, plan_step

_CF4_ONLY = Scheme("cf4", "ABA", 0, (1.0,), (), 4, False)

#: method name -> (scheme, pinned A-flow kind or None, Richardson-extrapolated)
METHODS = {
    "strang": (builtin_scheme("STRANG_BAB"), "cf2", False),
    "ext4": (builtin_scheme("STRANG_BAB"), "cf2", True),
    "s62": (builtin_scheme("S62"), None, False),
    "sm4": (builtin_scheme("SM4"), None, False),
    "sm64": (builtin_scheme("SM64"), None, False),
    "cf4": (_CF4_ONLY, None, False),
}


#: A-flow stages per step, the cost unit of the efficiency comparisons; an
#: extrapolated step runs the plan three times: two half steps, one whole.
METHOD_STAGES = {name: scheme.n_a * (3 if ext else 1)
                 for name, (scheme, _, ext) in METHODS.items()}


def resolve_method(name, a_flow_kind="cf4", freeze_convention="midpoint"):
    """Map a method name, builtin scheme or scheme file to a one-step function."""
    scheme, pinned, ext = (METHODS.get(name.lower())
                           or (resolve_scheme(name)[0], None, False))
    cfg = StepperConfig(scheme, pinned or a_flow_kind, freeze_convention)
    return extrapolate(cfg) if ext else plan_step(cfg)


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

    def __post_init__(self):
        if not self.methods:
            raise ValueError("no methods")
        check_step_grid(self.n_steps_grid)


def run_point(problem, method, n_steps, reference, a_flow_kind="cf4",
              freeze_convention="midpoint"):
    """One (method, n_steps) benchmark point measured against the reference."""
    step_fn = resolve_method(method, a_flow_kind, freeze_convention)
    try:
        state, record = integrate_with(step_fn, problem, problem.u0(),
                                       problem.t0, problem.tf, n_steps, method)
        record.error_l2 = _norm(state.values.real - reference)
    except StepFailed:
        record = RunRecord(method=method, h=(problem.tf - problem.t0) / n_steps,
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

    Once the reference is ready, the points are dealt into one share per
    usable core; this process runs the first share and a forked child each
    other one, so a row's wall_time is the time in the process that ran it.
    """
    problem = make_problem(spec.problem, **spec.params)
    reference = reference_solution(problem, cache_dir=spec.cache_dir)

    def run(share):
        return [run_point(problem, method, n_steps, reference, spec.a_flow_kind,
                          spec.freeze_convention) for method, n_steps in share]

    points = [(method, n_steps) for method in spec.methods
              for n_steps in spec.n_steps_grid]
    first, *rest = _shares(points, min(len(points), len(os.sched_getaffinity(0))))
    shares = run_forked(f"{problem.key()}: a sweep share's process", partial(run, first),
                        *(partial(run, share) for share in rest))
    records = [record for share in shares for record in share]
    records.sort(key=lambda r: (r.method, r.n_steps))
    return records


def _shares(points, count):
    """Deal (method, n_steps) points into `count` shares of near-equal cost.

    Greedy, largest first: each point goes to the share with the least cost
    so far.  A point costs its A-flow stages, n_steps times its method's
    METHOD_STAGES, or n_steps for a scheme file or catalog name.
    """
    def cost(point):
        return METHOD_STAGES.get(point[0].lower(), 1) * point[1]

    shares, loads = [[] for _ in range(count)], [0] * count
    for point in sorted(points, key=cost, reverse=True):
        i = loads.index(min(loads))
        shares[i].append(point)
        loads[i] += cost(point)
    return shares


CSV_HEADER = "method,h,n_steps,a_flow_evals,kernel_evals,error_l2,wall_time,failed"


def records_to_csv(records):
    lines = [CSV_HEADER]
    for r in records:
        err = "nan" if r.failed or not math.isfinite(r.error_l2) else repr(r.error_l2)
        lines.append(f"{r.method},{r.h!r},{r.n_steps},{r.a_flow_evals},"
                     f"{r.kernel_evals},{err},{r.wall_time:.6f},{int(r.failed)}")
    return "\n".join(lines) + "\n"


def write_csv(records, path):
    with open(path, "w", newline="\n") as fh:
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


def self_converge(problem, method, n_steps_grid, refine=16, a_flow_kind="cf4",
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
    fine, _ = integrate_with(resolve_method(method, a_flow_kind, freeze_convention),
                             problem, problem.u0(), problem.t0, problem.tf,
                             max(n_steps_grid) * refine, method)
    records = [run_point(problem, method, n, fine.values.real, a_flow_kind,
                         freeze_convention) for n in n_steps_grid]
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
