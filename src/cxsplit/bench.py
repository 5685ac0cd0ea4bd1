"""Benchmark harness: method registry, error-vs-cost sweeps, slope fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientData, NotInCatalog, StepFailed
from .problems import REF_AGREE_TOL, make_problem, reference_solution
from .schemes import Scheme, builtin_scheme, expand, load_scheme
from .stepper import (RunRecord, StepperConfig, _run_stages, compile_stages,
                      ext4_step, integrate_with, strang_step)

#: A-flow stages per step, the cost unit of the efficiency comparisons.
METHOD_STAGES = {
    "strang": 1, "s62": 3, "ext4": 3, "sm4": 4, "sm64": 6, "cf4": 1,
}

_CF4_ONLY = Scheme("cf4", "ABA", 0, (1.0,), (), 4, False)


def resolve_method(name, a_flow_kind="cf4", freeze_convention="midpoint"):
    """Map a method identifier (or scheme file path) to a one-step function.

    Returns (step_fn, a_stages_per_step).
    """
    key = name.lower()
    if key == "strang":
        def fn(problem, state, h, record):
            return strang_step(problem, state, h, freeze_convention, record)
        return fn, 1
    if key == "ext4":
        def fn(problem, state, h, record):
            return ext4_step(problem, state, h, freeze_convention, record)
        return fn, 3
    if key == "cf4":
        scheme = _CF4_ONLY
    else:
        try:
            scheme = builtin_scheme(name)
        except NotInCatalog:
            path = Path(name)
            if not path.exists():
                raise
            scheme = load_scheme(path.read_text())
    cfg = StepperConfig(scheme=scheme, a_flow_kind=a_flow_kind)
    plan = compile_stages(expand(scheme))
    n_a = sum(1 for role, _, _ in plan if role == "A")

    def fn(problem, state, h, record):
        return _run_stages(cfg, problem, state, h, plan, record)
    return fn, n_a


@dataclass
class SweepSpec:
    problem: str
    methods: list
    n_steps_grid: list
    params: dict = field(default_factory=dict)
    a_flow_kind: str = "cf4"
    freeze_convention: str = "midpoint"
    cache_dir: str | None = None
    out_path: str | None = None

    def __post_init__(self):
        grid = list(self.n_steps_grid)
        if grid != sorted(grid) or len(set(grid)) != len(grid):
            raise ValueError("n_steps grid must be strictly increasing")


def run_point(problem, method, n_steps, reference, a_flow_kind="cf4",
              freeze_convention="midpoint"):
    """One (method, n_steps) benchmark point measured against the reference."""
    step_fn, _ = resolve_method(method, a_flow_kind, freeze_convention)
    try:
        state, record = integrate_with(step_fn, problem, problem.u0(),
                                       problem.t0, problem.tf, n_steps, method)
        record.error_l2 = float(np.linalg.norm(state.values.real - reference))
    except StepFailed:
        record = RunRecord(method=method, h=(problem.tf - problem.t0) / n_steps,
                           n_steps=n_steps, failed=True)
    return record


def sweep(spec):
    """Run the full method x n_steps grid; rows sorted by (method, n_steps)."""
    problem = make_problem(spec.problem, **spec.params)
    reference = reference_solution(problem, cache_dir=spec.cache_dir)
    records = []
    for method in spec.methods:
        for n_steps in spec.n_steps_grid:
            records.append(run_point(problem, method, n_steps, reference,
                                     spec.a_flow_kind, spec.freeze_convention))
    records.sort(key=lambda r: (r.method, r.n_steps))
    return records


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
    (slope, errors); needs at least 3 grid points.
    """
    if len(n_steps_grid) < 3:
        raise InsufficientData("need at least 3 grid points for a slope fit")
    step_fn, _ = resolve_method(method, a_flow_kind, freeze_convention)
    n_fine = max(n_steps_grid) * refine
    fine, _ = integrate_with(step_fn, problem, problem.u0(), problem.t0,
                             problem.tf, n_fine, method)
    fine_real = fine.values.real
    h_values, errors = [], []
    for n in n_steps_grid:
        state, record = integrate_with(step_fn, problem, problem.u0(),
                                       problem.t0, problem.tf, n, method)
        h_values.append(record.h)
        errors.append(float(np.linalg.norm(state.values.real - fine_real)))
    slope = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])
    return slope, errors


def converge(problem_name, method, n_steps_grid, params=None, a_flow_kind="cf4",
             freeze_convention="midpoint", cache_dir=None):
    """Measured global convergence order of one method on one problem."""
    if len(n_steps_grid) < 4:
        raise InsufficientData("need at least 4 grid points for a slope fit")
    problem = make_problem(problem_name, **(params or {}))
    reference = reference_solution(problem, cache_dir=cache_dir)
    records = [run_point(problem, method, n, reference, a_flow_kind,
                         freeze_convention) for n in n_steps_grid]
    slope, resid = fit_order([r.h for r in records],
                             [r.error_l2 for r in records])
    return slope, resid, records
