"""Composition engine: apply a scheme to a problem one step at a time.

A step alternates B-kicks (frozen real time, complex duration) with
A-flows over real subintervals, projects onto the real axis after the full
step, and counts A-flow evaluations, which is the benchmark cost metric.
A scheme is compiled once into a plan of real nodes and durations, so the
realness of its flow times is checked once per plan, not per stage per step.

Kernel contract: a problem's ``a_frozen_exp`` and ``b_kick`` may return any
state that its next kernel accepts (an ndarray, or the oscillator's (q, p)
tuple); the step makes the result an ndarray once, after its last stage,
before the finiteness check and the real projection.  A kernel that fails
on non-finite or overflowing input raises one of KERNEL_ERRORS (``cmath``
raises ValueError or OverflowError where numpy returns inf or nan), and the
step turns it into StepFailed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import RealTimeViolation, StepFailed, ValidationError
from .propagators import cf2_step, cf4_step
from .schemes import Stage, expand

REAL_TIME_TOL = 1e-12
KERNEL_ERRORS = (FloatingPointError, ZeroDivisionError, OverflowError, ValueError)


@dataclass
class State:
    values: np.ndarray
    t: float


@dataclass
class StepperConfig:
    scheme: object
    a_flow_kind: str = "cf4"        # "exact" | "cf2" | "cf4"
    project_real: bool = True
    freeze_convention: str = "midpoint"   # for Strang/EXT4: "midpoint" | "literal"

    def __post_init__(self):
        if self.a_flow_kind not in ("exact", "cf2", "cf4"):
            raise ValidationError(f"unknown A-flow kind {self.a_flow_kind!r}")
        if self.freeze_convention not in ("midpoint", "literal"):
            raise ValidationError(f"unknown freeze convention {self.freeze_convention!r}")
        if self.scheme is not None and not self.project_real and self.scheme.has_complex_b():
            raise ValidationError("complex-kick schemes require real projection")


@dataclass
class RunRecord:
    method: str = ""
    h: float = 0.0
    n_steps: int = 0
    a_flow_evals: int = 0
    kernel_evals: int = 0
    error_l2: float = float("nan")
    wall_time: float = 0.0
    failed: bool = False


def _real(value, what):
    z = complex(value)
    if abs(z.imag) > REAL_TIME_TOL:
        raise RealTimeViolation(f"{what} has imaginary part {z.imag:.3e}")
    return z.real


def a_flow(problem, kind, t0, h, values, record=None):
    """Advance the dominant part over the real interval [t0, t0 + h]."""
    commuting = getattr(problem, "commuting", False)
    if kind == "exact":
        out = problem.a_exact_flow(t0, h, values)
        kernels = 1
    elif kind == "cf2":
        out = cf2_step(t0, h, values, problem.a_frozen_exp)
        kernels = 1
    else:
        out = cf4_step(t0, h, values, problem.a_frozen_exp, commuting=commuting)
        kernels = 1 if (commuting or h == 0.0) else 2
    if record is not None:
        record.a_flow_evals += 1
        record.kernel_evals += kernels
    return out


def compile_stages(seq):
    """Compile an expanded stage sequence into a plan: (role, c0, duration).

    A-flows carry a real start node and a real duration, B-kicks a real
    frozen node and their complex coefficient; both are scaled by h at run
    time.  Raises RealTimeViolation if a flow time has an imaginary part.
    """
    plan = []
    for stage in seq:
        if stage.role == "A":
            plan.append(("A", _real(stage.c0, "A-flow start node"),
                         _real(stage.coeff, "A-flow duration")))
        else:
            plan.append(("B", _real(stage.c0, "B-kick node"), stage.coeff))
    return tuple(plan)


def step(cfg, problem, state, h, record=None):
    """One composition step of cfg.scheme from state.t to state.t + h."""
    return _run_stages(cfg, problem, state, h,
                       compile_stages(expand(cfg.scheme)), record)


def _run_stages(cfg, problem, state, h, plan, record):
    """Apply a compiled plan once; raw expand() output is compiled first."""
    if isinstance(plan[0], Stage):
        plan = compile_stages(plan)
    t_n = state.t
    u = state.values
    kind, b_kick = cfg.a_flow_kind, problem.b_kick
    for idx, (role, c0, dur) in enumerate(plan):
        try:
            if role == "A":
                u = a_flow(problem, kind, t_n + c0 * h, dur * h, u, record)
            else:
                u = b_kick(t_n + c0 * h, dur * h, u)
        except KERNEL_ERRORS as exc:
            raise StepFailed(str(exc), stage=idx) from exc
    u = np.asarray(u, dtype=complex)
    # the kernels keep a non-finite state non-finite: one check per step
    if not np.all(np.isfinite(u)):
        raise StepFailed("non-finite state")
    if cfg.project_real:
        u = u.real.astype(complex)
    return State(u, t_n + h)


def strang_step(problem, state, h, freeze_convention="midpoint", record=None,
                project_real=True):
    """Strang step with B frozen at the interval endpoints.

    The A-flow is a single frozen exponential: at the left endpoint for the
    literal convention, at the midpoint for the time-symmetric one.
    """
    t_n = state.t
    t_freeze = t_n if freeze_convention == "literal" else t_n + 0.5 * h
    try:
        u = problem.b_kick(t_n, 0.5 * h, state.values)
        u = problem.a_frozen_exp((t_freeze,), (1.0,), h, u)
        if record is not None:
            record.a_flow_evals += 1
            record.kernel_evals += 1
        u = problem.b_kick(t_n + h, 0.5 * h, u)
    except KERNEL_ERRORS as exc:
        raise StepFailed(str(exc)) from exc
    u = np.asarray(u, dtype=complex)
    if not np.all(np.isfinite(u)):
        raise StepFailed("non-finite state")
    if project_real:
        u = u.real.astype(complex)
    return State(u, t_n + h)


def ext4_step(problem, state, h, freeze_convention="midpoint", record=None):
    """Richardson extrapolation of Strang: (4/3) S(h/2)S(h/2) - (1/3) S(h)."""
    half = strang_step(problem, state, 0.5 * h, freeze_convention, record,
                       project_real=False)
    half = strang_step(problem, half, 0.5 * h, freeze_convention, record,
                       project_real=False)
    whole = strang_step(problem, state, h, freeze_convention, record,
                        project_real=False)
    u = (4.0 / 3.0) * half.values - (1.0 / 3.0) * whole.values
    if not np.all(np.isfinite(u)):
        raise StepFailed("non-finite state")
    return State(u.real.astype(complex), state.t + h)


def integrate(cfg, problem, u0, t0, tf, n_steps, method_name=None):
    """n_steps composition steps over [t0, tf]; error_l2 is left to the bench."""
    plan = compile_stages(expand(cfg.scheme))
    name = method_name or cfg.scheme.name
    return integrate_with(
        lambda prob, st, h, rec: _run_stages(cfg, prob, st, h, plan, rec),
        problem, u0, t0, tf, n_steps, name)


def integrate_with(step_fn, problem, u0, t0, tf, n_steps, method_name):
    """Drive an arbitrary one-step map and fill the run record."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = (tf - t0) / n_steps
    record = RunRecord(method=method_name, h=h, n_steps=n_steps)
    state = State(np.asarray(u0, dtype=complex), t0)
    start = time.perf_counter()
    for _ in range(n_steps):
        state = step_fn(problem, state, h, record)
    record.wall_time = time.perf_counter() - start
    return state, record
