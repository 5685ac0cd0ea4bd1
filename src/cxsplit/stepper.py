"""Composition engine: apply a scheme to a problem one step at a time.

A step alternates B-kicks (frozen real time, complex duration) with
A-flows over real subintervals, projects onto the real axis after the full
step, and counts A-flow evaluations, which is the benchmark cost metric.
There is one engine: ``plan_step`` compiles a scheme once into a plan of
real nodes and durations (so the realness of its flow times is checked
once per plan, not per stage per step) and returns the step that runs it.
Strang is the STRANG_BAB plan with a CF2 flow, EXT4 the ``extrapolate`` of
its unprojected step.  ``freeze_convention`` sets where a CF2 flow freezes
A: at its midpoint, or at its start for "literal"; CF4 and exact ignore it.

Problem protocol: the engine reads three members of a problem.
``commuting`` says whether the A(t) commute (then CF4 fuses into one
exponential and the exact flow exists); ``a_frozen_exp(times, weights,
duration, state)`` applies exp(duration * sum_i weights_i A(times_i)), the
one A-kernel of CF2, CF4 and the exact flow; ``b_kick(t, tau, state)`` is
the B-flow frozen at real time t for a complex duration tau.  Both kernels
may return any state that the next kernel accepts (an ndarray, or the
oscillator's (q, p) tuple); the step makes the result an ndarray once,
after its last stage, before the finiteness check and the real projection.
A kernel that fails on non-finite or overflowing input raises StepFailed
(StepTooLarge is one) or one of KERNEL_ERRORS (``cmath`` raises ValueError
or OverflowError where numpy returns inf or nan), which the step turns
into StepFailed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import RealTimeViolation, StepFailed, ValidationError
from .propagators import cf2_step, cf4_step, exact_step
from .schemes import expand

REAL_TIME_TOL = 1e-12
KERNEL_ERRORS = (FloatingPointError, ZeroDivisionError, OverflowError, ValueError)
#: where a CF2 flow over [t0, t0 + h] freezes A, as a fraction of h
FREEZE_NODES = {"midpoint": 0.5, "literal": 0.0}


@dataclass
class State:
    values: np.ndarray
    t: float


@dataclass
class StepperConfig:
    scheme: object
    a_flow_kind: str = "cf4"        # "exact" | "cf2" | "cf4"
    project_real: bool = True
    freeze_convention: str = "midpoint"   # CF2 flows: "midpoint" | "literal"

    def __post_init__(self):
        if self.a_flow_kind not in ("exact", "cf2", "cf4"):
            raise ValidationError(f"unknown A-flow kind {self.a_flow_kind!r}")
        if self.freeze_convention not in FREEZE_NODES:
            raise ValidationError(f"unknown freeze convention {self.freeze_convention!r}")
        if not self.project_real and self.scheme.has_complex_b():
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


def a_flow(problem, kind, t0, h, values, record=None, node=0.5):
    """Advance the dominant part over [t0, t0 + h]; CF2 freezes A at t0 + node h."""
    kernel, commuting = problem.a_frozen_exp, problem.commuting
    if kind == "cf2":
        out = cf2_step(t0, h, values, kernel, node)
    elif kind == "cf4":
        out = cf4_step(t0, h, values, kernel, commuting)
    elif commuting:
        out = exact_step(t0, h, values, kernel)
    else:
        raise ValidationError(
            f"{type(problem).__name__} has no exact A-flow (use cf2 or cf4)")
    if record is not None:
        record.a_flow_evals += 1
        # a zero-duration flow calls no kernel; split CF4 calls two
        if h != 0.0:
            record.kernel_evals += 2 if kind == "cf4" and not commuting else 1
    return out


def compile_stages(seq):
    """Compile an expanded stage sequence into a plan: (role, c0, duration).

    A-flows carry a real start node and a real duration, B-kicks a real
    frozen node and their coefficient, a float if it is real (numpy's complex
    exp differs from its real exp in the last bit); all scale with h at run
    time.  Raises RealTimeViolation if a flow time has an imaginary part.
    """
    plan = []
    for stage in seq:
        if stage.role == "A":
            plan.append(("A", _real(stage.c0, "A-flow start node"),
                         _real(stage.coeff, "A-flow duration")))
        else:
            coeff = complex(stage.coeff)
            plan.append(("B", _real(stage.c0, "B-kick node"),
                         coeff.real if coeff.imag == 0.0 else coeff))
    return tuple(plan)


def plan_step(cfg):
    """Compile cfg.scheme once; return its map step_fn(problem, state, h, record)."""
    plan = compile_stages(expand(cfg.scheme))

    def step_fn(problem, state, h, record=None):
        return _run_stages(cfg, problem, state, h, plan, record)
    return step_fn


def step(cfg, problem, state, h, record=None):
    """One composition step of cfg.scheme from state.t to state.t + h."""
    return plan_step(cfg)(problem, state, h, record)


def _run_stages(cfg, problem, state, h, plan, record):
    """Apply a plan compiled by compile_stages once."""
    t_n, u = state.t, state.values
    kind, b_kick = cfg.a_flow_kind, problem.b_kick
    node = FREEZE_NODES[cfg.freeze_convention]
    for idx, (role, c0, dur) in enumerate(plan):
        try:
            if role == "A":
                u = a_flow(problem, kind, t_n + c0 * h, dur * h, u, record, node)
            else:
                u = b_kick(t_n + c0 * h, dur * h, u)
        except KERNEL_ERRORS as exc:
            raise StepFailed(str(exc), stage=idx) from exc
    return _finish(u, t_n + h, cfg.project_real)


def _finish(u, t, project_real):
    """The state after a step: an ndarray, finite, projected on request."""
    u = np.asarray(u, dtype=complex)
    # the kernels keep a non-finite state non-finite: one check per step
    if not np.all(np.isfinite(u)):
        raise StepFailed("non-finite state")
    if project_real:
        u = u.real.astype(complex)
    return State(u, t)


def extrapolate(step_fn):
    """Richardson extrapolation of a second-order unprojected step_fn.

    (4/3) S(h/2)S(h/2) - (1/3) S(h), projected onto the real axis: EXT4
    when step_fn is Strang (Blanes, Casas & Ros 1999).
    """
    def extrapolated(problem, state, h, record=None):
        half = step_fn(problem, state, 0.5 * h, record)
        half = step_fn(problem, half, 0.5 * h, record)
        whole = step_fn(problem, state, h, record)
        u = (4.0 / 3.0) * half.values - (1.0 / 3.0) * whole.values
        return _finish(u, state.t + h, True)
    return extrapolated


def integrate(cfg, problem, u0, t0, tf, n_steps, method_name=None):
    """n_steps composition steps over [t0, tf]; error_l2 is left to the bench."""
    return integrate_with(plan_step(cfg), problem, u0, t0, tf, n_steps,
                          method_name or cfg.scheme.name)


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
