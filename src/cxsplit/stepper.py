"""Composition engine: apply a scheme to a problem one step at a time.

A step alternates B-kicks (frozen real time, complex duration) with A-flows
over real subintervals, projects onto the real axis after the full step
(the projection is part of the method), and counts A-flow evaluations, the
benchmark cost metric.  ``plan_step`` compiles a scheme for the problem
its step runs on into a plan of one row per stage: the flow times are
checked real and the A-flow is one that the problem has (``a_flow``), so
compiling is the check.  A row (c0, d, flow) spans [t0, t0 + tau] with
t0 = t_n + c0 h and tau = d h: a B-kick (flow None) is frozen at t0; an
A-flow makes the kernel calls of its ``propagators.A_FLOWS`` flow at the
times t0 + o tau, formed once per flow, each call for factor * tau.
Strang is the STRANG_BAB plan with a CF2 flow; EXT4, its ``extrapolate``,
runs the plan three times and combines the unprojected results.  A
compiled step maps the kernels' own state, step(u, t_n, h, record) -> u:
the stage runner ``_run_stages`` returns the state as the kernels hand it
back, and ``_finish``, once per public step, checks it finite and projects
it in its own type (a tuple onto floats; a float64 array is already real).
``integrate_with`` makes a run's one complex ndarray ``State`` after its
last step.  A zero-duration flow calls no kernel but counts in
``a_flow_evals``.  A run adds its counts to the record once: on a failure,
those of the stages before the failing one.

Problem protocol: ``commuting`` (the A(t) commute: CF4 fuses into one
exponential, and the exact flow exists); ``a_frozen_exp(times, weights,
duration, state)``, exp(duration * sum_i weights_i A(times_i)); and
``b_kick(t, tau, state)``, the B-flow frozen at real time t for a complex
duration tau.  The kernels may hand back any state that the next kernel
accepts, real until a complex kick: the PDEs' float64 array, which a
complex kick makes a complex ndarray, or the oscillator's (q, p) tuple of
floats, which it makes complex numbers.  The state passes unchanged
through the stages, EXT4's runs and combination and the finish to the next
step.  Kernels keep a non-finite state non-finite, so the one check catches
every stage.  A kernel that fails raises StepFailed (StepTooLarge is one)
or one of KERNEL_ERRORS (``math`` and ``cmath`` raise ValueError or
OverflowError where numpy returns inf or nan), which the step turns into
StepFailed.
"""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass

import numpy as np

from .errors import RealTimeViolation, StepFailed, ValidationError
from .propagators import A_FLOWS, FREEZE, REAL_DTYPE
from .schemes import expand

REAL_TIME_TOL = 1e-12
KERNEL_ERRORS = (FloatingPointError, ZeroDivisionError, OverflowError, ValueError)
#: the A-flow approximations, in the order the command line lists them
A_FLOW_KINDS = tuple(A_FLOWS)
#: where a CF2 flow over [t0, t0 + h] freezes A, as a fraction of h
FREEZE_NODES = {"midpoint": 0.5, "literal": 0.0}


@dataclass
class State:
    values: np.ndarray
    t: float


@dataclass
class StepperConfig:
    scheme: object
    a_flow_kind: str = "cf4"        # one of A_FLOW_KINDS
    freeze_convention: str = "midpoint"   # CF2 flows: a key of FREEZE_NODES

    def __post_init__(self):
        if self.a_flow_kind not in A_FLOW_KINDS:
            raise ValidationError(f"unknown A-flow kind {self.a_flow_kind!r}")
        if self.freeze_convention not in FREEZE_NODES:
            raise ValidationError(f"unknown freeze convention {self.freeze_convention!r}")


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
    if not abs(z.imag) <= REAL_TIME_TOL:     # a NaN imaginary part is not real either
        raise RealTimeViolation(f"{what} has imaginary part {z.imag:.3e}")
    return z.real


def compile_stages(seq, flow, node):
    """Compile an expanded stage sequence into a plan of (c0, coeff, flow) rows.

    An A-flow row holds a real start node, a real duration and the A_FLOWS
    flow, a lazy rule made, a FREEZE offset set to node and its offsets
    turned into a times map; a B-kick row a real node, its coefficient, a
    float if it is real (numpy's complex exp differs from its real exp in
    the last bit), and None.  Raises RealTimeViolation if a flow time has an
    imaginary part.
    """
    offsets, calls = flow() if callable(flow) else flow
    flow = _times(tuple(node if o is FREEZE else o for o in offsets)), calls
    plan = []
    for stage in seq:
        if stage.role == "A":
            plan.append((_real(stage.c0, "A-flow start node"),
                         _real(stage.coeff, "A-flow duration"), flow))
        else:
            coeff = complex(stage.coeff)
            plan.append((_real(stage.c0, "B-kick node"),
                         coeff.real if coeff.imag == 0.0 else coeff, None))
    return tuple(plan)


def _times(offsets):
    """(t0, tau) -> the tuple of t0 + o * tau over offsets: written out for
    the one and two offsets of CF2 and CF4, cheaper than a comprehension."""
    if len(offsets) == 1:
        (o,) = offsets
        return lambda t0, tau: (t0 + o * tau,)
    if len(offsets) == 2:
        o1, o2 = offsets
        return lambda t0, tau: (t0 + o1 * tau, t0 + o2 * tau)
    return lambda t0, tau: tuple([t0 + o * tau for o in offsets])


def a_flow(problem, kind):
    """The A_FLOWS entry of `kind` for problem's A(t); ValidationError if it is None."""
    if (flow := A_FLOWS[kind][problem.commuting]) is None:
        usable = " or ".join(k for k, flows in A_FLOWS.items()
                             if flows[problem.commuting] is not None)
        raise ValidationError(f"{type(problem).__name__} has no {kind} A-flow (use {usable})")
    return flow


def compile_plan(cfg, problem):
    """cfg.scheme compiled for problem; ValidationError if its A-flow kind cannot run there."""
    return compile_stages(expand(cfg.scheme), a_flow(problem, cfg.a_flow_kind),
                          FREEZE_NODES[cfg.freeze_convention])


def plan_step(cfg, problem):
    """Compile cfg.scheme for problem once; return its map step_fn(u, t, h, record) -> u."""
    plan = compile_plan(cfg, problem)

    def step_fn(u, t, h, record=None):
        return _finish(_run_stages(plan, problem, t, u, h, record))
    return step_fn


def _run_stages(plan, problem, t_n, u, h, record):
    """Apply a plan once to u at time t_n; return the state as the last
    kernel hands it back, unchecked and unprojected."""
    # read per run, not bound at compile time: a kernel patched on the class is the one called
    a_kernel, b_kick = problem.a_frozen_exp, problem.b_kick
    flows = calls = 0       # of the stages run, added to record once
    try:
        for stage, (c0, coeff, flow) in enumerate(plan):
            if flow is None:
                u = b_kick(t_n + c0 * h, coeff * h, u)
                continue
            if (tau := coeff * h) != 0.0:     # a zero-duration flow is the identity
                times_of, kernel_calls = flow
                times = times_of(t_n + c0 * h, tau)
                for weights, factor in kernel_calls:
                    u = a_kernel(times, weights, factor * tau, u)
                calls += len(kernel_calls)
            flows += 1
    except KERNEL_ERRORS as exc:
        raise StepFailed(str(exc), stage=stage) from exc
    finally:
        if record is not None:
            record.a_flow_evals += flows
            record.kernel_evals += calls
    return u


def _finish(u):
    """The end of every public step: u checked finite and projected, in its own type;
    a tuple entry z becomes the float z.real, the bits of numpy's .real, a
    float64 array is returned as it is, and any other array becomes a new
    complex ndarray with imaginary part +0.0."""
    # the kernels keep a non-finite state non-finite: one check per step
    # suffices; cmath checks the oscillator's (q, p) tuple, of floats or
    # complex, faster than numpy
    if type(u) is tuple:
        if all(map(cmath.isfinite, u)):
            return tuple([z.real for z in u])
    elif np.isfinite(u).all():
        return u if u.dtype is REAL_DTYPE else np.asarray(u, dtype=complex).real.astype(complex)
    raise StepFailed("non-finite state")


def extrapolate(cfg, problem):
    """Richardson extrapolation of the second-order step of cfg.scheme on problem.

    (4/3) S(h/2)S(h/2) - (1/3) S(h) over the unprojected steps S, combined
    in the kernels' state type and finished once: EXT4 when cfg is Strang
    (Blanes, Casas & Ros 1999).  Compiled once, like ``plan_step``.
    """
    plan = compile_plan(cfg, problem)

    def extrapolated(u, t, h, record=None):
        half = _run_stages(plan, problem, t, u, 0.5 * h, record)
        half = _run_stages(plan, problem, t + 0.5 * h, half, 0.5 * h, record)
        whole = _run_stages(plan, problem, t, u, h, record)
        # CPython (to 3.13) multiplies a float by a complex as numpy does, as
        # complex(x, 0) * z, and a float pair combines as the real parts of
        # a complex one: the tuple combination is numpy's, bit for bit
        if type(half) is tuple:
            u = tuple((4.0 / 3.0) * a - (1.0 / 3.0) * b for a, b in zip(half, whole))
        else:
            u = (4.0 / 3.0) * half - (1.0 / 3.0) * whole
        return _finish(u)
    return extrapolated


def integrate(cfg, problem, u0, t0, tf, n_steps):
    """n_steps composition steps over [t0, tf]; error_l2 is left to the bench."""
    return integrate_with(plan_step(cfg, problem), u0, t0, tf, n_steps, cfg.scheme.name)


def integrate_with(step_fn, u0, t0, tf, n_steps, method_name):
    """Drive a one-step map step_fn(u, t, h, record) -> u; one State and record a run.
    A float64 array u0 is kept as it is, anything else is made complex."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = (tf - t0) / n_steps
    record = RunRecord(method=method_name, h=h, n_steps=n_steps)
    u = u0 if type(u0) is np.ndarray and u0.dtype is REAL_DTYPE else np.asarray(u0, dtype=complex)
    t = t0
    start = time.perf_counter()
    # a step that overflows ends non-finite and fails: numpy's warning adds nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            u = step_fn(u, t, h, record)
            t = t + h
    state = State(np.asarray(u, dtype=complex), t)
    record.wall_time = time.perf_counter() - start
    return state, record
