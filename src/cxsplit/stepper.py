"""Composition engine: apply a scheme to a problem, a chunk of steps at a time.

A step alternates B-kicks (frozen real time, complex duration) with A-flows
over real subintervals, projects onto the real axis after the full step
(the projection is part of the method), and counts A-flow evaluations, the
benchmark cost metric.  ``plan_step`` compiles a scheme for the problem
its step runs on into a plan of one row per stage: the flow times are
checked real and the A-flow is one that the problem has (``a_flow``), so
compiling is the check.  A row (c0, d, flow) spans [t0, t0 + tau] with
t0 = t_n + c0 h and tau = d h: a B-kick (flow None) is frozen at t0; an
A-flow makes the kernel calls of its ``propagators.A_FLOWS`` flow at the
times t0 + o tau, each call for factor * tau.  Strang is the STRANG_BAB
plan with a CF2 flow; EXT4, its ``extrapolate``, runs the plan at (t_n,
h/2), (t_n + h/2, h/2) and (t_n, h) and combines the unprojected results.

Every time is real and known before the state, so the time-only work runs ahead
of the state loop.  A compiled step, step(u, t, h, record) -> u, maps the
kernels' own state over one step from t, or from each time of a list t in turn:
``_tabulate`` calls each time half once for all the stages and runs of the
steps, ``_run_stages`` applies the state halves, each to the next row of its
call, and ``_finish``, once per step, checks the state finite and projects it
in its own type (a tuple onto floats; a float64 array is already real).  All
three run under one ``np.errstate`` a call, quiet on overflow and invalid: an
overflow ends non-finite and fails at the finish, as on Python floats.
``integrate_with`` alone knows a run's length: it adds t + h as a loop does and
hands the step lists of min(steps left, CHUNK_STEPS) times; a direct call is a
chunk of one.  A zero-duration flow calls no kernel but counts in
``a_flow_evals``.  A run adds its counts to the record once: on a failure,
those of the stages before the failing one.

Problem protocol: ``commuting`` (the A(t) commute: CF4 fuses into one
exponential, and the exact flow exists) and two halves of each kernel.  The
time halves take float64 arrays of real times [stage][step] and a duration per
stage, and return rows by stage in step order: ``a_frozen_coeffs(times, calls,
taus)`` by [call][stage], of exp(factor tau sum_i weights_i A(times_i)) for
each call (weights, factor), times[o] the flows' t0 + o tau; where the A(t) do
not commute, every call's weights fold (``weighted_sum``) to exactly 1.0;
``b_kick_coeffs(t_frozen, taus)`` of the B-flows frozen at t_frozen for complex
taus.  The state halves ``a_frozen_exp(row, state)`` and ``b_kick(row, state)``
apply one row and may hand back any state that the next accepts, real until a
complex kick: the PDEs' float64 array, which a complex kick makes a complex
ndarray, or the oscillator's (q, p) tuple of floats, which it makes complex
numbers.  The state passes unchanged through the stages, EXT4's runs and the
finish to the next step; a non-finite state stays non-finite, so the one check
catches every stage.  A half that fails raises StepFailed (StepTooLarge is one)
or one of KERNEL_ERRORS (``math`` and ``cmath`` raise ValueError or
OverflowError where numpy returns inf or nan), which the step turns into
StepFailed at its stage; a time half's failure re-runs its chunk step by step,
and a step stage by stage: it fails at its step and stage, after the stages
before it.
"""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass
from itertools import accumulate, repeat

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
#: the most steps tabulated at once: more cost table memory, fewer set-up time per step
CHUNK_STEPS = 32


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
    flow, a lazy rule made and a FREEZE offset set to node; a B-kick row a
    real node, its coefficient, a float if it is real (numpy's complex exp
    differs from its real exp in the last bit), and None.  Raises
    RealTimeViolation if a flow time has an imaginary part.
    """
    offsets, calls = flow() if callable(flow) else flow
    flow = tuple(node if o is FREEZE else o for o in offsets), calls
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
    return _chunk_step(lambda ts, h: _tabulate(plan, problem, [(ts, h)]),
                       lambda tables, u, record: _finish(_run_stages(tables[0], u, record)))


def _chunk_step(tabulate, one_step):
    """The map step(u, t, h, record) -> u from t, or from each time of a list t in turn: one
    tabulate(ts, h), then one_step(tables, u, record) a step, or each step alone if None."""
    def step(u, t, h, record=None):
        ts = t if type(t) is list else [t]
        # a step that overflows ends non-finite and fails: numpy's warning adds nothing
        with np.errstate(over="ignore", invalid="ignore"):
            tables = tabulate(ts, h)
            for t in ts:
                # tabulating one step never gives None
                u = one_step(tabulate([t], h) if tables is None else tables, u, record)
        return u
    return step


def _raise(exc, state):
    raise exc


def _tabulate(plan, problem, runs):
    """Per run (ts, h), plan over the steps from ts as a table (calls, counts, before): its kernel
    calls in order as (state half, next row, stage), its (A-flows, kernel calls) and before[stage],
    those of the stages before it.  A time half (one call for all runs) that fails makes it None
    over several steps; over one, the stage that fails, tabulated alone, gets a call that raises."""
    # jobs (calls, stage, flow, run, c0 h, tau): at t_n + c0 h (+ o tau), t_n of runs[run]
    tables, jobs = [], []
    for run, (ts, h) in enumerate(runs):
        calls, before, flows, kernel_calls = [], [], 0, 0
        for stage, (c0, coeff, flow) in enumerate(plan):
            before.append((flows, kernel_calls))
            if flow is None or coeff * h != 0.0:     # a zero-duration flow is the identity
                jobs.append((calls, stage, flow, run, c0 * h, coeff * h))
                kernel_calls += 0 if flow is None else len(flow[1])
            flows += flow is not None
        tables.append((calls, (flows, kernel_calls), before))
    steps = np.array([ts for ts, _ in runs], dtype=float)
    try:
        _add_calls(problem, steps, jobs)
    except (*KERNEL_ERRORS, StepFailed):
        if steps.shape[1] > 1:
            return None
        for job in jobs:
            try:
                _add_calls(problem, steps, [job])
            except (*KERNEL_ERRORS, StepFailed) as exc:
                job[0].append((_raise, repeat(exc).__next__, job[1]))
                break
    return tables


def _add_calls(problem, steps, jobs):
    """Append each job's kernel calls, with rows from one call of each time half for all jobs."""
    flows = [job for job in jobs if job[2] is not None]
    kicks = [job for job in jobs if job[2] is None]
    base = steps if len(steps) == 1 else steps.take([job[3] for job in flows + kicks], 0)
    t0 = base + np.array([job[4] for job in flows + kicks])[:, None]
    if flows:
        offsets, flow_calls = flows[0][2]
        taus = [job[5] for job in flows]
        shifts = np.array([o * tau for o in offsets for tau in taus]).reshape(len(offsets), -1, 1)
        a_rows = zip(*problem.a_frozen_coeffs(t0[:len(flows)] + shifts, flow_calls, taus))
    if kicks:
        b_rows = iter(problem.b_kick_coeffs(t0[len(flows):], [job[5] for job in kicks]))
    # read per run, not bound at compile time: a kernel patched on the class is the one called
    a_kernel, b_kick = problem.a_frozen_exp, problem.b_kick
    for calls, stage, flow, *_ in jobs:
        if flow is None:
            calls.append((b_kick, iter(next(b_rows)).__next__, stage))
        else:
            calls += [(a_kernel, iter(col).__next__, stage) for col in next(a_rows)]


def _run_stages(table, u, record):
    """Apply a tabulated run once to u, with the next row of each call; return the
    state as the last kernel hands it back, unchecked and unprojected."""
    calls, counts, before = table
    try:
        for kernel, next_row, stage in calls:
            u = kernel(next_row(), u)
        stage = None        # every stage ran
    except KERNEL_ERRORS as exc:
        raise StepFailed(str(exc), stage=stage) from exc
    finally:
        if record is not None:      # of the stages run, added to record once
            flows, kernel_calls = counts if stage is None else before[stage]
            record.a_flow_evals += flows
            record.kernel_evals += kernel_calls
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

    def tabulate(ts, h):
        half_h = 0.5 * h
        return _tabulate(plan, problem, [(ts, half_h), ([t + half_h for t in ts], half_h),
                                         (ts, h)])

    def extrapolated(tables, u, record):
        first, second, full = tables
        half = _run_stages(first, u, record)
        half = _run_stages(second, half, record)
        whole = _run_stages(full, u, record)
        # CPython (to 3.13) multiplies a float by a complex as numpy does, as
        # complex(x, 0) * z, and a float pair combines as the real parts of
        # a complex one: the tuple combination is numpy's, bit for bit
        if type(half) is tuple:
            return _finish(tuple([(4.0 / 3.0) * a - (1.0 / 3.0) * b for a, b in zip(half, whole)]))
        return _finish((4.0 / 3.0) * half - (1.0 / 3.0) * whole)
    return _chunk_step(tabulate, extrapolated)


def integrate(cfg, problem, u0, t0, tf, n_steps):
    """n_steps composition steps over [t0, tf]; error_l2 is left to the bench."""
    return integrate_with(plan_step(cfg, problem), u0, t0, tf, n_steps, cfg.scheme.name)


def integrate_with(step_fn, u0, t0, tf, n_steps, method_name):
    """Drive a step map step_fn(u, ts, h, record) -> u over chunks of start times ts; one
    State and record a run.  A float64 array u0 is kept as it is, anything else is made complex."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = (tf - t0) / n_steps
    record = RunRecord(method=method_name, h=h, n_steps=n_steps)
    u = u0 if type(u0) is np.ndarray and u0.dtype is REAL_DTYPE else np.asarray(u0, dtype=complex)
    t = t0
    start = time.perf_counter()
    for done in range(0, n_steps, CHUNK_STEPS):
        # the chunk's start times and the next chunk's: t + h as a loop adds it
        *ts, t = accumulate(repeat(h, min(CHUNK_STEPS, n_steps - done)), initial=t)
        u = step_fn(u, ts, h, record)
    state = State(np.asarray(u, dtype=complex), t)
    record.wall_time = time.perf_counter() - start
    return state, record
