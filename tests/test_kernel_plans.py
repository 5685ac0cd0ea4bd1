"""The compiled kernel plans against the flow functions they replaced.

``cf2_step``, ``cf4_step`` and ``exact_step`` are the flow functions that
the stepper called before its A-flows became data (``propagators.A_FLOWS``),
kept here with the stage compiler and runner that called them, as the
reference: the plans must reproduce them bit for bit, in the kernel calls
of each flow and in the final states and counts of whole runs.
"""

from functools import partial

import numpy as np
import pytest

from cxsplit import bench
from cxsplit.errors import StepFailed, ValidationError
from cxsplit.problems import make_problem
from cxsplit.propagators import A_FLOWS, CF4_ALPHA, CF4_BETA, GAUSS_OFFSETS
from cxsplit.schemes import Stage, expand
from cxsplit.stepper import (FREEZE_NODES, KERNEL_ERRORS, StepperConfig, _finish,
                             _real, compile_plan, compile_stages, extrapolate,
                             integrate_with, plan_step)

from conftest import OneCallKernels, frozen_exp, kick, run_stages


def cf2_step(t0, h, state, frozen_exponential, commuting, node):
    """Frozen exponential exp(h A(t0 + node h)): node=0.5 is the midpoint rule."""
    return frozen_exponential((t0 + node * h,), (1.0,), h, state)


def cf4_step(t0, h, state, frozen_exponential, commuting, node):
    """Fourth-order commutator-free step over [t0, t0 + h]; one fused call if commuting."""
    tau1 = t0 + GAUSS_OFFSETS[0] * h
    tau2 = t0 + GAUSS_OFFSETS[1] * h
    if commuting:
        return frozen_exponential((tau1, tau2), (0.5, 0.5), h, state)
    state = frozen_exponential((tau1, tau2), (CF4_BETA, CF4_ALPHA), 0.5 * h, state)
    return frozen_exponential((tau1, tau2), (CF4_ALPHA, CF4_BETA), 0.5 * h, state)


def exact_step(t0, h, state, frozen_exponential, commuting, node):
    """Exact flow exp(int A) over [t0, t0 + h] by 20-point Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    return frozen_exponential(t0 + 0.5 * h * (nodes + 1.0), weights, 0.5 * h, state)


#: kind -> (flow, kernel calls per flow if A(t) do not commute, if they do; None: cannot run)
REFERENCE_FLOWS = {
    "cf2": (cf2_step, 1, 1),
    "cf4": (cf4_step, 2, 1),
    "exact": (exact_step, None, 1),
}


def reference_compile(seq):
    """The stage sequence as (role, c0, duration) rows."""
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


def reference_run(cfg, problem, t_n, u, h, plan, record):
    """One run of the rows through the flow function of cfg's kind."""
    node = FREEZE_NODES[cfg.freeze_convention]
    flow, *calls = REFERENCE_FLOWS[cfg.a_flow_kind]
    calls = calls[problem.commuting]
    if calls is None:
        raise ValidationError(f"{type(problem).__name__} has no {cfg.a_flow_kind} A-flow "
                              "(use cf2 or cf4)")
    flows = kernel_flows = 0
    try:
        for idx, (role, c0, dur) in enumerate(plan):
            if role == "A":
                if (tau := dur * h) != 0.0:
                    u = flow(t_n + c0 * h, tau, u, partial(frozen_exp, problem),
                             problem.commuting, node)
                    kernel_flows += 1
                flows += 1
            else:
                u = kick(problem, t_n + c0 * h, dur * h, u)
    except KERNEL_ERRORS as exc:
        raise StepFailed(str(exc), stage=idx) from exc
    finally:
        if record is not None:
            record.a_flow_evals += flows
            record.kernel_evals += calls * kernel_flows
    return u


def reference_method(name, problem, kind, freeze):
    """The step of a bench method name on problem, through the reference runner."""
    scheme, pinned, ext = bench.method(name)
    cfg = StepperConfig(scheme, pinned or kind, freeze)
    plan = reference_compile(expand(scheme))

    def step(u, t_n, h, record=None):
        return _finish(reference_run(cfg, problem, t_n, u, h, plan, record))

    def extrapolated(u, t_n, h, record=None):
        half = reference_run(cfg, problem, t_n, u, 0.5 * h, plan, record)
        half = reference_run(cfg, problem, t_n + 0.5 * h, half, 0.5 * h, plan, record)
        whole = reference_run(cfg, problem, t_n, u, h, plan, record)
        if type(half) is tuple:
            u = tuple((4.0 / 3.0) * a - (1.0 / 3.0) * b for a, b in zip(half, whole))
        else:
            u = (4.0 / 3.0) * half - (1.0 / 3.0) * whole
        return _finish(u)

    def steps(u, ts, h, record=None):     # integrate_with hands out a chunk of start times
        for t_n in ts:
            u = (extrapolated if ext else step)(u, t_n, h, record)
        return u
    return steps


def _outcome(resolve, problem, name, n_steps):
    """Final state bytes, t and both counts of a run of the step that
    resolve(name, problem) makes, or the error that making or running it raised."""
    try:
        state, record = integrate_with(resolve(name, problem), problem.u0(), problem.t0,
                                       problem.tf, n_steps, name)
    except ValidationError as exc:
        return "ValidationError", str(exc)
    return state.values.tobytes(), state.t, record.a_flow_evals, record.kernel_evals


@pytest.mark.parametrize("freeze", sorted(FREEZE_NODES))
@pytest.mark.parametrize("kind", sorted(A_FLOWS))
@pytest.mark.parametrize("name", ["osc", "parabolic", "fisher"])
def test_plans_reproduce_the_flow_functions_bitwise(name, kind, freeze):
    # the six methods at n = 16; exact has no flow on osc, for either runner
    problem = make_problem(name)
    for method in bench.METHODS:
        got = _outcome(lambda m, p: bench.resolve_method(m, p, kind, freeze),
                       problem, method, 16)
        expect = _outcome(lambda m, p: reference_method(m, p, kind, freeze),
                          problem, method, 16)
        assert got == expect, method


class RecordingProblem(OneCallKernels):
    """Identity kernels on a scalar state that record each A-kernel call bitwise."""

    def __init__(self, commuting):
        self.commuting = commuting
        self.calls = []

    def a_call(self, times, weights, duration, state):
        self.calls.append(([float(t).hex() for t in times],
                           [float(w).hex() for w in weights], duration.hex()))
        return state + 1.0

    def kick_call(self, t_frozen, tau, state):
        raise AssertionError("no kick in a one-flow plan")


@pytest.mark.parametrize("freeze", sorted(FREEZE_NODES))
@pytest.mark.parametrize("commuting", [False, True])
@pytest.mark.parametrize("kind", sorted(A_FLOWS))
def test_each_flow_makes_the_kernel_calls_of_its_function(kind, commuting, freeze):
    flow_fn, *per_flow = REFERENCE_FLOWS[kind]
    flow = A_FLOWS[kind][commuting]
    assert (flow is None) == (per_flow[commuting] is None)
    if flow is None:
        return
    node = FREEZE_NODES[freeze]
    rng = np.random.default_rng(26)
    for _ in range(50):
        t_n, h = rng.uniform(-1.0, 7.0), rng.uniform(-0.3, 0.3)
        c0, dur = rng.uniform(0.0, 1.0), rng.uniform(-0.5, 1.0)
        plan = compile_stages((Stage("A", dur, c0),), flow, node)
        got, expect = RecordingProblem(commuting), RecordingProblem(commuting)
        u = run_stages(plan, got, t_n, 0.0, h)
        flow_fn(t_n + c0 * h, dur * h, 0.0, expect.a_call, commuting, node)
        assert got.calls == expect.calls
        assert u == len(got.calls) == per_flow[commuting]


def test_plans_are_compiled_once_per_commuting_value():
    # one plan for the problem's value of commuting, one row per stage; a
    # kind that cannot run there fails to compile, so neither step is made
    cfg = StepperConfig(bench.method("sm4")[0], "exact")
    stages = len(expand(cfg.scheme))
    osc, parabolic = make_problem("osc"), make_problem("parabolic")
    assert len(compile_plan(cfg, parabolic)) == stages
    for kind in ("cf2", "cf4"):
        plans = [compile_plan(StepperConfig(cfg.scheme, kind), p) for p in (osc, parabolic)]
        assert [len(plan) for plan in plans] == [stages, stages]
    for compile_step in (compile_plan, plan_step, extrapolate):
        with pytest.raises(ValidationError, match="^OscillatorProblem has no exact A-flow"):
            compile_step(cfg, osc)
