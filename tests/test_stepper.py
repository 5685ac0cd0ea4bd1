import numpy as np
import pytest

from cxsplit.errors import RealTimeViolation, StepFailed, ValidationError
from cxsplit.problems import make_problem
from cxsplit.schemes import Scheme, builtin_scheme, expand
from cxsplit.stepper import (State, StepperConfig, ext4_step, integrate,
                             integrate_with, step, strang_step)


def test_config_rejects_unknown_kinds():
    with pytest.raises(ValidationError):
        StepperConfig(scheme=builtin_scheme("S62"), a_flow_kind="magic")
    with pytest.raises(ValidationError):
        StepperConfig(scheme=builtin_scheme("S62"), freeze_convention="left")


def test_config_rejects_complex_kicks_without_projection():
    with pytest.raises(ValidationError):
        StepperConfig(scheme=builtin_scheme("SM4"), project_real=False)


@pytest.mark.parametrize("name,a_stages,kicks", [
    ("Strang_BAB", 1, 2), ("S62", 3, 4), ("SM4", 4, 5), ("SM64", 6, 7)])
def test_cost_counters(name, a_stages, kicks):
    problem = make_problem("osc")
    cfg = StepperConfig(scheme=builtin_scheme(name))
    n_steps = 5
    state, record = integrate(cfg, problem, problem.u0(), 0.0, 0.5, n_steps)
    # the osc kernels pass tuples between stages; integrate hands out an ndarray
    assert isinstance(state.values, np.ndarray)
    assert state.values.dtype == complex and state.values.shape == (2,)
    assert record.a_flow_evals == n_steps * a_stages
    # non-commuting problem: CF4 costs two kernel calls per A-stage
    assert record.kernel_evals == 2 * n_steps * a_stages
    assert record.n_steps == n_steps
    assert record.h == pytest.approx(0.1)


def test_commuting_problem_uses_one_kernel_per_stage():
    problem = make_problem("parabolic")
    cfg = StepperConfig(scheme=builtin_scheme("SM4"))
    _, record = integrate(cfg, problem, problem.u0(), 0.0, 0.25, 2)
    assert record.a_flow_evals == 8
    assert record.kernel_evals == 8


def test_projection_returns_real_valued_state():
    problem = make_problem("osc")
    cfg = StepperConfig(scheme=builtin_scheme("SM4"))
    state = step(cfg, problem, State(problem.u0(), 0.0), 0.05)
    assert np.all(state.values.imag == 0.0)
    assert state.t == pytest.approx(0.05)


def test_complex_flow_coefficient_triggers_realness_guard():
    bad = Scheme("bad", "BAB", 1, (1.0 + 0.2j,), (0.5 - 0.1j,), 2, True)
    problem = make_problem("osc")
    cfg = StepperConfig(scheme=bad)
    with pytest.raises(RealTimeViolation):
        step(cfg, problem, State(problem.u0(), 0.0), 0.1)


class CountingStub:
    """A 1-component problem that counts kernel calls.

    A poisoned stub returns NaN from every kick after t = 0.
    """

    commuting = True

    def __init__(self, poisoned=False):
        self.poisoned = poisoned
        self.calls = 0

    def a_frozen_exp(self, times, weights, duration, state):
        self.calls += 1
        return state

    def b_kick(self, t_frozen, tau, state):
        self.calls += 1
        if self.poisoned and t_frozen > 0.0:
            return state * np.nan
        return state


def test_complex_flow_coefficient_rejected_before_any_kernel_call():
    bad = Scheme("bad", "BAB", 1, (1.0 + 0.2j,), (0.5 - 0.1j,), 2, True)
    stub = CountingStub()
    with pytest.raises(RealTimeViolation):
        integrate(StepperConfig(scheme=bad), stub, np.ones(1), 0.0, 1.0, 4)
    assert stub.calls == 0


def test_nan_from_a_mid_step_kick_fails_the_step():
    # the state turns NaN at the second kick of the first step; the later
    # stages of that step still run, and the step as a whole must fail
    stub = CountingStub(poisoned=True)
    cfg = StepperConfig(scheme=builtin_scheme("SM4"))
    with pytest.raises(StepFailed):
        integrate(cfg, stub, np.ones(1), 0.0, 1.0, 4)
    assert stub.calls == len(expand(builtin_scheme("SM4")))


def test_conjugate_scheme_same_projected_step():
    # projecting after the step makes the two conjugate branches identical
    problem = make_problem("osc")
    sm4 = builtin_scheme("SM4")
    s1 = step(StepperConfig(scheme=sm4), problem, State(problem.u0(), 0.0), 0.1)
    s2 = step(StepperConfig(scheme=sm4.conjugate()), problem,
              State(problem.u0(), 0.0), 0.1)
    assert np.max(np.abs(s1.values - s2.values)) < 1e-14


def test_strang_freeze_conventions_differ_but_agree_at_order_two():
    problem = make_problem("osc")
    state = State(problem.u0(), 0.0)
    mid = strang_step(problem, state, 0.1, "midpoint")
    lit = strang_step(problem, state, 0.1, "literal")
    gap = np.max(np.abs(mid.values - lit.values))
    assert 0.0 < gap < 0.2


def test_strang_equals_scheme_strang_midpoint():
    # the dedicated Strang step with midpoint freezing reproduces the
    # catalog Strang_BAB composition with a CF2 A-flow
    problem = make_problem("osc")
    state = State(problem.u0(), 0.0)
    direct = strang_step(problem, state, 0.05, "midpoint")
    cfg = StepperConfig(scheme=builtin_scheme("Strang_BAB"), a_flow_kind="cf2")
    composed = step(cfg, problem, state, 0.05)
    assert np.max(np.abs(direct.values - composed.values)) < 1e-15


def test_ext4_counts_three_flows_and_projects():
    problem = make_problem("osc")
    from cxsplit.stepper import RunRecord
    record = RunRecord()
    state = ext4_step(problem, State(problem.u0(), 0.0), 0.1, "midpoint", record)
    assert record.a_flow_evals == 3
    assert np.all(state.values.imag == 0.0)


def test_exact_a_flow_kind_on_parabolic():
    problem = make_problem("parabolic")
    cfg_exact = StepperConfig(scheme=builtin_scheme("S62"), a_flow_kind="exact")
    cfg_cf4 = StepperConfig(scheme=builtin_scheme("S62"), a_flow_kind="cf4")
    se, _ = integrate(cfg_exact, problem, problem.u0(), 0.0, 0.5, 8)
    sc, _ = integrate(cfg_cf4, problem, problem.u0(), 0.0, 0.5, 8)
    assert np.max(np.abs(se.values - sc.values)) < 1e-8


OSC_STEPS = {
    "sm4": lambda p, s: step(StepperConfig(scheme=builtin_scheme("SM4")), p, s, 0.1),
    "strang": lambda p, s: strang_step(p, s, 0.1),
    "ext4": lambda p, s: ext4_step(p, s, 0.1),
}


@pytest.mark.parametrize("method", sorted(OSC_STEPS))
def test_osc_step_returns_complex_ndarray(method):
    problem = make_problem("osc")
    state = OSC_STEPS[method](problem, State(problem.u0(), 0.0))
    assert isinstance(state.values, np.ndarray)
    assert state.values.dtype == complex and state.values.shape == (2,)


@pytest.mark.parametrize("values", [[np.inf, 1.0], [0.0, 1e308j]],
                         ids=["inf", "huge-imag"])
@pytest.mark.parametrize("method", sorted(OSC_STEPS))
def test_non_finite_osc_state_fails_the_step(method, values):
    # cmath.sin raises ValueError (infinite argument) or OverflowError (huge
    # imaginary part) where np.sin returns inf or nan: still StepFailed
    problem = make_problem("osc")
    with pytest.raises(StepFailed):
        OSC_STEPS[method](problem, State(np.array(values, dtype=complex), 0.0))


def test_integrate_with_rejects_bad_n_steps():
    problem = make_problem("osc")
    with pytest.raises(ValueError):
        integrate_with(lambda *a: None, problem, problem.u0(), 0.0, 1.0, 0, "x")
