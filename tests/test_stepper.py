import math

import numpy as np
import pytest

from cxsplit import bench, stepper
from cxsplit.errors import RealTimeViolation, StepFailed, ValidationError
from cxsplit.problems import make_problem
from cxsplit.propagators import A_FLOWS
from cxsplit.schemes import Scheme, builtin_scheme, expand
from cxsplit.stepper import (RunRecord, State, StepperConfig, _run_stages,
                             compile_stages, extrapolate, integrate,
                             integrate_with, plan_step)

STRANG = builtin_scheme("Strang_BAB")


def step(cfg, problem, state, h, record=None):
    """One projected composition step of cfg.scheme."""
    return plan_step(cfg)(problem, state, h, record)


def raw_step(cfg, problem, state, h, record=None):
    """One unprojected composition step of cfg.scheme, as an ndarray State."""
    plan = compile_stages(expand(cfg.scheme))
    u = _run_stages(cfg, problem, state.t, state.values, h, plan, record)
    return State(np.asarray(u, dtype=complex), state.t + h)


def test_config_rejects_unknown_kinds():
    with pytest.raises(ValidationError):
        StepperConfig(scheme=builtin_scheme("S62"), a_flow_kind="magic")
    with pytest.raises(ValidationError):
        StepperConfig(scheme=builtin_scheme("S62"), freeze_convention="left")


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


def test_plan_step_is_the_real_part_of_the_raw_step():
    # the stages of a complex-kick scheme leave an imaginary residue, which
    # the projection of every plan step throws away
    problem = make_problem("osc")
    cfg = StepperConfig(scheme=builtin_scheme("SM4"))
    state = State(problem.u0(), 0.0)
    raw = raw_step(cfg, problem, state, 0.1)
    projected = step(cfg, problem, state, 0.1)
    assert np.any(raw.values.imag != 0.0)
    assert projected.values.tobytes() == raw.values.real.astype(complex).tobytes()
    assert raw.t == projected.t == pytest.approx(0.1)


def test_extrapolated_complex_kick_scheme_runs():
    # extrapolating a complex-kick scheme combines its unprojected steps
    problem = make_problem("parabolic")
    record = RunRecord()
    ext = extrapolate(StepperConfig(scheme=builtin_scheme("SM4")))
    state = State(problem.u0(), 0.0)
    for _ in range(2):
        state = ext(problem, state, 0.125, record)
    assert np.all(state.values.imag == 0.0)
    assert np.all(np.isfinite(state.values))
    assert record.a_flow_evals == 2 * 12


def test_complex_flow_coefficient_triggers_realness_guard():
    bad = Scheme("bad", "BAB", 1, (1.0 + 0.2j,), (0.5 - 0.1j,), 2, True)
    problem = make_problem("osc")
    cfg = StepperConfig(scheme=bad)
    with pytest.raises(RealTimeViolation):
        step(cfg, problem, State(problem.u0(), 0.0), 0.1)


class CountingStub:
    """A 1-component problem that counts kernel calls and records kick durations.

    ``calls`` counts both kernels, ``a_calls`` the A-kernel alone.  A
    poisoned stub returns NaN from every kick after t = 0.
    """

    def __init__(self, poisoned=False, commuting=True):
        self.poisoned = poisoned
        self.commuting = commuting
        self.calls = 0
        self.a_calls = 0
        self.taus = []

    def a_frozen_exp(self, times, weights, duration, state):
        self.calls += 1
        self.a_calls += 1
        return state

    def b_kick(self, t_frozen, tau, state):
        self.calls += 1
        self.taus.append(tau)
        if self.poisoned and t_frozen > 0.0:
            return state * np.nan
        return state


def test_complex_flow_coefficient_rejected_before_any_kernel_call():
    bad = Scheme("bad", "BAB", 1, (1.0 + 0.2j,), (0.5 - 0.1j,), 2, True)
    stub = CountingStub()
    with pytest.raises(RealTimeViolation):
        integrate(StepperConfig(scheme=bad), stub, np.ones(1), 0.0, 1.0, 4)
    assert stub.calls == 0


def test_nan_imaginary_flow_coefficient_rejected_before_any_kernel_call():
    # a NaN imaginary part is no more real than 0.2j: it fails the guard too
    bad = Scheme("bad", "BAB", 1, (complex(1.0, math.nan),), (0.5,), 2, True)
    stub = CountingStub()
    with pytest.raises(RealTimeViolation, match="A-flow duration"):
        integrate(StepperConfig(scheme=bad), stub, np.ones(1), 0.0, 1.0, 4)
    assert stub.calls == 0
    problem = make_problem("parabolic")
    with pytest.raises(RealTimeViolation, match="A-flow duration"):
        integrate(StepperConfig(scheme=bad), problem, problem.u0(), 0.0, 1.0, 4)


@pytest.mark.parametrize("node", [0.2j, complex(0.0, math.nan)], ids=["complex", "nan-imag"])
def test_complex_kick_node_rejected_at_compile_time(node):
    seq = list(expand(STRANG))
    seq[0] = seq[0]._replace(c0=node)
    with pytest.raises(RealTimeViolation, match="B-kick node"):
        compile_stages(seq)


def test_nan_from_a_mid_step_kick_fails_the_step():
    # the state turns NaN at the second kick of the first step; the later
    # stages of that step still run, and the step as a whole must fail
    stub = CountingStub(poisoned=True)
    cfg = StepperConfig(scheme=builtin_scheme("SM4"))
    with pytest.raises(StepFailed):
        integrate(cfg, stub, np.ones(1), 0.0, 1.0, 4)
    assert stub.calls == len(expand(builtin_scheme("SM4")))


# a BAB scheme whose first flow has zero duration
ZERO_FLOW = Scheme("zero-flow", "BAB", 2, (0.0, 1.0), (0.5, 0.0, 0.5), 2, False)


@pytest.mark.parametrize("kind,commuting,per_flow", [
    (kind, commuting, row[2 if commuting else 1])
    for kind, row in A_FLOWS.items() for commuting in (False, True)])
@pytest.mark.parametrize("scheme,tf,real_flows", [
    (ZERO_FLOW, 1.0, 3), (builtin_scheme("SM4"), 0.0, 0)],
    ids=["zero-first-flow", "t0-equals-tf"])
def test_kernel_evals_count_real_kernel_calls(kind, commuting, per_flow, scheme,
                                              tf, real_flows):
    # a zero-duration flow calls no kernel and counts none; a kind the
    # problem cannot use fails before any kernel call
    stub = CountingStub(commuting=commuting)
    cfg = StepperConfig(scheme=scheme, a_flow_kind=kind)
    if per_flow is None:
        with pytest.raises(ValidationError, match=f"has no {kind} A-flow"):
            integrate(cfg, stub, np.ones(1), 0.0, tf, 3)
        assert stub.calls == 0
        return
    _, record = integrate(cfg, stub, np.ones(1), 0.0, tf, 3)
    assert stub.a_calls == record.kernel_evals == per_flow * real_flows
    assert record.a_flow_evals == 3 * scheme.n_a


def test_conjugate_scheme_same_projected_step():
    # projecting after the step makes the two conjugate branches identical
    problem = make_problem("osc")
    sm4 = builtin_scheme("SM4")
    s1 = step(StepperConfig(scheme=sm4), problem, State(problem.u0(), 0.0), 0.1)
    s2 = step(StepperConfig(scheme=sm4.conjugate()), problem,
              State(problem.u0(), 0.0), 0.1)
    assert np.max(np.abs(s1.values - s2.values)) < 1e-14


def test_real_kick_coefficients_reach_the_kernel_as_floats():
    # a real kick must run real arithmetic: numpy's complex exp differs from
    # its real exp in the last bit, which would move Strang and S62 results
    for name, kind in (("Strang_BAB", float), ("S62", float), ("SM4", complex)):
        stub = CountingStub()
        integrate(StepperConfig(scheme=builtin_scheme(name)), stub, np.ones(1),
                  0.0, 1.0, 2)
        assert stub.taus and all(type(tau) is kind for tau in stub.taus), name


def test_strang_freeze_conventions_differ_but_agree_at_order_two():
    problem = make_problem("osc")
    state = State(problem.u0(), 0.0)
    mid = step(StepperConfig(STRANG, "cf2"), problem, state, 0.1)
    lit = step(StepperConfig(STRANG, "cf2", freeze_convention="literal"),
               problem, state, 0.1)
    gap = np.max(np.abs(mid.values - lit.values))
    assert 0.0 < gap < 0.2


def test_freeze_convention_moves_cf2_flows_only():
    problem = make_problem("osc")
    state = State(problem.u0(), 0.0)
    s62 = builtin_scheme("S62")
    for kind, moves in (("cf2", True), ("cf4", False)):
        mid = step(StepperConfig(s62, kind), problem, state, 0.1)
        lit = step(StepperConfig(s62, kind, freeze_convention="literal"),
                   problem, state, 0.1)
        assert np.any(mid.values != lit.values) == moves, kind


def _textbook_strang(problem, state, h, t_freeze):
    u = problem.b_kick(state.t, 0.5 * h, state.values)
    u = problem.a_frozen_exp((t_freeze,), (1.0,), h, u)
    return np.asarray(problem.b_kick(state.t + h, 0.5 * h, u), dtype=complex).real


def _assert_strang_plan(freeze, offset):
    # the strang method is the catalog Strang_BAB composition with a CF2
    # A-flow, and both equal the textbook kick-flow-kick step with A frozen
    # at offset * h into the step
    problem = make_problem("osc")
    state = State(problem.u0(), 0.0)
    direct = _textbook_strang(problem, state, 0.05, offset * 0.05)
    method = bench.resolve_method("strang", freeze_convention=freeze)
    cfg = StepperConfig(scheme=STRANG, a_flow_kind="cf2", freeze_convention=freeze)
    composed = step(cfg, problem, state, 0.05)
    assert np.max(np.abs(direct - composed.values)) < 1e-15
    assert np.array_equal(method(problem, state, 0.05, None).values, composed.values)


def test_strang_equals_scheme_strang_midpoint():
    _assert_strang_plan("midpoint", 0.5)


def test_literal_strang_freezes_at_the_step_start():
    _assert_strang_plan("literal", 0.0)


def test_ext4_counts_three_flows_and_projects():
    problem = make_problem("osc")
    record = RunRecord()
    ext4 = bench.resolve_method("ext4")
    state = ext4(problem, State(problem.u0(), 0.0), 0.1, record)
    assert record.a_flow_evals == 3
    assert np.all(state.values.imag == 0.0)


def test_ext4_is_the_richardson_combination_of_strang():
    # the osc runs combine as Python complex tuples, bit for bit numpy's
    # combination of the same runs as ndarrays
    cfg = StepperConfig(STRANG, "cf2")
    ext4 = bench.resolve_method("ext4")
    for problem in (make_problem("osc"), make_problem("parabolic")):
        state = State(problem.u0(), 0.0)
        for _ in range(32):
            half = raw_step(cfg, problem, raw_step(cfg, problem, state, 0.05), 0.05)
            whole = raw_step(cfg, problem, state, 0.1)
            combined = (4.0 / 3.0) * half.values - (1.0 / 3.0) * whole.values
            state = ext4(problem, state, 0.1, None)
            assert state.values.tobytes() == combined.real.astype(complex).tobytes()


def test_exact_a_flow_kind_on_parabolic():
    problem = make_problem("parabolic")
    cfg_exact = StepperConfig(scheme=builtin_scheme("S62"), a_flow_kind="exact")
    cfg_cf4 = StepperConfig(scheme=builtin_scheme("S62"), a_flow_kind="cf4")
    se, _ = integrate(cfg_exact, problem, problem.u0(), 0.0, 0.5, 8)
    sc, _ = integrate(cfg_cf4, problem, problem.u0(), 0.0, 0.5, 8)
    assert np.max(np.abs(se.values - sc.values)) < 1e-8


def test_exact_a_flow_on_osc_is_a_validation_error():
    # the oscillator's A(t) has no closed-form flow
    problem = make_problem("osc")
    cfg = StepperConfig(scheme=builtin_scheme("SM4"), a_flow_kind="exact")
    with pytest.raises(ValidationError, match="has no exact A-flow"):
        step(cfg, problem, State(problem.u0(), 0.0), 0.1)


@pytest.mark.parametrize("problem", ["osc", "parabolic"])
@pytest.mark.parametrize("kind", sorted(A_FLOWS))
def test_a_flow_is_the_table_row_of_the_problem(problem, kind):
    # the one check of an A-flow kind against a problem, which the step and
    # a sweep (before its reference) both make
    problem = make_problem(problem)
    flow, per_flow, per_commuting_flow = A_FLOWS[kind]
    calls = per_commuting_flow if problem.commuting else per_flow
    if calls is None:
        with pytest.raises(ValidationError) as info:
            stepper.a_flow(problem, kind)
        assert str(info.value) == "OscillatorProblem has no exact A-flow (use cf2 or cf4)"
    else:
        assert stepper.a_flow(problem, kind) == (flow, calls)


OSC_STEPS = {
    "sm4": lambda p, s: step(StepperConfig(scheme=builtin_scheme("SM4")), p, s, 0.1),
    "strang": lambda p, s: bench.resolve_method("strang")(p, s, 0.1),
    "ext4": lambda p, s: bench.resolve_method("ext4")(p, s, 0.1),
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


class NumpyFinish:
    """The ndarray finish of every step, the reference for stepper._finish; counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, u, t):
        self.calls += 1
        u = np.asarray(u, dtype=complex)
        if not np.isfinite(u).all():
            raise StepFailed("non-finite state")
        return State(u.real.astype(complex), t)


class TupleStub:
    """A 2-component problem whose kernels pass (q, p) tuples, as the oscillator's do.

    Every kick returns ``poison`` in place of the state.
    """

    commuting = False

    def __init__(self, poison):
        self.poison = poison

    def a_frozen_exp(self, times, weights, duration, state):
        return complex(state[0]), complex(state[1])

    def b_kick(self, t_frozen, tau, state):
        return self.poison


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("slot", [0, 1], ids=["q", "p"])
@pytest.mark.parametrize("method", ["sm4", "strang", "ext4"])
def test_non_finite_tuple_state_fails_the_step(method, slot, part, bad):
    value = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    poison = (value, 1.0 + 0j) if slot == 0 else (1.0 + 0j, value)
    step_fn = bench.resolve_method(method)
    with pytest.raises(StepFailed, match="^non-finite state$"):
        integrate_with(step_fn, TupleStub(poison), np.ones(2), 0.0, 1.0, 2, method)


class FirstKickPoisons:
    """Identity kernels on a 2-component state, except that the first kick returns NaN.

    In an EXT4 step only the first half-step goes non-finite: the second
    half carries its NaN on, and the whole step starts again from the clean
    state.  ``as_tuple`` makes the kernels hand back (q, p) tuples, as the
    oscillator's do, instead of ndarrays.
    """

    commuting = False

    def __init__(self, as_tuple):
        self.as_tuple = as_tuple
        self.kicks = 0

    def _out(self, state):
        return tuple(complex(z) for z in state) if self.as_tuple else np.asarray(state)

    def a_frozen_exp(self, times, weights, duration, state):
        return self._out(state)

    def b_kick(self, t_frozen, tau, state):
        self.kicks += 1
        return self._out(state) if self.kicks > 1 else self._out([math.nan, 1.0])


@pytest.mark.parametrize("as_tuple", [False, True], ids=["ndarray", "tuple"])
def test_ext4_fails_when_only_its_first_half_goes_non_finite(as_tuple):
    stub = FirstKickPoisons(as_tuple)
    record = RunRecord()
    ext4 = bench.resolve_method("ext4")
    with pytest.raises(StepFailed, match="^non-finite state$"):
        ext4(stub, State(np.ones(2, dtype=complex), 0.0), 0.1, record)
    assert stub.kicks == 3 * 2      # all three Strang runs ran to their end
    assert (record.a_flow_evals, record.kernel_evals) == (3, 3)


@pytest.mark.parametrize("name,kind", [("osc", tuple), ("parabolic", np.ndarray)])
def test_stage_runner_returns_the_kernels_state(name, kind):
    # the runner neither converts nor checks nor projects: the finish does
    problem = make_problem(name)
    cfg = StepperConfig(scheme=builtin_scheme("SM4"))
    plan = compile_stages(expand(cfg.scheme))
    u = _run_stages(cfg, problem, 0.0, problem.u0(), 0.1, plan, None)
    assert type(u) is kind
    assert np.any(np.asarray(u).imag != 0.0)


@pytest.mark.parametrize("method", ["sm4", "strang", "ext4"])
def test_osc_runs_are_bitwise_those_of_the_numpy_check(method, monkeypatch):
    problem = make_problem("osc")

    def run():
        return integrate_with(bench.resolve_method(method), problem, problem.u0(),
                              problem.t0, problem.tf, 256, method)

    state, record = run()
    finish = NumpyFinish()
    monkeypatch.setattr(stepper, "_finish", finish)
    ref_state, ref_record = run()
    assert finish.calls == 256      # the one finish of each public step ran
    assert state.values.tobytes() == ref_state.values.tobytes()
    assert state.t == ref_state.t
    assert (record.a_flow_evals, record.kernel_evals) == (
        ref_record.a_flow_evals, ref_record.kernel_evals)


def test_integrate_with_rejects_bad_n_steps():
    problem = make_problem("osc")
    with pytest.raises(ValueError):
        integrate_with(lambda *a: None, problem, problem.u0(), 0.0, 1.0, 0, "x")
