import cmath
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from conftest import OneCallKernels, conjugate, frozen_exp, kick, run_stages
from cxsplit import bench, stepper
from cxsplit.errors import RealTimeViolation, StepFailed, ValidationError
from cxsplit.problems import make_problem
from cxsplit.propagators import A_FLOWS
from cxsplit.schemes import Scheme, Stage, builtin_scheme, expand
from cxsplit.stepper import (RunRecord, State, StepperConfig,
                             compile_plan, compile_stages, extrapolate,
                             integrate, integrate_with, plan_step)

STRANG = builtin_scheme("Strang_BAB")


def step(cfg, problem, state, h, record=None):
    """One projected composition step of cfg.scheme on problem, as an ndarray State."""
    u = plan_step(cfg, problem)(state.values, state.t, h, record)
    return State(np.asarray(u, dtype=complex), state.t + h)


def raw_step(cfg, problem, state, h, record=None):
    """One unprojected composition step of cfg.scheme, as an ndarray State."""
    u = run_stages(compile_plan(cfg, problem), problem, state.t, state.values, h, record)
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
    ext = extrapolate(StepperConfig(scheme=builtin_scheme("SM4")), problem)
    u = problem.u0()
    for t in (0.0, 0.125):
        u = ext(u, t, 0.125, record)
    assert np.all(u.imag == 0.0)
    assert np.all(np.isfinite(u))
    assert record.a_flow_evals == 2 * 12


def test_complex_flow_coefficient_triggers_realness_guard():
    bad = Scheme("bad", "BAB", (1.0 + 0.2j,), (0.5 - 0.1j,), 2, True)
    problem = make_problem("osc")
    cfg = StepperConfig(scheme=bad)
    with pytest.raises(RealTimeViolation):
        step(cfg, problem, State(problem.u0(), 0.0), 0.1)


class CountingStub(OneCallKernels):
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

    def a_call(self, times, weights, duration, state):
        self.calls += 1
        self.a_calls += 1
        return state

    def kick_call(self, t_frozen, tau, state):
        self.calls += 1
        self.taus.append(tau)
        if self.poisoned and t_frozen > 0.0:
            return state * np.nan
        return state


def test_complex_flow_coefficient_rejected_before_any_kernel_call():
    bad = Scheme("bad", "BAB", (1.0 + 0.2j,), (0.5 - 0.1j,), 2, True)
    stub = CountingStub()
    with pytest.raises(RealTimeViolation):
        integrate(StepperConfig(scheme=bad), stub, np.ones(1), 0.0, 1.0, 4)
    assert stub.calls == 0


def test_nan_imaginary_flow_coefficient_rejected_before_any_kernel_call():
    # a NaN imaginary part is no more real than 0.2j: it fails the guard too
    bad = Scheme("bad", "BAB", (complex(1.0, math.nan),), (0.5,), 2, True)
    stub = CountingStub()
    with pytest.raises(RealTimeViolation, match="A-flow duration"):
        integrate(StepperConfig(scheme=bad), stub, np.ones(1), 0.0, 1.0, 4)
    assert stub.calls == 0
    problem = make_problem("parabolic")
    with pytest.raises(RealTimeViolation, match="A-flow duration"):
        integrate(StepperConfig(scheme=bad), problem, problem.u0(), 0.0, 1.0, 4)


@pytest.mark.parametrize("role", ["A", "B"])
def test_a_flow_time_1e_9_off_the_real_axis_is_rejected(role):
    # a literal imaginary part, not one relative to REAL_TIME_TOL: 1e-13 is real, 1e-9 is
    # not, on an A-flow's duration and on a kick's node
    def stage(imag):
        if role == "A":
            return Stage("A", complex(0.5, imag), 0.25)
        return Stage("B", 0.5, complex(0.25, imag))
    flow = A_FLOWS["cf2"][False]
    assert compile_stages([stage(1e-13)], flow, 0.5)[0][:2] == (0.25, 0.5)
    with pytest.raises(RealTimeViolation, match="imaginary part 1.000e-09"):
        compile_stages([stage(1e-9)], flow, 0.5)


@pytest.mark.parametrize("node", [0.2j, complex(0.0, math.nan)], ids=["complex", "nan-imag"])
def test_complex_kick_node_rejected_at_compile_time(node):
    seq = list(expand(STRANG))
    seq[0] = seq[0]._replace(c0=node)
    with pytest.raises(RealTimeViolation, match="B-kick node"):
        compile_stages(seq, A_FLOWS["cf2"][False], 0.5)


def test_nan_from_a_mid_step_kick_fails_the_step():
    # the state turns NaN at the second kick of the first step; the later
    # stages of that step still run, and the step as a whole must fail
    stub = CountingStub(poisoned=True)
    cfg = StepperConfig(scheme=builtin_scheme("SM4"))
    with pytest.raises(StepFailed):
        integrate(cfg, stub, np.ones(1), 0.0, 1.0, 4)
    assert stub.calls == len(expand(builtin_scheme("SM4")))


# a BAB scheme whose first flow has zero duration
ZERO_FLOW = Scheme("zero-flow", "BAB", (0.0, 1.0), (0.5, 0.0, 0.5), 2, False)


def _kernel_calls_per_flow(flow):
    """The kernel calls of one A_FLOWS flow, None if it cannot run; a lazy rule is made."""
    return None if flow is None else len((flow() if callable(flow) else flow)[1])


@pytest.mark.parametrize("kind,commuting,per_flow", [
    (kind, commuting, _kernel_calls_per_flow(flows[commuting]))
    for kind, flows in A_FLOWS.items() for commuting in (False, True)])
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


class FailingKernel(OneCallKernels):
    """Identity kernels on a 1-component state; call ``fail_at`` of ``kernel`` raises ValueError."""

    commuting = False

    def __init__(self, kernel, fail_at):
        self.kernel, self.fail_at = kernel, fail_at
        self.calls = {"a_frozen_exp": 0, "b_kick": 0}

    def _call(self, kernel, state):
        self.calls[kernel] += 1
        if kernel == self.kernel and self.calls[kernel] == self.fail_at:
            raise ValueError("math domain error")
        return state

    def a_call(self, times, weights, duration, state):
        return self._call("a_frozen_exp", state)

    def kick_call(self, t_frozen, tau, state):
        return self._call("b_kick", state)


@pytest.mark.parametrize("method,kernel,fail_at,stage,counts", [
    # SM4 under CF4: 4 flows of 2 calls a step; A-call 12 is the second of
    # the second flow (stage 3) of step 2: 4 + 1 flows and 8 + 2 calls ran
    ("sm4", "a_frozen_exp", 12, 3, (5, 10)),
    # EXT4: 3 Strang runs (kick, flow, kick) a step; kick 10 is the last
    # stage of step 2's second run, after its flow: 3 + 1 + 1 flows ran
    ("ext4", "b_kick", 10, 2, (5, 5)),
])
def test_a_failed_run_adds_the_counts_of_the_stages_before_it(method, kernel, fail_at,
                                                             stage, counts):
    stub = FailingKernel(kernel, fail_at)
    record = RunRecord()
    step_fn = bench.resolve_method(method, stub)
    u = step_fn(np.ones(1, dtype=complex), 0.0, 0.1, record)
    with pytest.raises(StepFailed, match="math domain error") as info:
        step_fn(u, 0.1, 0.1, record)
    assert info.value.stage == stage
    assert (record.a_flow_evals, record.kernel_evals) == counts


def test_conjugate_scheme_same_projected_step():
    # projecting after the step makes the two conjugate branches identical
    problem = make_problem("osc")
    sm4 = builtin_scheme("SM4")
    s1 = step(StepperConfig(scheme=sm4), problem, State(problem.u0(), 0.0), 0.1)
    s2 = step(StepperConfig(scheme=conjugate(sm4)), problem,
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
    u = kick(problem, state.t, 0.5 * h, state.values)
    u = frozen_exp(problem, (t_freeze,), (1.0,), h, u)
    return np.asarray(kick(problem, state.t + h, 0.5 * h, u), dtype=complex).real


def _assert_strang_plan(freeze, offset):
    # the strang method is the catalog Strang_BAB composition with a CF2
    # A-flow, and both equal the textbook kick-flow-kick step with A frozen
    # at offset * h into the step
    problem = make_problem("osc")
    state = State(problem.u0(), 0.0)
    direct = _textbook_strang(problem, state, 0.05, offset * 0.05)
    method = bench.resolve_method("strang", problem, freeze_convention=freeze)
    cfg = StepperConfig(scheme=STRANG, a_flow_kind="cf2", freeze_convention=freeze)
    composed = step(cfg, problem, state, 0.05)
    assert np.max(np.abs(direct - composed.values)) < 1e-15
    assert np.array_equal(np.asarray(method(state.values, state.t, 0.05, None)),
                          composed.values)


def test_strang_equals_scheme_strang_midpoint():
    _assert_strang_plan("midpoint", 0.5)


def test_literal_strang_freezes_at_the_step_start():
    _assert_strang_plan("literal", 0.0)


def test_ext4_counts_three_flows_and_projects():
    problem = make_problem("osc")
    record = RunRecord()
    ext4 = bench.resolve_method("ext4", problem)
    u = ext4(problem.u0(), 0.0, 0.1, record)
    assert record.a_flow_evals == 3
    assert np.all(np.asarray(u).imag == 0.0)


def test_ext4_is_the_richardson_combination_of_strang():
    # osc: the runs combine as Python float tuples, bit for bit the real part
    # of numpy's combination of the same runs from a complex ndarray;
    # parabolic: as float64 arrays, numpy's combination of the same real runs
    cfg = StepperConfig(STRANG, "cf2")
    for problem, as_run in ((make_problem("osc"), lambda u: np.asarray(u, dtype=complex)),
                            (make_problem("parabolic"), lambda u: u)):
        plan, ext4 = compile_plan(cfg, problem), bench.resolve_method("ext4", problem)
        u, t = problem.u0(), 0.0
        for _ in range(32):
            v = as_run(u)
            half = run_stages(plan, problem, t, v, 0.05)
            half = np.asarray(run_stages(plan, problem, t + 0.05, half, 0.05))
            whole = np.asarray(run_stages(plan, problem, t, v, 0.1))
            combined = ((4.0 / 3.0) * half - (1.0 / 3.0) * whole).real
            u, t = ext4(u, t, 0.1, None), t + 0.1
            assert type(u) is np.ndarray or all(type(z) is float for z in u)
            assert np.asarray(u).dtype == np.float64
            assert np.asarray(u).tobytes() == combined.tobytes()


def test_exact_a_flow_kind_on_parabolic():
    problem = make_problem("parabolic")
    cfg_exact = StepperConfig(scheme=builtin_scheme("S62"), a_flow_kind="exact")
    cfg_cf4 = StepperConfig(scheme=builtin_scheme("S62"), a_flow_kind="cf4")
    se, _ = integrate(cfg_exact, problem, problem.u0(), 0.0, 0.5, 8)
    sc, _ = integrate(cfg_cf4, problem, problem.u0(), 0.0, 0.5, 8)
    assert np.max(np.abs(se.values - sc.values)) < 1e-8


def test_exact_a_flow_on_osc_is_a_validation_error():
    # the oscillator's A(t) has no closed-form flow: compiling its step fails
    problem = make_problem("osc")
    cfg = StepperConfig(scheme=builtin_scheme("SM4"), a_flow_kind="exact")
    for compile_step in (plan_step, extrapolate):
        with pytest.raises(ValidationError, match="has no exact A-flow"):
            compile_step(cfg, problem)


@pytest.mark.parametrize("problem", ["osc", "parabolic"])
@pytest.mark.parametrize("kind", sorted(A_FLOWS))
def test_a_flow_is_the_table_row_of_the_problem(problem, kind):
    # the one check of an A-flow kind against a problem, made when a step
    # is compiled for it (a sweep compiles its steps before its reference)
    problem = make_problem(problem)
    flow = A_FLOWS[kind][problem.commuting]
    if flow is None:
        with pytest.raises(ValidationError) as info:
            stepper.a_flow(problem, kind)
        assert str(info.value) == "OscillatorProblem has no exact A-flow (use cf2 or cf4)"
    else:
        assert stepper.a_flow(problem, kind) is flow


#: method -> its step on a problem, compiled once per call
OSC_STEPS = {
    "sm4": lambda p: plan_step(StepperConfig(scheme=builtin_scheme("SM4")), p),
    "strang": lambda p: bench.resolve_method("strang", p),
    "ext4": lambda p: bench.resolve_method("ext4", p),
}


@pytest.mark.parametrize("method", sorted(OSC_STEPS))
def test_osc_step_returns_complex_ndarray(method):
    # the step maps (q, p) tuples; the run hands out its state as an ndarray
    problem = make_problem("osc")
    state, _ = integrate_with(OSC_STEPS[method](problem), problem.u0(), 0.0, 0.1, 1, method)
    assert isinstance(state.values, np.ndarray)
    assert state.values.dtype == complex and state.values.shape == (2,)


@pytest.mark.parametrize("method", sorted(OSC_STEPS))
def test_a_step_keeps_the_kernels_state_type(method):
    # osc: a tuple of Python floats, the real parts, from the run's first
    # ndarray on; parabolic: the float64 array it starts from, until a
    # complex kick (SM4) makes it a complex ndarray
    problem = make_problem("osc")
    step_fn = OSC_STEPS[method](problem)
    u = problem.u0()
    for t in (0.0, 0.1):
        u = step_fn(u, t, 0.1)
        assert type(u) is tuple and len(u) == 2
        assert all(type(z) is float for z in u)
    problem = make_problem("parabolic")
    u = OSC_STEPS[method](problem)(problem.u0(), 0.0, 0.1)
    assert type(u) is np.ndarray and u.shape == (problem.n_grid,)
    assert u.dtype == (complex if method == "sm4" else np.float64)
    assert not np.signbit(u.imag).any() and np.all(u.imag == 0.0)


@pytest.mark.parametrize("values", [[np.inf, 1.0], [0.0, 1e308j]],
                         ids=["inf", "huge-imag"])
@pytest.mark.parametrize("method", sorted(OSC_STEPS))
def test_non_finite_osc_state_fails_the_step(method, values):
    # cmath.sin raises ValueError (infinite argument) or OverflowError (huge
    # imaginary part) where np.sin returns inf or nan: still StepFailed
    problem = make_problem("osc")
    with pytest.raises(StepFailed):
        OSC_STEPS[method](problem)(np.array(values, dtype=complex), 0.0, 0.1)


@pytest.mark.parametrize("values,t,h", [((math.inf, 1.0), 0.0, 0.1),
                                         ((math.nan, 1.0), 0.0, 0.1),
                                         ((1e308, 1e308), 2.0 * math.pi / 3.0 - 0.5, 1.0)],
                         ids=["inf", "nan", "overflow"])
@pytest.mark.parametrize("method", sorted(bench.METHODS))
def test_non_finite_float_osc_state_fails_the_step(method, values, t, h):
    # math.sin raises ValueError on an infinite argument, and a float that
    # overflows becomes inf, which the finish catches.  (1e308, 1e308) stays
    # finite over a step of 0.1 from t = 0; this step spans Omega's minimum
    # 1/2 at t = 2 pi / 3, where the A-flow swings q past the largest float
    problem = make_problem("osc")
    with pytest.raises(StepFailed):
        bench.resolve_method(method, problem)(values, t, h)


def test_a_direct_step_whose_state_half_overflows_fails_quietly():
    # a step called directly, outside integrate_with, silences numpy as a run does: the
    # spectral flow's transform of a 1e308 state overflows, and the step fails at its
    # finish with no RuntimeWarning
    problem = make_problem("parabolic", n_grid=8)
    step_fn = bench.resolve_method("strang", problem)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StepFailed, match="^non-finite state$"):
            step_fn(np.full(8, 1e308), 0.0, 1.0)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class NumpyFinish:
    """The ndarray finish of every step, the reference for stepper._finish; counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, u):
        self.calls += 1
        u = np.asarray(u, dtype=complex)
        if not np.isfinite(u).all():
            raise StepFailed("non-finite state")
        return u.real.astype(complex)


class TupleStub(OneCallKernels):
    """A 2-component problem whose kernels pass (q, p) tuples, as the oscillator's do.

    Every kick returns ``poison`` in place of the state.
    """

    commuting = False

    def __init__(self, poison):
        self.poison = poison

    def a_call(self, times, weights, duration, state):
        return complex(state[0]), complex(state[1])

    def kick_call(self, t_frozen, tau, state):
        return self.poison


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("slot", [0, 1], ids=["q", "p"])
@pytest.mark.parametrize("method", ["sm4", "strang", "ext4"])
def test_non_finite_tuple_state_fails_the_step(method, slot, part, bad):
    value = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    poison = (value, 1.0 + 0j) if slot == 0 else (1.0 + 0j, value)
    step_fn = bench.resolve_method(method, TupleStub(poison))
    with pytest.raises(StepFailed, match="^non-finite state$"):
        integrate_with(step_fn, np.ones(2), 0.0, 1.0, 2, method)


class FirstKickPoisons(OneCallKernels):
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

    def a_call(self, times, weights, duration, state):
        return self._out(state)

    def kick_call(self, t_frozen, tau, state):
        self.kicks += 1
        return self._out(state) if self.kicks > 1 else self._out([math.nan, 1.0])


@pytest.mark.parametrize("as_tuple", [False, True], ids=["ndarray", "tuple"])
def test_ext4_fails_when_only_its_first_half_goes_non_finite(as_tuple):
    stub = FirstKickPoisons(as_tuple)
    record = RunRecord()
    ext4 = bench.resolve_method("ext4", stub)
    with pytest.raises(StepFailed, match="^non-finite state$"):
        ext4(np.ones(2, dtype=complex), 0.0, 0.1, record)
    assert stub.kicks == 3 * 2      # all three Strang runs ran to their end
    assert (record.a_flow_evals, record.kernel_evals) == (3, 3)


@pytest.mark.parametrize("name,kind", [("osc", tuple), ("parabolic", np.ndarray)])
def test_stage_runner_returns_the_kernels_state(name, kind):
    # the runner neither converts nor checks nor projects: the finish does
    problem = make_problem(name)
    cfg = StepperConfig(scheme=builtin_scheme("SM4"))
    u = run_stages(compile_plan(cfg, problem), problem, 0.0, problem.u0(), 0.1)
    assert type(u) is kind
    assert np.any(np.asarray(u).imag != 0.0)


@pytest.mark.parametrize("method", ["sm4", "strang", "ext4"])
def test_osc_runs_are_bitwise_those_of_the_numpy_check(method, monkeypatch):
    problem = make_problem("osc")

    def run():
        return integrate_with(bench.resolve_method(method, problem), problem.u0(),
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


class ComplexFinish:
    """The finish of an osc step with its tuple projected onto Python complex,
    complex(z.real): the reference for the float projection; counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, u):
        self.calls += 1
        if not all(map(cmath.isfinite, u)):
            raise StepFailed("non-finite state")
        return tuple([complex(z.real) for z in u])


@pytest.mark.parametrize("method", sorted(bench.METHODS))
def test_osc_float_runs_are_bitwise_the_complex_runs(method, monkeypatch):
    # the float state of a real-coefficient scheme takes the real parts of
    # the complex state's arithmetic, so the runs end on the same bits
    problem = make_problem("osc")

    def run():
        return integrate_with(bench.resolve_method(method, problem), problem.u0(),
                              problem.t0, problem.tf, 64, method)

    state, record = run()
    finish = ComplexFinish()
    monkeypatch.setattr(stepper, "_finish", finish)
    ref_state, ref_record = run()
    assert finish.calls == 64
    assert state.values.tobytes() == ref_state.values.tobytes()
    assert state.t == ref_state.t
    assert (record.a_flow_evals, record.kernel_evals) == (
        ref_record.a_flow_evals, ref_record.kernel_evals)


class CountingState(State):
    """stepper.State that counts the instances made."""

    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("n_steps", [1, 2, 33])
@pytest.mark.parametrize("name", ["osc", "parabolic"])
def test_integrate_with_makes_one_state_per_run(name, n_steps, monkeypatch):
    problem = make_problem(name)
    monkeypatch.setattr(stepper, "State", CountingState)
    monkeypatch.setattr(CountingState, "made", 0)
    state, record = integrate_with(bench.resolve_method("sm4", problem), problem.u0(),
                                   0.0, 0.1, n_steps, "sm4")
    assert CountingState.made == 1 and type(state) is CountingState
    assert isinstance(state.values, np.ndarray) and state.values.dtype == complex
    assert record.n_steps == n_steps


def test_integrate_with_rejects_bad_n_steps():
    problem = make_problem("osc")
    with pytest.raises(ValueError):
        integrate_with(lambda *a: None, problem.u0(), 0.0, 1.0, 0, "x")


@pytest.mark.parametrize("kind", stepper.A_FLOW_KINDS)
@pytest.mark.parametrize("name", ["parabolic", "fisher"])
@pytest.mark.parametrize("method", ["strang", "s62", "ext4", "cf4"])
def test_real_schemes_keep_a_float64_pde_state(method, name, kind):
    # every flow and kick of a real-coefficient scheme is real: the state is
    # a float64 array at every step boundary, from u0() to the run's end
    problem = make_problem(name)
    step_fn = bench.resolve_method(method, problem, kind)
    u = problem.u0()
    assert u.dtype == np.float64
    for k in range(8):
        u = step_fn(u, k * 0.125, 0.125)
        assert type(u) is np.ndarray and u.dtype == np.float64 and u.shape == (problem.n_grid,)
    with pytest.raises(StepFailed, match="^non-finite state$"):
        step_fn(np.full(problem.n_grid, math.nan), 0.0, 0.125)


@pytest.mark.parametrize("kind", stepper.A_FLOW_KINDS)
@pytest.mark.parametrize("name", ["parabolic", "fisher"])
@pytest.mark.parametrize("method", ["sm4", "sm64"])
def test_complex_kick_schemes_from_a_real_state_keep_their_bits(method, name, kind):
    # the first kick of SM4 and SM64 is complex: it makes x the x + 0j that a
    # complex initial state holds, so the runs end on the same bits
    problem = make_problem(name)
    step_fn = bench.resolve_method(method, problem, kind)
    u0 = problem.u0()
    real, _ = integrate_with(step_fn, u0, problem.t0, problem.tf, 16, method)
    cplx, _ = integrate_with(step_fn, u0.astype(complex), problem.t0, problem.tf, 16, method)
    assert real.values.tobytes() == cplx.values.tobytes()
    assert step_fn(u0, 0.0, 0.125).dtype == complex


def test_integrate_with_keeps_a_float64_state_and_makes_others_complex():
    seen = []

    def step_fn(u, t, h, record):
        seen.append(u)
        return u

    u0 = np.ones(3)
    state, _ = integrate_with(step_fn, u0, 0.0, 1.0, 2, "x")
    assert seen[0] is u0 and state.values.dtype == complex
    for other in ([1.0, 2.0], np.ones(2, dtype=np.float32), np.ones(2, dtype=complex)):
        integrate_with(step_fn, other, 0.0, 1.0, 1, "x")
        assert type(seen[-1]) is np.ndarray and seen[-1].dtype == complex


def _one_step_calls(step_fn, u0, t0, tf, n_steps):
    """A run as repeated one-step calls of step_fn from the clock t + h: (state bytes, t,
    a_flow_evals, kernel_evals), the integrate_with reference."""
    h, record = (tf - t0) / n_steps, RunRecord()
    u = u0 if type(u0) is np.ndarray and u0.dtype == np.float64 else np.asarray(u0, complex)
    t = t0
    for _ in range(n_steps):
        u = step_fn(u, t, h, record)
        t = t + h
    return np.asarray(u, dtype=complex).tobytes(), t, record.a_flow_evals, record.kernel_evals


def _run_outcome(step_fn, u0, t0, tf, n_steps):
    state, record = integrate_with(step_fn, u0, t0, tf, n_steps, "x")
    return state.values.tobytes(), state.t, record.a_flow_evals, record.kernel_evals


@pytest.mark.parametrize("name", ["osc", "parabolic", "fisher"])
@pytest.mark.parametrize("method", sorted(bench.METHODS))
def test_a_chunked_run_is_bitwise_its_one_step_calls(method, name):
    # integrate_with hands the step chunks of start times, which its time halves
    # tabulate; the same step called once per step gives the same bytes and counts:
    # over several chunks ending in a partial one, from t0 != 0, and within one chunk
    problem = make_problem(name, **({} if name == "osc" else {"n_grid": 8}))
    step_fn = bench.resolve_method(method, problem)
    n_long = 2 * stepper.CHUNK_STEPS + 5
    for t0, tf, n_steps in ((0.0, 1.0, n_long), (0.37, 2.1, n_long), (-0.2, 0.3, 3)):
        args = (problem.u0(), t0, tf, n_steps)
        assert _run_outcome(step_fn, *args) == _one_step_calls(step_fn, *args), (t0, n_steps)


@pytest.mark.parametrize("name", ["osc", "parabolic", "fisher"])
@pytest.mark.parametrize("method", sorted(bench.METHODS))
def test_a_step_reused_after_a_run_with_another_h_keeps_its_bits(method, name):
    # nothing a run tabulates outlives it: a step that ran with one h gives the
    # bytes and counts of a fresh one with another
    problem = make_problem(name, **({} if name == "osc" else {"n_grid": 8}))
    used = bench.resolve_method(method, problem)
    _run_outcome(used, problem.u0(), 0.0, 1.0, stepper.CHUNK_STEPS + 3)
    fresh = bench.resolve_method(method, make_problem(problem.key(), **(
        {} if name == "osc" else {"n_grid": 8})))
    args = (problem.u0(), 0.1, 0.9, stepper.CHUNK_STEPS - 5)
    assert _run_outcome(used, *args) == _run_outcome(fresh, *args)
    assert _run_outcome(used, *args) == _one_step_calls(used, *args)


@pytest.mark.parametrize("method", ["strang", "ext4", "sm4"])
def test_a_step_is_freed_when_its_last_reference_goes(method):
    # a compiled step holds its plan and problem (for a PDE, its spectra and
    # kick factors): in a reference cycle they would wait for the cycle
    # collector after every sweep point instead of going with the step
    problem = make_problem("parabolic", n_grid=8)
    step_fn = bench.resolve_method(method, problem)
    integrate_with(step_fn, problem.u0(), 0.0, 1.0, stepper.CHUNK_STEPS + 3, method)
    freed = weakref.ref(step_fn)
    gc.disable()
    try:
        del step_fn
        assert freed() is None
    finally:
        gc.enable()


class TimeHalfFails(OneCallKernels):
    """Identity kernels on a 1-component state whose time half of ``kernel`` ("a" or "b")
    fails, as ``math`` does on a huge time, once a time of its list reaches ``fail_from``.
    A kick frozen at ``kick_fails_at`` fails in its state half."""

    commuting = False

    def __init__(self, kernel, fail_from, kick_fails_at=None):
        self.kernel, self.fail_from, self.kick_fails_at = kernel, fail_from, kick_fails_at

    def _check(self, kernel, times):
        if kernel == self.kernel and max(times) >= self.fail_from:
            raise OverflowError("math range error")

    def a_frozen_coeffs(self, times, calls, taus):
        self._check("a", times.ravel().tolist())
        return super().a_frozen_coeffs(times, calls, taus)

    def b_kick_coeffs(self, t_frozen, taus):
        self._check("b", t_frozen.ravel().tolist())
        return super().b_kick_coeffs(t_frozen, taus)

    def a_call(self, times, weights, duration, state):
        return state

    def kick_call(self, t_frozen, tau, state):
        if t_frozen == self.kick_fails_at:
            raise ValueError("math domain error")
        return state


def _failure(run):
    with pytest.raises(StepFailed) as info:
        run()
    return type(info.value), str(info.value), info.value.stage


def _clock(h, k):
    t = 0.0
    for _ in range(k):
        t = t + h
    return t


@pytest.mark.parametrize("kernel,offset,stage,counts", [
    # step k's first flow is the first call at t_k + o tau, o > 0: no stage of
    # step k counts
    ("a", 1e-12, 1, (0, 0)),
    # the kick frozen at t_k + h/2 is SM4's stage 4, after two flows of 2 calls
    ("b", 0.5, 4, (2, 4)),
])
def test_a_time_half_failing_inside_a_chunk_fails_at_its_step_and_stage(kernel, offset,
                                                                       stage, counts):
    # the chunk's tables fail before any of its steps runs; the step then runs the
    # chunk one step at a time, so the run fails as a step-by-step run does: at step
    # k, at the stage, with the counts of the k steps and the stages before it
    n, k = 2 * stepper.CHUNK_STEPS + 5, stepper.CHUNK_STEPS + 7
    h = 1.0 / n
    stub = TimeHalfFails(kernel, _clock(h, k) + offset * h)
    step_fn = bench.resolve_method("sm4", stub)
    expect = (StepFailed, f"stage {stage}: math range error", stage)
    assert _failure(lambda: integrate_with(step_fn, np.ones(1), 0.0, 1.0, n, "x")) == expect
    record = RunRecord()
    chunk = [_clock(h, i) for i in range(n)]
    assert _failure(lambda: step_fn(np.ones(1), chunk, h, record)) == expect
    assert (record.a_flow_evals, record.kernel_evals) == (4 * k + counts[0],
                                                          8 * k + counts[1])
    one_by_one = RunRecord()

    def steps():
        u = np.ones(1)
        for t in chunk:
            u = step_fn(u, t, h, one_by_one)
    assert _failure(steps) == expect
    assert one_by_one == record


@pytest.mark.parametrize("method", sorted(bench.METHODS))
def test_a_state_half_failing_before_a_time_half_wins(method):
    # a step runs its stages in turn: the kick at t_n (stage 0) fails in its state
    # half before any later stage's time half, which fails too, is reached
    stub = TimeHalfFails("a", 0.0, kick_fails_at=0.0)
    step_fn = bench.resolve_method(method, stub)
    if method == "cf4":     # one flow and no kick: the time half's failure
        expect = (StepFailed, "stage 0: math range error", 0)
    else:
        expect = (StepFailed, "stage 0: math domain error", 0)
    for t in (0.0, [0.0, 0.1]):
        assert _failure(lambda: step_fn(np.ones(1), t, 0.1)) == expect
