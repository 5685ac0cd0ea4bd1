import math
import os
import pickle
import time
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from cxsplit import bench, cli, problems, propagators
from cxsplit.errors import (CxsplitError, DesignScanUnreliable, InsufficientData,
                            InvalidSequence, NoSolutionFound, NoStableSolution,
                            NotInCatalog, ParseError, RealTimeViolation,
                            ReferenceInconsistent, ReferenceTooCostly, StepFailed,
                            StepTooLarge, ValidationError)
from cxsplit.problems import (OMEGA_J, OMEGA_MID, OMEGA_STEP, PROBLEMS,
                              REF_AGREE_TOL, REF_HEADER, REF_MAGIC, REF_MAX_UPDATES,
                              REF_OSC_RK4_STEPS, REF_PDE_RK4_MIN_STEPS, REF_VERSION, RK4_CHUNK,
                              TWO_PI, FisherProblem, OscillatorProblem, ParabolicProblem,
                              _cache_path, _classical_oracle, _read_cache, _rk4_osc, _write_cache,
                              default_cache_dir, make_problem, reference_solution,
                              rk4_integrate)
from cxsplit.propagators import (A_FLOWS, CF4_ALPHA, CF4_BETA, exp_2x2, exp_circulant,
                                 weighted_sum)
from cxsplit.stepper import integrate_with

from conftest import (assert_no_child_left, big_omega, dense_expm, dense_laplacian,
                      frozen_exp, kick, osc_rhs, run_flow)


def test_make_problem_dispatch():
    assert isinstance(make_problem("osc"), OscillatorProblem)
    assert isinstance(make_problem("parabolic"), ParabolicProblem)
    assert isinstance(make_problem("fisher"), FisherProblem)
    with pytest.raises(ValueError):
        make_problem("heat")


def test_oscillator_rhs_splits_into_parts():
    problem = make_problem("osc")
    u = np.array([0.7, -0.4])
    t = 1.3
    rhs = osc_rhs(problem)(t, u)
    assert rhs[0] == pytest.approx(u[1])
    kick_only = kick(problem, t, 1.0, u.astype(complex))
    frozen_force = (kick_only[1] - u[1]).real        # -eps * sum sin(...)
    assert rhs[1] == pytest.approx(
        -big_omega(t) ** 2 * u[0] + frozen_force)


def test_oscillator_frozen_exp_is_exact_for_constant_omega():
    problem = make_problem("osc")
    w = big_omega(0.7)
    u = frozen_exp(problem, (0.7,), (1.0,), 0.2, np.array([1.0, 0.0 + 0j]))
    assert u[0].real == pytest.approx(math.cos(0.2 * w))
    assert u[1].real == pytest.approx(-w * math.sin(0.2 * w))


def _dense_a(problem, t):
    """A(t) as a dense matrix: the generator that a_frozen_exp exponentiates."""
    if isinstance(problem, OscillatorProblem):
        return np.array([[0.0, 1.0], [-big_omega(t) ** 2, 0.0]])
    return problem.alpha(t) ** 2 * dense_laplacian(problem.lap)


@pytest.mark.parametrize("name", ["osc", "parabolic", "fisher"])
def test_a_frozen_exp_exponentiates_the_weighted_generator(name):
    # the protocol: exp(duration * sum_i w_i A(t_i)); on commuting A(t) whatever sum_i w_i
    # is, on the oscillator's for weights that fold to 1.0, as every call of its flows does
    problem = make_problem(name) if name == "osc" else make_problem(name, n_grid=16)
    rng = np.random.default_rng(11)
    rules = (((0.3, 0.9, -0.2), (1.0,), (CF4_BETA, CF4_ALPHA)) if name == "osc" else
             ((1.0, 1.0), (0.3, 0.9, -0.4), (2.5,), (1.0, -1.0)))
    for weights in rules:
        assert name != "osc" or weighted_sum(repeat(1.0), weights) == 1.0
        times = tuple(rng.uniform(0.0, TWO_PI, len(weights)))
        u = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
        generator = sum(w * _dense_a(problem, t) for t, w in zip(times, weights))
        expect = dense_expm(0.05 * generator) @ u
        got = np.asarray(frozen_exp(problem, times, weights, 0.05, u), dtype=complex)
        assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect))


def test_non_commuting_flows_call_with_weights_that_sum_to_one():
    # the oscillator's A-half exponentiates [[0, 1], [-sum_i w_i Omega(t_i)^2, 0]], which is
    # sum_i w_i A(t_i) only where the weights fold to exactly 1.0: a flow that breaks the
    # rule fails here
    for kind, (flow, _) in A_FLOWS.items():
        if flow is not None:
            for weights, _ in (flow() if callable(flow) else flow)[1]:
                assert weighted_sum(repeat(1.0), weights) == 1.0, (kind, weights)


def _numpy_a_frozen_exp(problem, times, weights, duration, state):
    """The osc A-kernel on numpy complex scalars: the reference for a_frozen_exp."""
    omega_sq = sum(w * big_omega(t) ** 2 for t, w in zip(times, weights))
    [c], [s], [n] = exp_2x2(np.array([omega_sq]), duration)
    q, p = state[0], state[1]
    return np.array([c * q + s * p, n * q + c * p], dtype=complex)


def _numpy_b_kick(problem, t_frozen, tau, state):
    """The osc B-kick on numpy complex scalars and np.sin: the reference for b_kick."""
    q, p = state[0], state[1]
    kick = sum(np.sin(q - w * t_frozen) for w in problem.omega_j)
    return np.array([q, p - tau * problem.epsilon * kick], dtype=complex)


def test_osc_kernels_match_numpy_formulas():
    # The kernels square by multiplication and sum the three sines in closed
    # form, so they differ from these formulas by round-off: on these 300
    # calls, each one step through the time and state halves, a_frozen_exp
    # keeps every bit and b_kick is at most 2.9e-16 off (1.4e-15 over 1e5
    # calls of the same kind; the closed form itself is checked against the
    # three sines in the next test).
    problem = make_problem("osc")
    rng = np.random.default_rng(20)
    rules = ((1.0,), (CF4_BETA, CF4_ALPHA), (CF4_ALPHA, CF4_BETA), (0.5, 0.5))
    worst = 0.0
    for _ in range(300):
        state = rng.uniform(-12.0, 12.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
        t = rng.uniform(0.0, TWO_PI)
        weights = rules[rng.integers(len(rules))]
        times = tuple(t + 0.2 * rng.uniform(size=len(weights)))
        duration = rng.uniform(-0.2, 0.2)
        tau = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
        expect_a = _numpy_a_frozen_exp(problem, times, weights, duration, state)
        expect_b = _numpy_b_kick(problem, t, tau, state)
        for given in (state, tuple(map(complex, state))):
            got_a = frozen_exp(problem, times, weights, duration, given)
            got_b = kick(problem, t, tau, given)
            for got, expect in ((got_a, expect_a), (got_b, expect_b)):
                assert type(got) is tuple and len(got) == 2
                assert all(type(x) is complex for x in got)
                err = np.max(np.abs(np.array(got) - expect))
                worst = max(worst, err / max(1.0, np.max(np.abs(expect))))
    assert worst <= 1e-15


def test_osc_kernel_halves_on_a_chunk_match_numpy_formulas():
    # The time halves tabulate a chunk of 75 steps per rule at once; each row
    # the state halves apply gives the one-step formulas above: a_frozen_exp
    # bit for bit, b_kick within the same round-off bound.
    problem = make_problem("osc")
    rng = np.random.default_rng(21)
    rules = ((1.0,), (CF4_BETA, CF4_ALPHA), (CF4_ALPHA, CF4_BETA), (0.5, 0.5))
    worst = 0.0
    for weights in rules:
        states = rng.uniform(-12.0, 12.0, (75, 2)) + 1j * rng.uniform(-1.0, 1.0, (75, 2))
        ts = rng.uniform(0.0, TWO_PI, 75)
        times = [(ts + 0.2 * rng.uniform(size=75)).tolist() for _ in weights]
        duration = rng.uniform(-0.2, 0.2)
        tau = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
        [[a_rows]] = problem.a_frozen_coeffs(np.array([[t] for t in times]), ((weights, 1.0),),
                                             [duration])
        [b_rows] = problem.b_kick_coeffs(ts[None], [tau])
        for i, (a_row, b_row) in enumerate(zip(a_rows, b_rows, strict=True)):
            state = tuple(map(complex, states[i]))
            expect_a = _numpy_a_frozen_exp(problem, [t[i] for t in times], weights, duration,
                                           state)
            expect_b = _numpy_b_kick(problem, ts[i], tau, state)
            got_a = problem.a_frozen_exp(a_row, state)
            got_b = problem.b_kick(b_row, state)
            assert np.array(got_a).tobytes() == expect_a.tobytes()
            err = np.max(np.abs(np.array(got_b) - expect_b))
            worst = max(worst, err / max(1.0, np.max(np.abs(expect_b))))
    assert worst <= 1e-15


def test_numpy_trig_has_math_bits_on_the_osc_time_half_arguments(monkeypatch):
    # The oscillator's time halves take numpy's float64 cos, sin and sqrt for math's (and
    # _osc_terms numpy's cos): this holds on the arguments of a sweep-osc run, every method
    # of bench.METHODS at 16 to 1024 steps, or the osc outputs move with the platform
    args = {"cos": [], "sin": [], "sqrt": []}
    math_ufunc, exp = propagators.math_ufunc, problems.exp_2x2

    def recorded_ufunc(ufunc, x):
        args[ufunc.__name__].append(x.ravel())
        return math_ufunc(ufunc, x)

    def recorded_exp(omega_sq, tau):
        args["sqrt"].append(omega_sq.ravel())
        args["cos"].append((tau * np.sqrt(omega_sq)).ravel())
        return exp(omega_sq, tau)
    for module in (problems, propagators):
        monkeypatch.setattr(module, "math_ufunc", recorded_ufunc)
    monkeypatch.setattr(problems, "exp_2x2", recorded_exp)
    problem = make_problem("osc")
    for method in bench.METHODS:
        step_fn = bench.resolve_method(method, problem)
        for n_steps in (2 ** k for k in range(4, 11)):
            integrate_with(step_fn, problem.u0(), problem.t0, problem.tf, n_steps, method)
    for name, parts in args.items():
        x = np.concatenate(parts)
        assert x.size > 5 * 10 ** 4       # every method, at every step count
        want = np.array(list(map(getattr(math, name), x.tolist())))
        off = np.flatnonzero(getattr(np, name)(x).view(np.int64) != want.view(np.int64))
        assert not off.size, (
            f"numpy's float64 {name} differs from math.{name} in the last bits at "
            f"{x[off[:3]].tolist()}: the premise of the oscillator's numpy time halves, "
            f"that numpy gives math's bits, does not hold on this platform")


def test_osc_time_halves_raise_as_math_at_an_infinite_argument():
    # numpy's cos is NaN at inf where math's raises: the halves raise as math does, and a
    # step fails at its first stage; a NaN time is NaN in math as well, and does not raise
    problem = make_problem("osc")
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ValueError, match="math domain error"):
            problem.b_kick_coeffs(np.array([[0.5, math.inf]]), [0.1])
        with pytest.raises(ValueError, match="math domain error"):
            problem.a_frozen_coeffs(np.array([[[0.5, 1.5e308]]]), (((1.0,), 1.0),), [0.1])
        [rows] = problem.b_kick_coeffs(np.array([[math.nan]]), [0.1])
    assert all(map(math.isnan, next(rows)[:2]))
    # a step called directly, outside integrate_with, is as quiet as on floats:
    # RuntimeWarning is an error in this suite
    step_fn = bench.resolve_method("sm4", problem)
    for run in (lambda: integrate_with(step_fn, problem.u0(), 1.7e308, 1.7e308, 40, "sm4"),
                lambda: step_fn(problem.u0(), 1.7e308, 1e-3)):
        with pytest.raises(StepFailed, match="^stage 0: math domain error$") as info:
            run()
        assert info.value.stage == 0


def test_osc_forcing_closed_form_is_the_three_sine_sum():
    # sum_j sin(q - w_j t) = sin(q - w_2 t) (1 + 2 cos(d t)) for w_j = w_2 + (j - 2) d.
    # Rounding w_j t already costs each form up to about 5e-14 against a
    # 40-digit sum; the two forms differ by at most 6.2e-14 over 2e5 such points.
    assert OscillatorProblem.omega_j == OMEGA_J
    assert OMEGA_J == (OMEGA_MID - OMEGA_STEP, OMEGA_MID, OMEGA_MID + OMEGA_STEP)
    problem = make_problem("osc", epsilon=1.0)
    rng = np.random.default_rng(36)
    n = 10 ** 4
    ts = rng.uniform(0.0, TWO_PI, n)
    real_q = rng.uniform(-12.0, 12.0, n)

    def three_sines(qs):
        return 0.0 + np.sin(qs - 7.0 * ts) + np.sin(qs - 14.0 * ts) + np.sin(qs - 21.0 * ts)

    for qs in (real_q, rng.uniform(-12.0, 12.0, n) + 1j * rng.uniform(-1.0, 1.0, n)):
        # with epsilon = tau = 1 and p = 0 a kick returns p = -(the forcing), exactly
        kicks = [-kick(problem, t, 1.0, (q, 0.0))[1] for t, q in zip(ts.tolist(), qs.tolist())]
        assert np.max(np.abs(np.array(kicks) - three_sines(qs))) <= 1e-13
    # the array right-hand side, which the RK4 loop is pinned to, on the real points
    rhs = osc_rhs(problem)
    for t, q, expect in zip(ts.tolist(), real_q.tolist(), three_sines(real_q).tolist()):
        omega = big_omega(t)
        force = rhs(t, np.array([q, 0.0]))[1]
        assert abs(force - (-(omega * omega) * q - expect)) <= 1e-13


def test_parabolic_kick_is_pointwise_exponential():
    problem = make_problem("parabolic")
    u = problem.u0()
    tau = 0.02 - 0.01j
    kicked = kick(problem, 0.4, tau, u)
    assert np.allclose(kicked, u * np.exp(tau * problem.potential(0.4)))


@pytest.mark.parametrize("tau", [0.013, -0.004, 0.02 - 0.01j, 0.005 + 0.003j])
def test_parabolic_factored_kick_matches_the_pointwise_exponential(tau):
    # exp(tau V) as exp(0.3 tau (1 - e^-t)) * exp(0.1 tau sin(2 pi x)), the
    # second factor taken per tau: within 1e-14 of the one-exponential kick
    problem = make_problem("parabolic")
    rng = np.random.default_rng(4)
    for t in (0.0, 0.37, 1.0, 0.37):
        u = rng.standard_normal(problem.n_grid) + 1j * rng.standard_normal(problem.n_grid)
        expect = u * np.exp(tau * problem.potential(t))
        got = kick(problem, t, tau, u)
        assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-14


def test_parabolic_kick_factors_are_per_problem():
    # sin(2 pi x) depends on n_grid: each grid kicks with its own factor
    coarse, fine = make_problem("parabolic", n_grid=8), make_problem("parabolic", n_grid=12)
    for problem in (coarse, fine, coarse):
        u = problem.u0()
        expect = u * np.exp(0.25 * problem.potential(0.5))
        assert np.allclose(kick(problem, 0.5, 0.25, u), expect, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("tau", [0.013, complex(0.013), 0.02 - 0.01j])
def test_parabolic_kick_bits_do_not_depend_on_earlier_kicks(tau):
    # a call takes each factor once per tau's value, and complex(x) == x: a kick keeps
    # its bits after a kick of the same call by a tau of equal value and either type
    problem = make_problem("parabolic")
    u = problem.u0()
    alone = kick(problem, 0.3, tau, u)
    for earlier in (0.013, complex(0.013), tau):
        _, rows = problem.b_kick_coeffs(np.array([[0.3], [0.3]]), [earlier, tau])
        got = problem.b_kick(next(rows), u)
        assert got.dtype == alone.dtype and got.tobytes() == alone.tobytes()


def test_parabolic_potential_matches_closed_form_bitwise():
    problem = make_problem("parabolic")
    for t in (0.0, 0.4, 1.0):
        direct = 0.1 * (3.0 * (1.0 - math.exp(-t)) + np.sin(TWO_PI * problem.x))
        assert np.array_equal(problem.potential(t), direct)


def test_parabolic_apply_laplacian_matches_dense():
    problem = make_problem("parabolic", n_grid=12)
    u = np.cos(2.0 * np.pi * problem.x)
    assert np.allclose(problem.apply_laplacian(u), dense_laplacian(problem.lap) @ u)


def test_parabolic_exact_flow_matches_quadrature_limit():
    problem = make_problem("parabolic", n_grid=16)
    u = problem.u0()
    out = run_flow("exact", problem, 0.1, 0.2, u)
    # brute-force Riemann integral of alpha^2
    s = np.linspace(0.1, 0.3, 20001)
    integral = np.trapezoid([problem.alpha(t) ** 2 for t in s], s)
    ref = exp_circulant(problem.lap, integral, u)
    assert np.max(np.abs(out - ref)) < 1e-10


def _quadrature_exact_flow(problem, t0, h, state):
    """exp(int_t0^{t0+h} alpha(s)^2 ds * Lap) by 20-point Gauss-Legendre.

    The closed formula of the exact flow: the reference for the exact A-flow.
    """
    nodes, wts = np.polynomial.legendre.leggauss(20)
    s = t0 + 0.5 * h * (nodes + 1.0)
    integral = 0.5 * h * sum(w * problem.alpha(t) ** 2 for t, w in zip(s, wts))
    return exp_circulant(problem.lap, integral, state)


@pytest.mark.parametrize("name", ["parabolic", "fisher"])
def test_exact_step_equals_the_quadrature_formula_bitwise(name):
    problem = make_problem(name)
    rng = np.random.default_rng(9)
    for _ in range(200):
        t0, h = rng.uniform(0.0, 1.0), rng.uniform(-0.05, 0.25)
        u = rng.standard_normal(problem.n_grid) + 1j * rng.standard_normal(problem.n_grid)
        got = run_flow("exact", problem, t0, h, u)
        assert got.tobytes() == _quadrature_exact_flow(problem, t0, h, u).tobytes()


def test_fisher_kick_logistic_properties():
    problem = make_problem("fisher")
    ones = np.ones(problem.n_grid, dtype=complex)
    # u = 0 and u = 1 are fixed points of the logistic reaction
    assert np.allclose(kick(problem, 0.5, 0.3, 0.0 * ones), 0.0)
    assert np.allclose(kick(problem, 0.5, 0.3, ones), 1.0)
    # gamma > 0 grows states below the carrying capacity
    half = 0.5 * ones
    assert np.all(kick(problem, 0.5, 1.0, half).real > 0.5)


def test_fisher_kick_singular_denominator_raises():
    problem = make_problem("fisher")
    grow = math.exp(problem.gamma(0.0) * 1.0)
    bad = np.full(problem.n_grid, -1.0 / (grow - 1.0), dtype=complex)
    with pytest.raises(StepFailed):
        kick(problem, 0.0, 1.0, bad)


@pytest.mark.parametrize("gap,fails", [(0.9e-12, True), (1.1e-12, False)])
def test_fisher_kick_guard_threshold(gap, fails):
    # one entry puts |1 + u (grow - 1)| at `gap`: the step fails at or below 1e-12
    problem = make_problem("fisher")
    tau = 0.7
    grow = math.exp(problem.gamma(0.2) * tau)
    u = np.full(problem.n_grid, 0.5, dtype=complex)
    u[3] = (gap - 1.0) / (grow - 1.0)
    assert abs(1.0 + u[3] * (grow - 1.0)) == pytest.approx(gap, rel=1e-3)
    if fails:
        with pytest.raises(StepFailed, match="singular logistic denominator"):
            kick(problem, 0.2, tau, u)
    else:
        assert np.all(np.isfinite(kick(problem, 0.2, tau, u)))
    # a NaN entry neither masks a singular entry nor counts as one itself
    u[7] = complex(math.nan, 0.0)
    if fails:
        with pytest.raises(StepFailed, match="singular logistic denominator"):
            kick(problem, 0.2, tau, u)
    else:
        with np.errstate(invalid="ignore"):
            assert not np.all(np.isfinite(kick(problem, 0.2, tau, u)))


@pytest.mark.parametrize("gap,fails", [(0.0, True), (0.9e-12, True), (1.1e-12, False)])
def test_fisher_kick_guard_on_a_real_state(gap, fails):
    # a real kick of a float64 state runs the same guard, in real arithmetic
    problem = make_problem("fisher")
    tau = 0.7
    grow = math.exp(problem.gamma(0.2) * tau)
    u = np.full(problem.n_grid, 0.5)
    u[3] = (gap - 1.0) / (grow - 1.0)
    if fails:
        with pytest.raises(StepFailed, match="singular logistic denominator"):
            kick(problem, 0.2, tau, u)
    else:
        kicked = kick(problem, 0.2, tau, u)
        assert kicked.dtype == np.float64 and np.all(np.isfinite(kicked))
    bad = np.full(problem.n_grid, -1.0 / (math.exp(problem.gamma(0.0)) - 1.0))
    with pytest.raises(StepFailed):
        kick(problem, 0.0, 1.0, bad)


@pytest.mark.parametrize("name", ["parabolic", "fisher"])
def test_real_kicks_keep_a_float64_state(name):
    # a real tau kicks a float64 state into a new float64 array, the real part
    # of the same kick of the state as a complex array: bitwise on parabolic,
    # whose kick is products only, and within an ulp on fisher, where numpy's
    # complex division multiplies by a reciprocal
    problem = make_problem(name)
    rng = np.random.default_rng(7)
    for t, tau in ((0.0, 0.013), (0.37, -0.004), (1.0, 0.25)):
        u = rng.uniform(-1.0, 1.0, problem.n_grid)
        before = u.copy()
        got = kick(problem, t, tau, u)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert u.tobytes() == before.tobytes()
        general = kick(make_problem(name), t, tau, u.astype(complex))
        assert np.all(general.imag == 0.0)
        if name == "parabolic":
            assert got.tobytes() == general.real.tobytes()
        else:
            assert np.max(np.abs(got - general.real) / np.abs(got)) <= 2.3e-16


def test_fisher_zero_reaction_reduces_to_diffusion():
    problem = make_problem("fisher")
    problem.gamma = lambda t: 0.0
    u = problem.u0()
    assert np.allclose(kick(problem, 0.3, 0.7, u), u)


def test_rk4_is_fourth_order_on_scalar():
    rhs = lambda t, u: np.atleast_1d(-2.0 * t * u)
    exact = math.exp(-1.0)
    errs = [abs(rk4_integrate(rhs, np.array([1.0]), 0.0, 1.0, n)[0] - exact)
            for n in (10, 20)]
    assert math.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.2)


@pytest.mark.parametrize("epsilon", [0.25, 0.1, 0.0])
def test_rk4_float_pair_matches_array_loop(epsilon):
    # the (q, p) float loop with the rhs written out is the osc classical
    # oracle; the array loop on the numpy rhs is its reference, bitwise
    # where math.sin and np.sin agree (as on x86-64 with glibc and numpy 2.4):
    # over whole chunks of the loop's time table, over a last partial one,
    # and from t0 != 0
    problem = make_problem("osc", epsilon=epsilon)
    u0 = problem.u0().real.astype(float)
    assert 2 ** 12 % RK4_CHUNK == 0 and 3001 % RK4_CHUNK and 1500 % RK4_CHUNK
    for args in ((problem.t0, problem.tf, 2 ** 12), (problem.t0, problem.tf, 3001),
                 (0.7, 0.7 + TWO_PI, 1500), (-1.3, 2.0, 1)):
        pair = _rk4_osc(epsilon, *map(float, u0), *args)
        array = rk4_integrate(osc_rhs(problem), u0, *args)
        assert isinstance(pair, tuple) and all(type(x) is float for x in pair)
        assert np.array(pair).tobytes() == array.tobytes(), args


def test_rk4_loop_indexes_its_clock():
    # step i evaluates rhs at t0 + i h, t0 + i h + h/2 (twice) and t0 + (i + 1) h
    t0, tf, n_steps = 0.5, 0.5 + TWO_PI, 1000
    h = (tf - t0) / n_steps
    times = []
    rk4_integrate(lambda t, u: times.append(t) or u, np.zeros(1), t0, tf, n_steps)
    expect = []
    for i in range(n_steps):
        t = t0 + i * h
        expect += [t, t + 0.5 * h, t + 0.5 * h, t0 + (i + 1) * h]
    assert times == expect


@pytest.mark.parametrize("epsilon", [0.25, 0.1, 0.0])
def test_osc_rk4_oracle_halves_h_to_round_off(epsilon):
    # indexed, the RK4 clock leaves 2^14 and 2^15 steps about 1e-14 apart;
    # accumulated, it drifted them about 2e-11 apart
    problem = make_problem("osc", epsilon=epsilon)
    runs = [_rk4_osc(epsilon, problem.q0, problem.p0, problem.t0, problem.tf, n)
            for n in (2 ** 14, 2 ** 15)]
    assert math.dist(*runs) <= 1e-12


@pytest.mark.parametrize("name,params", [("osc", {}), ("parabolic", {"n_grid": 8}),
                                         ("fisher", {"n_grid": 8})])
def test_classical_oracle_picks_the_loop(monkeypatch, name, params):
    # the osc oracle runs the float loop, the PDE oracles the array loop on
    # their rhs; either way the value is the array loop's, bit for bit
    import cxsplit.problems as mod
    problem = make_problem(name, **params)
    problem.rk4_steps = 2 ** 12 if name == "osc" else 64
    rhs = osc_rhs(problem) if name == "osc" else problem.rhs
    array = rk4_integrate(rhs, problem.u0().real, problem.t0, problem.tf,
                          problem.rk4_steps)
    calls = []
    monkeypatch.setattr(mod, "rk4_integrate",
                        lambda *args: calls.append(args) or rk4_integrate(*args))
    value = _classical_oracle(problem)
    assert value.dtype == np.float64 and value.shape == (problem.dim,)
    assert value.tobytes() == array.tobytes()
    assert len(calls) == (name != "osc")


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_osc_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValidationError, match="osc: epsilon must be finite"):
        make_problem("osc", epsilon=epsilon)


@pytest.mark.parametrize("name", ["parabolic", "fisher"])
@pytest.mark.parametrize("n_grid", [0, -4, 2.5])
def test_pde_rejects_a_bad_grid_size(name, n_grid):
    # at construction, not as a ZeroDivisionError or a numpy error mid-run
    with pytest.raises(ValidationError) as info:
        make_problem(name, n_grid=n_grid)
    assert str(info.value) == f"{name}: n_grid must be an integer >= 1, got {n_grid!r}"


def test_stiff_rk4_steps_scales_with_grid():
    coarse = make_problem("parabolic", n_grid=100)
    fine = make_problem("parabolic", n_grid=200)
    assert fine.rk4_steps == pytest.approx(4 * coarse.rk4_steps, rel=0.05)
    # coarse grids hit the accuracy floor instead of the stability bound
    assert make_problem("parabolic", n_grid=8).rk4_steps == REF_PDE_RK4_MIN_STEPS


PINNED_CACHE_FILES = [
    ("osc", {}, "osc_502be4c73b84f5a0.ref"),
    ("osc", {"epsilon": 0.1}, "osc_97eb10bd121f2d68.ref"),
    ("osc", {"epsilon": 0.0}, "osc_d1f08c36d2c09b62.ref"),
    ("parabolic", {}, "parabolic_2e9a6d769b416d3d.ref"),
    ("parabolic", {"n_grid": 8}, "parabolic_7251782ded62f025.ref"),
    ("fisher", {}, "fisher_051b0f5f05f4754e.ref"),
]


@pytest.mark.parametrize("name,params,cache_file", PINNED_CACHE_FILES)
def test_cache_file_names_are_pinned(tmp_path, name, params, cache_file):
    # a new cache key orphans every cached reference: change these pins on purpose
    assert _cache_path(make_problem(name, **params), tmp_path)[0].name == cache_file


class ScaledKickParabolic(ParabolicProblem):
    """The parabolic problem with its potential scaled by 0.1: a kernel override only."""

    def b_kick_coeffs(self, t_frozen, taus):
        return super().b_kick_coeffs(t_frozen, [0.1 * tau for tau in taus])


def test_problem_contract_is_derived(monkeypatch, tmp_path):
    for name, cls in PROBLEMS.items():
        params = cls().params()
        assert cls().key() == name and cls().params() == params
        # methods are no data: a wrapped kernel, as a tracer installs, keeps the key
        state_half = cls.__dict__["b_kick"]
        monkeypatch.setattr(cls, "b_kick", lambda *args, state_half=state_half: state_half(*args))
        assert cls().params() == params
    # an oracle step count set on an instance is keyed as read, whether it
    # is class data (osc) or derived from the grid (parabolic, fisher)
    for name in PROBLEMS:
        problem = make_problem(name, **({} if name == "osc" else {"n_grid": 8}))
        default = _cache_path(problem, tmp_path)[0]
        problem.rk4_steps = 64
        assert _cache_path(problem, tmp_path)[0] != default
    problems = [make_problem(name, **params) for name, params, _ in PINNED_CACHE_FILES]
    problems.append(ScaledKickParabolic(n_grid=8))
    assert problems[-1].key() == "parabolic"
    paths = {_cache_path(problem, tmp_path)[0] for problem in problems}
    assert len(paths) == len(PINNED_CACHE_FILES) + 1


def test_cache_round_trip(tmp_path):
    problem = make_problem("parabolic", n_grid=8)
    path, digest = _cache_path(problem, tmp_path)
    values = np.linspace(0.0, 1.0, 8)
    _write_cache(path, digest, values, 3.25e-12, 14.5)
    cached, gap, build_s = _read_cache(path, digest, problem.dim)
    assert cached.tobytes() == values.tobytes()
    assert (gap, build_s) == (3.25e-12, 14.5)
    blob = path.read_bytes()
    assert len(blob) == REF_HEADER.size + 8 * problem.dim
    # a truncated or overlong payload is a miss, not a short reference
    path.write_bytes(blob[:-8])
    assert _read_cache(path, digest, problem.dim) is None
    path.write_bytes(blob + blob[-8:])
    assert _read_cache(path, digest, problem.dim) is None
    # corrupted magic is rejected, not trusted
    path.write_bytes(b"XXXXXXXX" + blob[8:])
    assert _read_cache(path, digest, problem.dim) is None


@pytest.fixture
def stub_oracles(monkeypatch, tmp_path_factory):
    """Installs cheap stand-ins for both reference oracles; returns their call count.

    The split stand-in is linspace(0, 1, dim).  The classical one differs from
    it by `gap` in the first entry, where the split value is 0.0, so the oracle
    gap is exactly `gap`.  `split` or `classical`, if given, runs first in its
    stand-in.  The classical oracle runs in a forked child, so each call
    appends a line to a log file outside the cache directory: a list in
    memory would lose the child's calls.
    """
    import cxsplit.problems as mod

    def install(gap=0.0, split=None, classical=None):
        log = tmp_path_factory.mktemp("oracle-calls") / "calls.log"
        log.touch()

        def stub(name, hook, first):
            def oracle(p):
                with log.open("a") as fh:
                    fh.write(f"{name}\n")
                if hook is not None:
                    hook()
                u = np.linspace(0.0, 1.0, p.dim)
                u[0] = first
                return u
            return oracle
        monkeypatch.setattr(mod, "_splitting_oracle", stub("split", split, 0.0))
        monkeypatch.setattr(mod, "_classical_oracle", stub("classical", classical, gap))
        return lambda: len(log.read_text().splitlines())
    return install


def test_truncated_cache_entry_is_rebuilt(tmp_path, stub_oracles):
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles()
    ref = reference_solution(problem, cache_dir=tmp_path)
    path, _ = _cache_path(problem, tmp_path)
    path.write_bytes(path.read_bytes()[:-16])
    assert np.array_equal(reference_solution(problem, cache_dir=tmp_path), ref)
    assert builds() == 4                         # built, then rebuilt
    assert len(path.read_bytes()) == REF_HEADER.size + 8 * problem.dim


def test_cache_entry_of_an_older_version_is_rebuilt(tmp_path, stub_oracles):
    # the version-1 layout: magic, key digest, payload; never read as valid
    problem = make_problem("parabolic", n_grid=8)
    path, digest = _cache_path(problem, tmp_path)
    stale = np.full(problem.dim, 7.0)
    path.write_bytes(REF_MAGIC + digest.encode() + stale.astype("<f8").tobytes())
    assert _read_cache(path, digest, problem.dim) is None
    builds = stub_oracles()
    ref = reference_solution(problem, cache_dir=tmp_path)
    assert builds() == 2
    assert np.array_equal(ref, np.linspace(0.0, 1.0, problem.dim))
    assert REF_HEADER.unpack_from(path.read_bytes())[1] == REF_VERSION
    # an entry of any other version is a miss too
    blob = bytearray(path.read_bytes())
    blob[8:16] = (REF_VERSION + 1).to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    assert _read_cache(path, digest, problem.dim) is None


def test_cache_header_keeps_the_oracle_gap_and_build_seconds(tmp_path, stub_oracles):
    problem = make_problem("parabolic", n_grid=8)
    stub_oracles(gap=4.5e-11, split=lambda: time.sleep(0.05))
    start = time.perf_counter()
    reference_solution(problem, cache_dir=tmp_path)
    elapsed = time.perf_counter() - start
    path, digest = _cache_path(problem, tmp_path)
    _, gap, build_s = _read_cache(path, digest, problem.dim)
    assert gap == 4.5e-11
    assert 0.05 <= build_s <= elapsed


def test_session_reference_cache_is_repo_local(repo_local_reference_cache):
    # tests/conftest.py keeps every reference of the suite out of ~/.cache
    assert default_cache_dir() == repo_local_reference_cache
    assert Path(__file__).resolve().parent.parent in repo_local_reference_cache.parents


def test_reference_solution_caches(tmp_path, stub_oracles):
    # the real oracles are covered by the session fixtures and by
    # test_acceptance.py::test_criterion_7_reference_integrity
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles()
    ref1 = reference_solution(problem, cache_dir=tmp_path)
    path, _ = _cache_path(problem, tmp_path)
    assert path.exists()
    assert path.read_bytes()[:8] == REF_MAGIC
    before = path.stat().st_mtime_ns
    ref2 = reference_solution(problem, cache_dir=tmp_path)
    assert path.stat().st_mtime_ns == before       # served from cache
    assert builds() == 2                           # both oracles ran once
    assert np.array_equal(ref1, ref2)


def test_kernel_overriding_subclass_builds_its_own_reference(tmp_path, stub_oracles):
    # a subclass keyed like its parent would be served the parent's reference
    builds = stub_oracles()
    parent, scaled = ParabolicProblem(n_grid=8), ScaledKickParabolic(n_grid=8)
    reference_solution(parent, cache_dir=tmp_path)
    assert builds() == 2
    reference_solution(scaled, cache_dir=tmp_path)
    assert builds() == 4
    assert _cache_path(parent, tmp_path)[0] != _cache_path(scaled, tmp_path)[0]
    assert len(list(tmp_path.iterdir())) == 2


def test_unwritable_cache_fails_before_the_oracles(tmp_path, stub_oracles):
    # the tests run as root, so an unwritable mode cannot be tested; a cache
    # directory under a regular file cannot be created by anyone
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles()
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):
        reference_solution(problem, cache_dir=tmp_path / "file" / "cache")
    assert builds() == 0


def test_a_reference_over_the_update_budget_fails_before_the_oracles(tmp_path, stub_oracles):
    # N = 1024: 728178 RK4 steps on 1024 points, 7.5e8 state updates
    problem = make_problem("parabolic", n_grid=1024)
    builds = stub_oracles()
    with pytest.raises(ReferenceTooCostly, match=(
            r"^parabolic: reference not built: its RK4 oracle needs 728178 steps on 1024 "
            r"components \(7\.46e\+08 state updates, about 117 s\), over the budget of "
            r"1e\+08 updates$")):
        reference_solution(problem, cache_dir=tmp_path / "cache")
    assert builds() == 0 and not (tmp_path / "cache").exists()
    # a cache hit returns the entry as before
    path, digest = _cache_path(problem, tmp_path)
    _write_cache(path, digest, np.arange(1024.0), 0.0, 1.0)
    assert np.array_equal(reference_solution(problem, cache_dir=tmp_path), np.arange(1024.0))
    assert builds() == 0


def test_a_reference_over_the_update_budget_exits_runtime(monkeypatch, tmp_path, capsys):
    import cxsplit.problems as mod
    monkeypatch.setattr(mod, "REF_MAX_UPDATES", 694499)
    code = cli.main(["sweep", "--problem", "parabolic", "--methods", "sm4", "--nsteps", "8",
                     "--cache-dir", str(tmp_path)])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parabolic: reference not built: its RK4 oracle "
                                   "needs 6945 steps on 100 components (6.94e+05 state ")
    assert not any(tmp_path.iterdir())


def test_reference_inconsistency_is_fatal(tmp_path, stub_oracles):
    problem = make_problem("parabolic", n_grid=8)
    # The classical values cross from the child bit for bit: a gap one ulp
    # above the tolerance fails, and the tolerance itself passes, which it
    # would not if any other entry had moved.
    for gap in (1.01 * REF_AGREE_TOL, math.nextafter(REF_AGREE_TOL, math.inf)):
        stub_oracles(gap=gap)
        with pytest.raises(ReferenceInconsistent):
            reference_solution(problem, cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())        # nothing cached
    for gap, cache_dir in ((0.99 * REF_AGREE_TOL, tmp_path / "below"),
                           (REF_AGREE_TOL, tmp_path / "at")):
        stub_oracles(gap=gap)
        ref = reference_solution(problem, cache_dir=cache_dir)
        assert np.array_equal(ref, np.linspace(0.0, 1.0, problem.dim))
        assert _cache_path(problem, cache_dir)[0].exists()


def test_oracles_5e_10_apart_are_inconsistent(tmp_path, stub_oracles):
    # a literal gap, not one relative to REF_AGREE_TOL: half the tolerance of 1e-10 passes,
    # five times it fails, whatever the constant is set to
    problem = make_problem("parabolic", n_grid=8)
    stub_oracles(gap=5e-10)
    with pytest.raises(ReferenceInconsistent, match="5.000e-10 > 1.0e-10"):
        reference_solution(problem, cache_dir=tmp_path)
    stub_oracles(gap=5e-11)
    assert reference_solution(problem, cache_dir=tmp_path)[0] == 0.0


def test_self_consistent_entry_of_the_wrong_length_is_not_read(tmp_path):
    # header and payload agree with each other, but not with the problem's dimension
    problem = make_problem("parabolic", n_grid=8)
    path, digest = _cache_path(problem, tmp_path)
    for dim in (problem.dim - 1, problem.dim + 1):
        _write_cache(path, digest, np.linspace(0.0, 1.0, dim), 1e-12, 1.0)
        assert len(path.read_bytes()) == REF_HEADER.size + 8 * dim
        assert _read_cache(path, digest, problem.dim) is None
    _write_cache(path, digest, np.linspace(0.0, 1.0, problem.dim), 1e-12, 1.0)
    assert _read_cache(path, digest, problem.dim) is not None


def test_nan_oracle_gap_is_fatal(tmp_path, stub_oracles):
    # NaN compares false with everything: the check must not read it as agreement
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles(gap=math.nan)
    with pytest.raises(ReferenceInconsistent, match="nan"):
        reference_solution(problem, cache_dir=tmp_path)
    assert builds() == 2                          # both oracles ran
    assert not any(tmp_path.iterdir())            # nothing cached


def test_default_params_match_benchmarks():
    osc = make_problem("osc")
    assert osc.epsilon == 0.25 and osc.p0 == 11.2075
    assert osc.omega_j == (7.0, 14.0, 21.0)
    assert (osc.t0, osc.tf) == (0.0, TWO_PI)
    assert osc.rk4_steps == REF_OSC_RK4_STEPS == 2 ** 20
    par = make_problem("parabolic")
    assert par.n_grid == 100 and par.alpha(0.0) == pytest.approx(0.25 + 1 / 6)
    assert (par.mu, par.w, par.t0, par.tf) == (1.0 / 6.0, 2.0, 0.0, 1.0)
    assert par.rk4_steps == 6945
    assert make_problem("parabolic", n_grid=8).rk4_steps == 4096
    fisher = make_problem("fisher")
    assert fisher.gamma(0.0) == pytest.approx(0.01)
    assert (fisher.mu, fisher.w, fisher.beta) == (1.0 / 6.0, 2.0, 1.0)
    assert (fisher.t0, fisher.tf) == (0.0, 1.0)
    # the RK4 oracles' state updates, far under the budget
    assert [p.rk4_steps * p.dim for p in (osc, par, fisher)] == [2 ** 21, 694500, 694500]
    assert 40 * 2 ** 21 < REF_MAX_UPDATES


def test_classical_oracle_error_is_raised_in_the_parent(tmp_path, stub_oracles):
    def fail():
        raise StepFailed("x", stage=3)
    problem = make_problem("parabolic", n_grid=8)
    builds = stub_oracles(classical=fail)
    with pytest.raises(StepFailed) as info:
        reference_solution(problem, cache_dir=tmp_path)
    assert type(info.value) is StepFailed
    assert str(info.value) == "stage 3: x" and info.value.stage == 3
    assert builds() == 2
    assert not any(tmp_path.iterdir())            # nothing cached
    assert_no_child_left()


def test_classical_oracle_process_dying_is_a_cxsplit_error(tmp_path, stub_oracles,
                                                           capsys):
    problem = make_problem("parabolic", n_grid=8)
    stub_oracles(classical=lambda: os._exit(1))
    with pytest.raises(CxsplitError, match=r"without a result \(exit code 1\)") as info:
        reference_solution(problem, cache_dir=tmp_path)
    assert type(info.value) is CxsplitError
    assert not any(tmp_path.iterdir())
    code = cli.main(["sweep", "--problem", "parabolic", "--methods", "strang",
                     "--nsteps", "4",
                     "--cache-dir", str(tmp_path)])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: parabolic: the classical oracle's process")
    assert_no_child_left()


@pytest.mark.parametrize("exc", [StepFailed("x", stage=1), KeyboardInterrupt()],
                         ids=["StepFailed", "KeyboardInterrupt"])
def test_splitting_oracle_failure_leaves_no_child(tmp_path, stub_oracles, exc):
    def fail():
        raise exc
    problem = make_problem("parabolic", n_grid=8)
    # the child would outlive the parent's failure without the kill
    stub_oracles(split=fail, classical=lambda: time.sleep(60))
    start = time.perf_counter()
    with pytest.raises(type(exc)):
        reference_solution(problem, cache_dir=tmp_path)
    assert time.perf_counter() - start < 30
    assert_no_child_left()
    assert not any(tmp_path.iterdir())


# one instance of every typed error, with the attributes it carries
TYPED_ERRORS = [
    (StepFailed("x", stage=3), {"stage": 3}),
    (StepTooLarge("overflow", stage=2), {"stage": 2}),
    (ParseError("bad row", line_no=7), {"line_no": 7}),
    (NoStableSolution("unstable", solutions=[[1 + 2j, 0.5]]),
     {"solutions": [[1 + 2j, 0.5]]}),
] + [(cls("msg"), {}) for cls in (CxsplitError, NotInCatalog, ValidationError,
                                   InvalidSequence, NoSolutionFound,
                                   DesignScanUnreliable, ReferenceInconsistent,
                                   ReferenceTooCostly, InsufficientData, RealTimeViolation)]


@pytest.mark.parametrize("error, attrs", TYPED_ERRORS,
                         ids=[type(error).__name__ for error, _ in TYPED_ERRORS])
def test_typed_errors_survive_pickle(error, attrs):
    # the classical oracle's process sends its exception back by pickle
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for name, value in attrs.items():
        assert getattr(copy, name) == value


def test_every_typed_error_is_pickle_tested():
    def subclasses(cls):
        return {cls}.union(*(subclasses(c) for c in cls.__subclasses__()))
    assert subclasses(CxsplitError) == {type(error) for error, _ in TYPED_ERRORS}
