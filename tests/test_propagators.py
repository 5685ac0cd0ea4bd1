import math

import numpy as np
import pytest

from cxsplit.errors import StepTooLarge
from cxsplit.propagators import (CF4_ALPHA, CF4_BETA, SHEAR_THRESHOLD, CirculantLaplacian,
                                 GAUSS_OFFSETS, exp_2x2, exp_circulant)

from conftest import OneCallKernels, dense_expm, dense_laplacian, run_flow


def test_cf4_constants():
    assert CF4_ALPHA + CF4_BETA == pytest.approx(1.0)
    assert CF4_ALPHA == pytest.approx(0.5 - math.sqrt(3.0) / 3.0)
    assert GAUSS_OFFSETS[0] + GAUSS_OFFSETS[1] == pytest.approx(1.0)


# scalar non-autonomous model u' = lam(t) u with exact solution
def _lam(t):
    return math.sin(t) + 0.3 * t


def _exact(t0, h, u):
    # integral of lam over [t0, t0+h] in closed form
    integral = (-math.cos(t0 + h) + math.cos(t0)) + 0.15 * ((t0 + h) ** 2 - t0 ** 2)
    return u * math.exp(integral)


def _frozen(times, weights, duration, u):
    coeff = sum(w * _lam(t) for t, w in zip(times, weights))
    return u * np.exp(duration * coeff)


class ScalarModel(OneCallKernels):
    """u' = lam(t) u as a problem whose A(t) are taken to commute, or not; counts A calls."""

    def __init__(self, commuting=False):
        self.commuting = commuting
        self.calls = 0

    def a_call(self, times, weights, duration, u):
        self.calls += 1
        return _frozen(times, weights, duration, u)

    def kick_call(self, t_frozen, tau, u):
        raise AssertionError("no kick in a one-flow plan")


@pytest.mark.parametrize("kind,order", [("cf2", 2), ("cf4", 4)])
def test_magnus_orders_on_scalar_model(kind, order):
    t0, u0, total = 0.3, 1.7, 1.0
    errors = []
    for n in (8, 16, 32):
        u, t = u0, t0
        h = total / n
        for _ in range(n):
            u = run_flow(kind, ScalarModel(), t, h, u)
            t += h
        errors.append(abs(u - _exact(t0, total, u0)))
    rates = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for rate in rates:
        assert abs(rate - order) < 0.2


def test_exact_step_on_scalar_model():
    # scalar generators commute: the quadrature flow is the exact solution
    for t0, h in ((0.3, 0.25), (1.1, -0.4)):
        got = run_flow("exact", ScalarModel(commuting=True), t0, h, 1.7)
        assert got == pytest.approx(_exact(t0, h, 1.7), rel=1e-14)


def test_cf4_commuting_fuse_matches_split_form():
    # scalar generators always commute: fused and two-exponential CF4 agree
    u = 1.3 + 0.0j
    split, fused = ScalarModel(commuting=False), ScalarModel(commuting=True)
    full = run_flow("cf4", split, 0.2, 0.05, u)
    assert abs(full - run_flow("cf4", fused, 0.2, 0.05, u)) < 1e-14
    assert (split.calls, fused.calls) == (2, 1)


def test_cf4_time_symmetry():
    u = 0.8
    forward = run_flow("cf4", ScalarModel(), 0.4, 0.1, u)
    back = run_flow("cf4", ScalarModel(), 0.5, -0.1, forward)
    assert abs(back - u) < 1e-14


def test_zero_step_is_identity():
    # exp(0 A) = I through the kernel; the engine skips such flows altogether
    assert _frozen((1.0,), (1.0,), 0.0, 2.5) == 2.5
    model = ScalarModel()
    assert run_flow("cf2", model, 1.0, 0.0, 2.5) == 2.5
    assert run_flow("cf4", model, 1.0, 0.0, 2.5) == 2.5
    assert model.calls == 0


def _apply_2x2(omega_sq, tau, state):
    """exp_2x2's [[c, s], [n, c]] applied to the pair state, as the osc state half does."""
    [c], [s], [n] = exp_2x2(np.array([omega_sq]), tau)
    q, p = state
    return c * q + s * p, n * q + c * p


@pytest.mark.parametrize("omega_sq", [4.0, -2.25, 0.0, 1e-16])
def test_exp_2x2_matches_dense(omega_sq):
    tau = 0.37
    mat = np.array([[0.0, 1.0], [-omega_sq, 0.0]])
    expected = dense_expm(tau * mat) @ np.array([1.2, -0.7])
    q, p = _apply_2x2(omega_sq, tau, (1.2, -0.7))
    assert abs(q - expected[0]) < 1e-13
    assert abs(p - expected[1]) < 1e-13


def _exp_2x2_by_math(x, tau):
    """One entry of exp_2x2 as the scalar kernel had it, branch by branch with ``math``."""
    if x > SHEAR_THRESHOLD:
        w = math.sqrt(x)
        sin_ = math.sin(tau * w)
        return math.cos(tau * w), sin_ / w, -w * sin_
    if x < -SHEAR_THRESHOLD:
        w = math.sqrt(-x)
        sinh_ = math.sinh(tau * w)
        return math.cosh(tau * w), sinh_ / w, w * sinh_
    return 1.0, tau, 0.0


#: seeded omega_sq draws of each branch of exp_2x2, on 4 x 3 x 32 arrays
BRANCH_DRAWS = {
    "trigonometric": lambda rng, shape: np.exp(rng.uniform(-30.0, 9.0, shape)),
    "hyperbolic": lambda rng, shape: -np.exp(rng.uniform(-30.0, 4.0, shape)),
    "shear": lambda rng, shape: rng.uniform(-SHEAR_THRESHOLD, SHEAR_THRESHOLD, shape),
    "all three": lambda rng, shape: rng.choice([-1.0, 1e-15, 1.0], shape) * np.exp(
        rng.uniform(-30.0, 4.0, shape)),
}


@pytest.mark.parametrize("branch", BRANCH_DRAWS)
def test_exp_2x2_on_arrays_is_the_math_kernel_bit_for_bit(branch):
    # an array of trigonometric entries takes numpy's sqrt, sin and cos, any other array
    # math's per entry: either way every entry has the bits of the scalar kernel
    rng = np.random.default_rng(41)
    for _ in range(20):
        omega_sq = BRANCH_DRAWS[branch](rng, (4, 3, 32))
        tau = rng.uniform(-2.0, 2.0, (4, 3, 1))
        got = exp_2x2(omega_sq, tau)
        want = zip(*map(_exp_2x2_by_math, omega_sq.ravel().tolist(),
                        np.broadcast_to(tau, omega_sq.shape).ravel().tolist()))
        for got_col, want_col in zip(got, want, strict=True):
            assert got_col.shape == omega_sq.shape and got_col.dtype == np.float64
            assert got_col.tobytes() == np.array(want_col).reshape(omega_sq.shape).tobytes()


@pytest.mark.parametrize("omega_sq", [1e-8, -1e-8])
def test_exp_2x2_near_the_shear_limit_is_the_closed_form(omega_sq):
    # 1e-8 is far above SHEAR_THRESHOLD: still the trigonometric or hyperbolic exponential,
    # within round-off, not the shear limit [[1, tau], [0, 1]] (c is 1 - 6.8e-10 off it)
    tau = 0.37
    w = math.sqrt(abs(omega_sq))
    if omega_sq > 0.0:
        want = (math.cos(tau * w), math.sin(tau * w) / w, -w * math.sin(tau * w))
    else:
        want = (math.cosh(tau * w), math.sinh(tau * w) / w, w * math.sinh(tau * w))
    got = [col[0] for col in exp_2x2(np.array([omega_sq]), tau)]
    for g, v in zip(got, want):
        assert abs(g - v) <= 4e-16 * max(1.0, abs(v))
    assert abs(got[0] - 1.0) > 6e-10


def test_exp_2x2_raises_as_math_on_an_infinite_argument():
    # numpy's sin is NaN at inf, math's raises: the array kernel raises as math does
    for tau in (np.array([[0.1], [np.inf]]), np.array([[0.1], [-np.inf]])):
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="math domain error"):
                exp_2x2(np.full((2, 3), 2.0), tau)
    with np.errstate(invalid="ignore"):
        c, s, n = exp_2x2(np.array([2.0]), np.array([np.nan]))      # a NaN argument does not
    assert np.isnan([c[0], s[0], n[0]]).all()


def test_exp_2x2_preserves_quadratic_invariant():
    # for the frozen oscillator, omega^2 q^2 + p^2 is conserved
    omega_sq = 3.1
    q, p = 0.4, -1.9
    for _ in range(5):
        q, p = _apply_2x2(omega_sq, 0.21, (q, p))
    assert omega_sq * q ** 2 + p ** 2 == pytest.approx(
        omega_sq * 0.4 ** 2 + 1.9 ** 2, rel=1e-12)


def test_circulant_eigenvalues_and_dense_agree():
    lap = CirculantLaplacian(8, 0.125)
    dense = dense_laplacian(lap)
    eig = np.sort(np.linalg.eigvalsh(dense))
    assert np.allclose(np.sort(lap.eigenvalues), eig, atol=1e-9)
    assert lap.eigenvalues[0] == 0.0
    assert np.all(lap.eigenvalues <= 0.0)


def test_exp_circulant_matches_dense_complex_tau():
    lap = CirculantLaplacian(8, 0.125)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    tau = 0.003 - 0.001j
    spectral = exp_circulant(lap, tau, u)
    dense = dense_expm(tau * dense_laplacian(lap)) @ u
    assert np.max(np.abs(spectral - dense)) < 1e-12


def test_exp_circulant_preserves_mean():
    # lambda_0 = 0: the spatial mean is invariant under the diffusion flow
    lap = CirculantLaplacian(16, 1.0 / 16.0)
    u = np.sin(np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)) + 2.0
    out = exp_circulant(lap, 0.01, u)
    assert np.mean(out).real == pytest.approx(np.mean(u), rel=1e-13)


def test_exp_circulant_overflow_guard():
    lap = CirculantLaplacian(16, 1.0 / 16.0)
    with pytest.raises(StepTooLarge):
        exp_circulant(lap, -10.0, np.ones(16))


def _real_formula(lap, tau, u):
    """exp(tau * Laplacian) u through numpy.fft's real transforms: the half spectrum."""
    return np.fft.irfft(np.exp(tau * lap.eigenvalues[:lap.n // 2 + 1]) * np.fft.rfft(u), lap.n)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 100])
def test_exp_circulant_real_tau_is_the_general_formula_bitwise(n):
    # exp_circulant keeps a float64 array real for a real tau, with the bits
    # of irfft(exp(tau * lambda_half) * rfft(u)) through numpy.fft, and gives
    # the bits of ifft(exp(tau * lambda) * fft(u)) for a complex tau, a
    # complex array and a list, each into a new array, strided views too, the
    # state left as it was; numpy's complex exp of x + 0j may differ from its
    # real exp in the last bit, so complex(tau) is only ulp-close to tau.
    # Past 17 points tau shrinks with dx^2, so that tau * lambda_min stays in
    # the range it has on 17 points.
    lap = CirculantLaplacian(n, 1.0 / n)
    scale = min(1.0, (17.0 / n) ** 2)
    rng = np.random.default_rng(n)
    for _ in range(50):
        big = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        for u in (big[:n].copy(), big.real[:n].copy(), big.real[::2], big[:n].tolist(),
                  big[::2]):
            before = np.array(u)
            real_state = isinstance(u, np.ndarray) and u.dtype == np.float64
            for tau in (0.0, rng.uniform(0.0, 0.01), -rng.uniform(0.0, 0.001),
                        np.float64(rng.uniform(-0.001, 0.01)),
                        complex(rng.uniform(-0.001, 0.01), rng.uniform(-0.01, 0.01))):
                tau = tau * scale
                got = exp_circulant(lap, tau, u)
                if real_state and isinstance(tau, float):
                    general = np.fft.irfft(np.exp(tau * lap.eigenvalues[:n // 2 + 1])
                                           * np.fft.rfft(u), n)
                    assert got.dtype == np.float64
                else:
                    general = np.fft.ifft(np.exp(tau * lap.eigenvalues)
                                          * np.fft.fft(np.asarray(u)))
                assert got.tobytes() == general.tobytes()
                assert not np.shares_memory(got, big) and not np.shares_memory(got, u)
                via_complex = exp_circulant(lap, complex(tau), u)
                assert np.max(np.abs(got - via_complex)) <= 1e-15 * np.max(np.abs(u)) * n
            assert np.array(u).tobytes() == before.tobytes()


def test_exp_circulant_rejects_a_state_of_another_length():
    # the transforms alone would pad or cut the state to their output length:
    # a float64 state with a real tau (the real path) fails as a complex one does
    lap = CirculantLaplacian(8, 0.125)
    for n in (5, 9, 12):
        for u, tau in ((np.ones(n), 0.01), (np.ones(n), 0.01 + 0j),
                       (np.ones(n, dtype=complex), 0.01), (np.ones(n, dtype=complex), 0.01j)):
            with pytest.raises(ValueError):
                exp_circulant(lap, tau, u)


def test_exp_circulant_overflow_guard_real_tau_matches_the_array_max():
    lap = CirculantLaplacian(16, 1.0 / 16.0)
    assert lap.lambda_min == np.min(lap.eigenvalues) < 0.0
    edge = 709.0 / lap.lambda_min         # the most negative tau the guard passes
    for tau in (edge, np.float64(edge), complex(edge)):
        exp_circulant(lap, tau, np.ones(16))
    for tau in (math.nextafter(edge, -math.inf), -10.0, np.float64(-1e3)):
        with pytest.raises(StepTooLarge, match="exceeds overflow guard"):
            exp_circulant(lap, tau, np.ones(16))
        with pytest.raises(StepTooLarge):
            exp_circulant(lap, complex(tau), np.ones(16))
