"""The A-flows of u' = A(t)u as data, and the benchmark problems' exact kernels.

``A_FLOWS`` holds the midpoint exponential (CF2, second order), the
commutator-free fourth-order integrator (CF4) and the exact flow of a
commuting family as calls of one frozen-exponential kernel.  The kernels
here are the 2x2 oscillator exponential and the spectral exponential of the
periodic finite-difference Laplacian.  A kernel keeps a real state real for a
real duration: the spectral exponential maps a float64 array to a new float64
array by real FFTs, and only a complex duration or state makes it complex.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

from .errors import StepTooLarge

try:    # the ufuncs behind np.fft, called without its wrappers
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError:     # a numpy that moved them: its public functions, at the wrappers' cost
    # each call here passes numpy's default factor for its direction (1
    # forward, 1/n backward), which the public functions apply themselves
    _pocketfft = SimpleNamespace(
        fft=lambda a, fct, out: np.fft.fft(a, out=out),
        ifft=lambda a, fct, out: np.fft.ifft(a, out=out),
        rfft_n_even=lambda a, fct, out: np.fft.rfft(a, out=out),
        rfft_n_odd=lambda a, fct, out: np.fft.rfft(a, out=out),
        irfft=lambda a, fct, out: np.fft.irfft(a, len(out), out=out))

#: the dtype of a real state: a float64 array, kept real until a complex kick
REAL_DTYPE = np.dtype(np.float64)

# CF4 weights and Gauss nodes (all real)
CF4_ALPHA = 0.5 - math.sqrt(3.0) / 3.0
CF4_BETA = 1.0 - CF4_ALPHA
GAUSS_OFFSETS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
#: the offset of a CF2 flow: the freeze node, which the stepper fills in
FREEZE = None

SHEAR_THRESHOLD = 1e-14
EXP_OVERFLOW = 709.0


@functools.cache
def _gauss_legendre_flow():
    """exp(int A) over [t0, t0 + tau] by 20-point Gauss-Legendre quadrature,
    as a flow of one call: offsets 0.5 (x + 1), duration 0.5 tau.  Made on
    first use: the rule is not computed at import."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    return tuple((0.5 * (nodes + 1.0)).tolist()), ((tuple(weights.tolist()), 0.5),)


#: kind -> (flow if the A(t) do not commute, flow if they do), None where the
#: kind cannot run.  A flow is (offsets, calls): the kernel's times are
#: t0 + o * tau for o in offsets, and each call (weights, factor), in order,
#: applies exp(factor * tau * sum_i weights_i A(times_i)).  CF4 pairs the
#: dominant weight beta with the earlier Gauss node first, which matches the
#: h^2 Magnus commutator term (the reverse pairing drops to order two); on
#: commuting A(t) its two calls fuse into one, the 2-point Gauss rule.  The
#: exact flow's entry is the cached function that makes its rule.
A_FLOWS = {
    "cf2": (((FREEZE,), (((1.0,), 1.0),)),) * 2,
    "cf4": ((GAUSS_OFFSETS, (((CF4_BETA, CF4_ALPHA), 0.5), ((CF4_ALPHA, CF4_BETA), 0.5))),
            (GAUSS_OFFSETS, (((0.5, 0.5), 1.0),))),
    "exact": (None, _gauss_legendre_flow),
}


def exp_2x2(omega_sq, tau, state):
    """Exact exponential of tau * [[0, 1], [-omega_sq, 0]] applied to (q, p).

    Trigonometric for omega_sq > 0, hyperbolic for omega_sq < 0, shear in
    the |omega_sq| -> 0 limit.
    """
    q, p = state
    if omega_sq > SHEAR_THRESHOLD:
        w = math.sqrt(omega_sq)
        cos_, sin_ = math.cos(tau * w), math.sin(tau * w)
        return (cos_ * q + (sin_ / w) * p, -w * sin_ * q + cos_ * p)
    if omega_sq < -SHEAR_THRESHOLD:
        w = math.sqrt(-omega_sq)
        cosh_, sinh_ = math.cosh(tau * w), math.sinh(tau * w)
        return (cosh_ * q + (sinh_ / w) * p, w * sinh_ * q + cosh_ * p)
    return (q + tau * p, p)


class CirculantLaplacian:
    """Second-order periodic finite-difference Laplacian on N points.

    Diagonal in the discrete Fourier basis with eigenvalues
    lambda_k = (2/dx^2)(cos(2 pi k / N) - 1) <= 0, lambda_0 = 0.  It owns
    the spectrum buffers that ``exp_circulant``'s forward transforms write
    into, so one Laplacian serves one thread at a time.
    """

    def __init__(self, n, dx):
        self.n = int(n)
        self.dx = float(dx)
        self.shape = (self.n,)
        k = np.arange(self.n)
        self.eigenvalues = (2.0 / self.dx ** 2) * (np.cos(2.0 * np.pi * k / self.n) - 1.0)
        self.lambda_min = float(self.eigenvalues.min())
        # a real state's half spectrum: the eigenvalues of k = 0 .. n // 2
        self.half_eigenvalues = self.eigenvalues[:self.n // 2 + 1]
        self.rfft = _pocketfft.rfft_n_odd if self.n % 2 else _pocketfft.rfft_n_even
        self.spectrum = np.empty(self.n, dtype=complex)
        self.half_spectrum = np.empty(len(self.half_eigenvalues), dtype=complex)


def exp_circulant(lap, tau, state):
    """Apply exp(tau * Laplacian) spectrally; tau may be complex.

    The eigenvalues are real with maximum 0, so the largest exponent is
    max(0, Re(tau) * lambda_min) and the overflow guard is a scalar test,
    made before any transform.  The factors are multiplied in the order
    exp * spectrum: numpy's complex product is not bitwise commutative.

    A float64 array with a real tau stays real: the bits of
    ``np.fft.irfft(np.exp(tau * lambda[:n // 2 + 1]) * np.fft.rfft(u), n)``.
    Any other state is made complex: the bits of
    ``np.fft.ifft(np.exp(tau * lambda) * np.fft.fft(u))``.  The FFTs are the
    pocketfft ufuncs behind ``np.fft``, called with its factors (1, then
    1/n) but not its wrappers.  The result is a new array; a state of
    another length fails with ValueError.
    """
    if tau.real * lap.lambda_min > EXP_OVERFLOW:
        raise StepTooLarge(
            f"exp argument {tau.real * lap.lambda_min:.3g} exceeds overflow guard")
    real = isinstance(tau, float) and type(state) is np.ndarray and state.dtype is REAL_DTYPE
    u = state if real else np.asarray(state, dtype=complex)
    if u.shape != lap.shape:    # the transforms would pad or cut it
        raise ValueError(f"a state of shape {u.shape} on {lap.n} grid points")
    if real:
        spec = lap.rfft(u, 1.0, out=lap.half_spectrum)
        np.multiply(np.exp(tau * lap.half_eigenvalues), spec, out=spec)
        return _pocketfft.irfft(spec, 1.0 / lap.n, out=np.empty(lap.n))
    spec = _pocketfft.fft(u, 1.0, out=lap.spectrum)
    np.multiply(np.exp(tau * lap.eigenvalues), spec, out=spec)
    return _pocketfft.ifft(spec, 1.0 / lap.n, out=np.empty_like(spec))
