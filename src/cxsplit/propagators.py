"""Flow approximations for the dominant non-autonomous part u' = A(t)u.

Provides the midpoint exponential (second order), the two-exponential
commutator-free fourth-order integrator and the exact flow of a commuting
family, all expressed through a caller-supplied frozen-exponential kernel
exp(duration * sum_i weights_i A(times_i)), plus the small exact kernels
used by the benchmark problems: the 2x2 oscillator exponential and the
spectral exponential of the periodic finite-difference Laplacian.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import StepTooLarge

# CF4 weights and Gauss nodes (all real)
CF4_ALPHA = 0.5 - math.sqrt(3.0) / 3.0
CF4_BETA = 1.0 - CF4_ALPHA
GAUSS_OFFSETS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

SHEAR_THRESHOLD = 1e-14
EXP_OVERFLOW = 709.0


def cf2_step(t0, h, state, frozen_exponential, node=0.5):
    """Frozen exponential exp(h A(t0 + node h)): the midpoint rule by default.

    node=0 freezes A at the start of the flow (the literal convention).
    """
    if h == 0.0:
        return state
    return frozen_exponential((t0 + node * h,), (1.0,), h, state)


def cf4_step(t0, h, state, frozen_exponential, commuting=False):
    """Fourth-order commutator-free step over [t0, t0 + h].

    Applies exp((h/2)(beta A(tau1) + alpha A(tau2))) first and then the
    weight-swapped exponential; pairing the dominant weight beta with the
    earlier Gauss node first is what matches the h^2 Magnus commutator term
    (the reverse pairing drops to order two).  For commuting generator
    families the two exponentials fuse into the 2-point Gauss quadrature
    exponential, which also avoids the transient negative weight alpha.
    """
    if h == 0.0:
        return state
    tau1 = t0 + GAUSS_OFFSETS[0] * h
    tau2 = t0 + GAUSS_OFFSETS[1] * h
    if commuting:
        return frozen_exponential((tau1, tau2), (0.5, 0.5), h, state)
    state = frozen_exponential((tau1, tau2), (CF4_BETA, CF4_ALPHA), 0.5 * h, state)
    return frozen_exponential((tau1, tau2), (CF4_ALPHA, CF4_BETA), 0.5 * h, state)


def exact_step(t0, h, state, frozen_exponential):
    """Exact flow exp(int A) over [t0, t0 + h] of a commuting family A(t).

    The integral is 20-point Gauss-Legendre quadrature; the caller checks
    that the A(t) commute.
    """
    if h == 0.0:
        return state
    nodes, weights = _gauss_legendre_20()
    return frozen_exponential(t0 + 0.5 * h * (nodes + 1.0), weights, 0.5 * h, state)


@functools.cache
def _gauss_legendre_20():
    """The 20-point Gauss-Legendre rule on [-1, 1], computed once, on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    weights.flags.writeable = False     # shared by every call: kernels only read it
    return nodes, weights


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
    lambda_k = (2/dx^2)(cos(2 pi k / N) - 1) <= 0, lambda_0 = 0.
    """

    def __init__(self, n, dx):
        self.n = int(n)
        self.dx = float(dx)
        k = np.arange(self.n)
        self.eigenvalues = (2.0 / self.dx ** 2) * (np.cos(2.0 * np.pi * k / self.n) - 1.0)

    def dense(self):
        mat = np.zeros((self.n, self.n))
        for i in range(self.n):
            mat[i, i] = -2.0
            mat[i, (i + 1) % self.n] = 1.0
            mat[i, (i - 1) % self.n] = 1.0
        return mat / self.dx ** 2


def exp_circulant(lap, tau, state):
    """Apply exp(tau * Laplacian) spectrally; tau may be complex."""
    arg = tau * lap.eigenvalues
    if np.max(arg.real) > EXP_OVERFLOW:
        raise StepTooLarge(f"exp argument {np.max(arg.real):.3g} exceeds overflow guard")
    spec = np.fft.fft(np.asarray(state, dtype=complex))
    return np.fft.ifft(np.exp(arg) * spec)
