"""The three benchmark problems and their high-accuracy reference oracle.

Each problem supplies whether its A(t) commute, the frozen-exponential
kernel for the dominant part, a B-kick valid for complex durations (closed forms, analytically continued
in the duration), the full unsplit right-hand side for the classical
cross-check integrator, initial data, and the RK4 step count of that
integrator.  The problem data is fixed: only the oscillator's epsilon and
initial point and the PDE grid size are settable.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import os
import pickle
import signal
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CxsplitError, ReferenceInconsistent, StepFailed
from .propagators import CirculantLaplacian, exp_2x2, exp_circulant
from .schemes import builtin_scheme
from .stepper import StepperConfig, integrate

TWO_PI = 2.0 * math.pi

# reference-oracle recipe
REF_SPLIT_STEPS = 2 ** 16
REF_OSC_RK4_STEPS = 2 ** 20
REF_PDE_RK4_MIN_STEPS = 2 ** 12
REF_AGREE_TOL = 1e-10
REF_MAGIC = b"CXSPLITR"

# The oscillator's forcing frequencies, read as a global by its kernels: on
# CPython 3.11 a class attribute read through an instance costs about 45 ns
# more, 0.2 s over the osc RK4 oracle's 2^22 rhs_pair calls.
OMEGA_J = (7.0, 14.0, 21.0)


@dataclass
class OscillatorProblem:
    """Perturbed oscillator: q'' + Omega(t)^2 q = -eps * sum_j sin(q - omega_j t)."""

    epsilon: float = 0.25
    q0: float = 0.0
    p0: float = 11.2075

    t0, tf = 0.0, TWO_PI
    omega_j = OMEGA_J
    rk4_steps = REF_OSC_RK4_STEPS
    commuting = False
    dim = 2

    @staticmethod
    def big_omega(t):
        return 1.0 + 0.5 * math.cos(1.5 * t)

    def u0(self):
        return np.array([self.q0, self.p0], dtype=complex)

    # Both kernels take a (q, p) pair, an ndarray or the tuple the previous
    # kernel returned, and return a (q, p) tuple of Python complex: on a
    # 2-component state numpy's per-call overhead would be the whole cost.
    # The sums are left folds, the order sum() adds numpy scalars in, so the
    # results equal numpy-scalar arithmetic wherever cmath.sin and np.sin
    # agree (bit for bit on x86-64 glibc).

    def a_frozen_exp(self, times, weights, duration, state):
        # sum_i w_i A(t_i) = w_sum * [[0, 1], [-omega_sq / w_sum, 0]]
        omega_sq = w_sum = 0.0
        for t, w in zip(times, weights):
            omega_sq += w * self.big_omega(t) ** 2
            w_sum += w
        q, p = complex(state[0]), complex(state[1])
        if w_sum == 0.0:   # [[0, 0], [-omega_sq, 0]] is nilpotent: exp is I + duration * it
            return q, p - duration * omega_sq * q
        return exp_2x2(omega_sq / w_sum, duration * w_sum, (q, p))

    def b_kick(self, t_frozen, tau, state):
        q, p = complex(state[0]), complex(state[1])
        kick = 0j
        for w in OMEGA_J:
            kick += cmath.sin(q - w * t_frozen)
        return q, p - tau * self.epsilon * kick

    def rhs(self, t, u):
        q, p = u
        force = -self.big_omega(t) ** 2 * q \
            - self.epsilon * sum(np.sin(q - w * t) for w in OMEGA_J)
        return np.array([p, force], dtype=u.dtype)

    def rhs_pair(self, t, q, p):
        """rhs on Python floats, operation for operation: (dq/dt, dp/dt)."""
        # a left fold, as sum() does over numpy scalars; sum() over floats
        # rounds differently from Python 3.12 on
        kick = 0.0
        for w in OMEGA_J:
            kick += math.sin(q - w * t)
        return p, -self.big_omega(t) ** 2 * q - self.epsilon * kick

    def key(self):
        return "osc"

    def params(self):
        return ("osc", self.epsilon, len(self.omega_j), self.q0, self.p0, self.t0, self.tf)


@dataclass
class ParabolicProblem:
    """u_t = alpha(t)^2 Lap u + V(x, t) u on the periodic unit interval."""

    n_grid: int = 100

    mu, w = 1.0 / 6.0, 2.0
    t0, tf = 0.0, 1.0
    commuting = True

    def __post_init__(self):
        self.dx = 1.0 / self.n_grid
        self.x = self.dx * np.arange(1, self.n_grid + 1)
        self.lap = CirculantLaplacian(self.n_grid, self.dx)
        self.dim = self.n_grid
        self.sin_2pi_x = np.sin(TWO_PI * self.x)
        # stability bound of explicit RK4 on the diffusion spectrum; the
        # floor keeps the temporal error negligible on coarse grids, where
        # the stability bound alone would be accuracy-limited
        alpha_sq_max = (0.25 + abs(self.mu)) ** 2
        stiff = int(math.ceil(4.0 * (self.tf - self.t0) / self.dx ** 2 * alpha_sq_max))
        self.rk4_steps = max(stiff, REF_PDE_RK4_MIN_STEPS)

    def alpha(self, t):
        return 0.25 + self.mu * math.cos(self.w * t)

    def potential(self, t):
        return 0.1 * (3.0 * (1.0 - math.exp(-t)) + self.sin_2pi_x)

    def u0(self):
        return self.sin_2pi_x.astype(complex)

    def a_frozen_exp(self, times, weights, duration, state):
        coeff = sum(w * self.alpha(t) ** 2 for t, w in zip(times, weights))
        return exp_circulant(self.lap, duration * coeff, state)

    def b_kick(self, t_frozen, tau, state):
        return state * np.exp(tau * self.potential(t_frozen))

    def apply_laplacian(self, u):
        return (np.roll(u, 1) + np.roll(u, -1) - 2.0 * u) / self.dx ** 2

    def rhs(self, t, u):
        return self.alpha(t) ** 2 * self.apply_laplacian(u) + self.potential(t) * u

    def key(self):
        return "parabolic"

    def params(self):
        return ("parabolic", self.n_grid, self.mu, self.w, self.t0, self.tf)


class FisherProblem(ParabolicProblem):
    """u_t = alpha(t)^2 Lap u + gamma(t) u (1 - u), the Fisher reaction."""

    beta = 1.0

    def gamma(self, t):
        return (2.0 - math.exp(-self.beta * t)) / 100.0

    def b_kick(self, t_frozen, tau, state):
        # exact logistic flow with gamma frozen at a real time
        grow = np.exp(self.gamma(t_frozen) * tau)
        denom = 1.0 + state * (grow - 1.0)
        if np.any(np.abs(denom) <= 1e-12):
            raise StepFailed("singular logistic denominator")
        return state * grow / denom

    def rhs(self, t, u):
        return self.alpha(t) ** 2 * self.apply_laplacian(u) + self.gamma(t) * u * (1.0 - u)

    def key(self):
        return "fisher"

    def params(self):
        return ("fisher", self.n_grid, self.mu, self.w, self.beta, self.t0, self.tf)


#: problem name -> class, in the order the command line lists them
PROBLEMS = {"osc": OscillatorProblem, "parabolic": ParabolicProblem,
            "fisher": FisherProblem}


def make_problem(name, **overrides):
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}")
    return PROBLEMS[name](**overrides)


# ---------------------------------------------------------------------------
# Reference solution: two independent oracles that must agree.
# ---------------------------------------------------------------------------

def rk4_integrate(rhs, u0, t0, tf, n_steps):
    """Classical fourth-order one-step method on the full right-hand side.

    An array state u0 takes rhs(t, u) -> array.  A (q, p) tuple of floats
    takes rhs(t, q, p) -> (dq, dp) and runs the same arithmetic in the same
    order on Python floats, without numpy's per-operation overhead on a
    2-vector; it returns a (q, p) tuple.
    """
    if isinstance(u0, tuple):
        return _rk4_pair(rhs, u0, t0, tf, n_steps)
    u = np.asarray(u0).copy()
    h = (tf - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(t + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return u


def _rk4_pair(rhs, u0, t0, tf, n_steps):
    q, p = u0
    h = (tf - t0) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    t = t0
    for _ in range(n_steps):
        k1q, k1p = rhs(t, q, p)
        k2q, k2p = rhs(t + half, q + half * k1q, p + half * k1p)
        k3q, k3p = rhs(t + half, q + half * k2q, p + half * k2p)
        k4q, k4p = rhs(t + h, q + h * k3q, p + h * k3p)
        q = q + sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        t += h
    return q, p


def _splitting_oracle(problem):
    cfg = StepperConfig(scheme=builtin_scheme("SM4"), a_flow_kind="cf4")
    state, _ = integrate(cfg, problem, problem.u0(), problem.t0, problem.tf,
                         REF_SPLIT_STEPS)
    return state.values.real


def _classical_oracle(problem):
    u0 = problem.u0().real.astype(float)
    if isinstance(problem, OscillatorProblem):
        rhs, u0 = problem.rhs_pair, tuple(map(float, u0))
    else:
        rhs = problem.rhs
    u = rk4_integrate(rhs, u0, problem.t0, problem.tf, problem.rk4_steps)
    return np.asarray(u, dtype=float)


def default_cache_dir():
    env = os.environ.get("CXSPLIT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cxsplit"


def check_writable(directory):
    """Raise OSError unless a file can be created in `directory`: fail before the work."""
    try:
        tempfile.TemporaryFile(dir=directory).close()
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(directory)) from None


def _cache_path(problem, cache_dir):
    payload = repr(problem.params() + (REF_SPLIT_STEPS, problem.rk4_steps))
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return Path(cache_dir) / f"{problem.key()}_{digest}.ref", digest


def _write_cache(path, digest, values):
    blob = REF_MAGIC + digest.encode() + np.asarray(values, dtype="<f8").tobytes()
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)       # write-then-rename for concurrent sweeps
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_cache(path, digest, dim):
    """The cached reference, or None for a foreign, stale or truncated entry."""
    blob = path.read_bytes()
    if (blob[:8] != REF_MAGIC or blob[8:24] != digest.encode()
            or len(blob) - 24 != 8 * dim):
        return None
    return np.frombuffer(blob[24:], dtype="<f8").copy()


def _start_classical_oracle(problem):
    """Fork a child that runs _classical_oracle(problem); returns (pid, reader).

    The child sends ("ok", value) or ("err", exception) pickled down the
    pipe and leaves by os._exit, so it runs none of the parent's exit
    handlers and flushes none of its buffers.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = ("ok", _classical_oracle(problem))
            except BaseException as exc:
                result = ("err", exc)
            with open(write_fd, "wb") as fh:
                fh.write(pickle.dumps(result))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def reference_solution(problem, cache_dir=None):
    """Final-time reference state, cross-validated by two independent oracles.

    Oracle one is the best builtin splitting scheme run at a very fine step;
    oracle two is a classical one-step method on the unsplit right-hand side.
    The two run at the same time in 2 processes: the classical oracle in a
    child made by POSIX fork, the splitting oracle in this process.
    Disagreement beyond the tolerance is a hard failure, and a cache
    directory that cannot be created or written fails before either oracle.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path, digest = _cache_path(problem, cache_dir)
    if path.exists():
        cached = _read_cache(path, digest, problem.dim)
        if cached is not None:
            return cached
    cache_dir.mkdir(parents=True, exist_ok=True)
    check_writable(cache_dir)
    pid, reader = _start_classical_oracle(problem)
    try:
        with reader:
            split = _splitting_oracle(problem)
            blob = reader.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not blob:
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise CxsplitError(f"{problem.key()}: the classical oracle's process ended "
                           f"without a result ({how})")
    kind, classical = pickle.loads(blob)
    if kind == "err":
        raise classical
    gap = float(np.linalg.norm(split - classical))
    if not gap <= REF_AGREE_TOL:      # a NaN gap fails too
        raise ReferenceInconsistent(
            f"{problem.key()}: oracle disagreement {gap:.3e} > {REF_AGREE_TOL:.1e}")
    _write_cache(path, digest, split)
    return split
