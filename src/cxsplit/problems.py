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
import struct
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CxsplitError, ReferenceInconsistent, StepFailed, ValidationError
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
# The cache format and oracle-kernel version: raise it with any change to the
# format or to a kernel that moves the oracles' bits, so that older entries
# are rebuilt instead of read as valid.
REF_VERSION = 2
# magic, version, key digest, payload bytes, oracle gap, build seconds
REF_HEADER = struct.Struct("<8sQ16sQdd")

# The oscillator's forcing frequencies, read as a global by its kernels: on
# CPython 3.11 a class attribute read through an instance costs about 45 ns
# more on each of the osc kernels' calls.
OMEGA_J = (7.0, 14.0, 21.0)
# Parabolic kick factors kept per problem: a sweep runs its (method, n_steps)
# points on one problem, a share of them in each process.  perfbench's 30-point
# parabolic sweep in 2 shares sees 32 and 33 distinct tau (32 and 35 misses,
# 6400 and 5629 hits, 1 and 2 clears; 61, 68, 12028 and 4 in one process); one
# run of a scheme uses <= 4.
KICK_FACTORS_KEPT = 16


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

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise ValidationError(f"osc: epsilon must be finite, got {self.epsilon!r}")

    @staticmethod
    def big_omega(t):
        return 1.0 + 0.5 * math.cos(1.5 * t)

    def u0(self):
        return np.array([self.q0, self.p0], dtype=complex)

    # Both kernels take a (q, p) pair, the step's ndarray (read once, with
    # tolist) or the tuple the previous kernel returned (taken as given), and
    # return a (q, p) tuple of Python complex: on a 2-component state numpy's
    # per-call overhead would be the whole cost.  The tuple passes from stage
    # to stage, and from run to run inside an EXT4 step, until the step's
    # one finish checks it, projects it and makes it an ndarray.
    # The sums are left folds, the order sum() adds numpy scalars in, so the
    # results equal numpy-scalar arithmetic wherever cmath.sin and np.sin
    # agree (bit for bit on x86-64 glibc).

    def a_frozen_exp(self, times, weights, duration, state):
        # sum_i w_i A(t_i) = w_sum * [[0, 1], [-omega_sq / w_sum, 0]]; big_omega
        # is written out: its call cost a third of this kernel's time
        cos, omega_sq, w_sum = math.cos, 0.0, 0.0
        for t, w in zip(times, weights):
            omega_sq += w * (1.0 + 0.5 * cos(1.5 * t)) ** 2
            w_sum += w
        q, p = state if type(state) is tuple else state.tolist()
        if w_sum == 0.0:   # [[0, 0], [-omega_sq, 0]] is nilpotent: exp is I + duration * it
            return q, p - duration * omega_sq * q
        return exp_2x2(omega_sq / w_sum, duration * w_sum, (q, p))

    def b_kick(self, t_frozen, tau, state):
        q, p = state if type(state) is tuple else state.tolist()
        kick = 0j
        for w in OMEGA_J:
            kick += cmath.sin(q - w * t_frozen)
        return q, p - tau * self.epsilon * kick

    def rhs(self, t, u):
        q, p = u
        force = -self.big_omega(t) ** 2 * q \
            - self.epsilon * sum(np.sin(q - w * t) for w in OMEGA_J)
        return np.array([p, force], dtype=u.dtype)

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
        self._kick_factors = {}     # tau -> exp(0.1 tau sin(2 pi x)); see b_kick
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
        coeff = 0.0     # a left fold: sum() rounds differently from Python 3.12 on
        for t, w in zip(times, weights):
            coeff += w * self.alpha(t) ** 2
        return exp_circulant(self.lap, duration * coeff, state)

    def b_kick(self, t_frozen, tau, state):
        # exp(tau V(x, t)) = exp(0.3 tau (1 - e^-t)) * exp(0.1 tau sin(2 pi x)):
        # the second factor depends only on tau = b_i h, which repeats every step
        factor = self._kick_factors.get(tau)
        if factor is None:
            if len(self._kick_factors) >= KICK_FACTORS_KEPT:
                self._kick_factors.clear()
            factor = self._kick_factors[tau] = np.exp(tau * (0.1 * self.sin_2pi_x))
        return state * (cmath.exp(tau * (0.3 * (1.0 - math.exp(-t_frozen)))) * factor)

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
        grow = cmath.exp(self.gamma(t_frozen) * tau)
        denom = 1.0 + state * (grow - 1.0)
        # fmin skips NaN entries, as a per-entry `<= 1e-12` test would
        if np.fmin.reduce(np.abs(denom)) <= 1e-12:
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
    """Classical fourth-order one-step method on the full right-hand side rhs(t, u)."""
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


def _rk4_osc(epsilon, q, p, t0, tf, n_steps):
    """The RK4 loop with OscillatorProblem.rhs written out on local floats.

    dq/dt = p, dp/dt = -Omega(t)^2 q - epsilon * (left-fold sum of the three
    sines).  -Omega(t)^2 and each omega_j t are computed once per time: the k2
    and k3 stages share t + h/2, and the k4 stage's t + h is the next step's t.
    """
    sin, cos = math.sin, math.cos
    w1, w2, w3 = OMEGA_J
    h = (tf - t0) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    t = t0
    neg_om_sq = -(1.0 + 0.5 * cos(1.5 * t)) ** 2
    y1, y2, y3 = w1 * t, w2 * t, w3 * t
    for _ in range(n_steps):
        k1p = neg_om_sq * q - epsilon * (sin(q - y1) + sin(q - y2) + sin(q - y3))
        t_mid = t + half
        neg_om_sq_mid = -(1.0 + 0.5 * cos(1.5 * t_mid)) ** 2
        x1, x2, x3 = w1 * t_mid, w2 * t_mid, w3 * t_mid
        q2, k2q = q + half * p, p + half * k1p
        k2p = neg_om_sq_mid * q2 - epsilon * (sin(q2 - x1) + sin(q2 - x2) + sin(q2 - x3))
        q3, k3q = q + half * k2q, p + half * k2p
        k3p = neg_om_sq_mid * q3 - epsilon * (sin(q3 - x1) + sin(q3 - x2) + sin(q3 - x3))
        t = t + h
        neg_om_sq = -(1.0 + 0.5 * cos(1.5 * t)) ** 2
        y1, y2, y3 = w1 * t, w2 * t, w3 * t
        q4, k4q = q + h * k3q, p + h * k3p
        k4p = neg_om_sq * q4 - epsilon * (sin(q4 - y1) + sin(q4 - y2) + sin(q4 - y3))
        q = q + sixth * (p + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return q, p


def _splitting_oracle(problem):
    cfg = StepperConfig(scheme=builtin_scheme("SM4"), a_flow_kind="cf4")
    state, _ = integrate(cfg, problem, problem.u0(), problem.t0, problem.tf,
                         REF_SPLIT_STEPS)
    return state.values.real


def _classical_oracle(problem):
    t0, tf, n_steps = problem.t0, problem.tf, problem.rk4_steps
    if isinstance(problem, OscillatorProblem):     # floats: no numpy overhead on a 2-vector
        return np.array(_rk4_osc(problem.epsilon, *problem.u0().real.tolist(), t0, tf, n_steps))
    return rk4_integrate(problem.rhs, problem.u0().real, t0, tf, n_steps)


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


def _write_cache(path, digest, values, gap, build_s):
    payload = np.asarray(values, dtype="<f8").tobytes()
    blob = REF_HEADER.pack(REF_MAGIC, REF_VERSION, digest.encode(), len(payload),
                           gap, build_s) + payload
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)       # write-then-rename for concurrent sweeps
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_cache(path, digest, dim):
    """(reference, oracle gap, build seconds) as cached, or None.

    None is a foreign, stale, truncated or overlong entry, or one written
    under another REF_VERSION.
    """
    blob = path.read_bytes()
    if len(blob) < REF_HEADER.size:
        return None
    magic, version, key, length, gap, build_s = REF_HEADER.unpack_from(blob)
    if (magic != REF_MAGIC or version != REF_VERSION or key != digest.encode()
            or length != 8 * dim or len(blob) - REF_HEADER.size != length):
        return None
    return np.frombuffer(blob, dtype="<f8", offset=REF_HEADER.size).copy(), gap, build_s


def run_forked(what, parent_fn, *child_fns):
    """Run parent_fn() here while each child_fn() runs in a forked child.

    Returns [parent_fn(), then each child_fn()'s value in order].  A child
    sends ("ok", value) or ("err", exception) pickled down a pipe and leaves
    by os._exit, so it runs none of the parent's exit handlers and flushes
    none of its buffers; its exception is raised here.  When this process
    fails, or a child's exception is raised, every child not yet reaped is
    killed and reaped first.  A child that ends without a result raises
    CxsplitError: "<what> ended without a result (exit code N)".
    """
    children = []       # (pid, reader) of each child not yet reaped
    try:
        for fn in child_fns:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    try:
                        result = ("ok", fn())
                    except BaseException as exc:
                        result = ("err", exc)
                    with open(write_fd, "wb") as fh:
                        fh.write(pickle.dumps(result))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = [parent_fn()]
        while children:
            pid, reader = children[0]
            with reader:
                blob = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code != 0 or not blob:
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise CxsplitError(f"{what} ended without a result ({how})")
            kind, value = pickle.loads(blob)
            if kind == "err":
                raise value
            results.append(value)
    except BaseException:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return results


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
            return cached[0]
    cache_dir.mkdir(parents=True, exist_ok=True)
    check_writable(cache_dir)
    start = time.perf_counter()
    split, classical = run_forked(f"{problem.key()}: the classical oracle's process",
                                  lambda: _splitting_oracle(problem),
                                  lambda: _classical_oracle(problem))
    gap = float(np.linalg.norm(split - classical))
    if not gap <= REF_AGREE_TOL:      # a NaN gap fails too
        raise ReferenceInconsistent(
            f"{problem.key()}: oracle disagreement {gap:.3e} > {REF_AGREE_TOL:.1e}")
    _write_cache(path, digest, split, gap, time.perf_counter() - start)
    return split
