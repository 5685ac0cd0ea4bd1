"""The three benchmark problems and their high-accuracy reference oracle.

A problem is its data, its kernels and its classical right-hand side; the
``Problem`` base derives the rest.  The kernels are whether its A(t) commute,
the frozen-exponential kernel for the dominant part, and a B-kick valid for
complex durations (closed forms, analytically continued in the duration).
Only the oscillator's epsilon and initial point and the PDE grid size are settable.

A PDE state is a float64 array until a complex kick: ``u0()`` is real, the
spectral flow and a kick of real duration keep a float64 array real (``math``
exponentials for a real duration), and a complex kick makes it a complex
ndarray, as the oscillator's float pair becomes complex numbers.
"""

from __future__ import annotations

import cmath
import errno
import hashlib
import math
import os
import pickle
import signal
import struct
import tempfile
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (CxsplitError, ReferenceInconsistent, ReferenceTooCostly, StepFailed,
                     ValidationError)
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
# A reference whose RK4 oracle makes more state updates (rk4_steps * dim) than
# this is not built: the defaults make 2.1e6 (osc) and 6.9e5 (N = 100), a
# PDE at N = 1024 makes 7.5e8.  A step of the array loop on a dim-point state
# takes about REF_RK4_STEP_S + dim * REF_RK4_UPDATE_S seconds (2-core x86-64).
REF_MAX_UPDATES = 10 ** 8
REF_RK4_STEP_S, REF_RK4_UPDATE_S = 1.3e-4, 3e-8
# The cache format and oracle-kernel version.  Problem.params keys class data,
# fields and the RK4 step count itself; raise this with any change to the
# format or to a kernel that moves the oracles' bits, so older entries rebuild.
REF_VERSION = 4
# magic, version, key digest, payload bytes, oracle gap, build seconds
REF_HEADER = struct.Struct("<8sQ16sQdd")

# The oscillator's forcing frequencies.  They are an arithmetic progression,
# so its kernels sum the three sines in closed form: sin(q - w_2 t) * (1 +
# 2 cos(d t)) with d = w_2 - w_1, read here as globals, which are read faster
# than class attributes through an instance.
OMEGA_J = (7.0, 14.0, 21.0)
OMEGA_MID, OMEGA_STEP = OMEGA_J[1], OMEGA_J[1] - OMEGA_J[0]
# Parabolic kick factors kept per problem: one run of a scheme uses <= 4, a
# sweep's share of (method, n_steps) points a few dozen (counts in CHANGES.md).
KICK_FACTORS_KEPT = 16


class Problem:
    """A problem dataclass's cache identity, and its RK4 oracle on its rhs."""

    def key(self):
        """The name of the class, or of its nearest registered base, in PROBLEMS."""
        return next(k for c in type(self).__mro__ for k, v in PROBLEMS.items() if v is c)

    def params(self):
        """The qualified class name, then each class datum, field and the RK4 step count as read."""
        data = {k: getattr(self, k) for c in reversed(type(self).__mro__)  # no method or property
                for k, v in vars(c).items() if k[0] != "_" and not hasattr(v, "__get__")}
        data.update({f.name: getattr(self, f.name) for f in fields(self)}, rk4_steps=self.rk4_steps)
        return (f"{type(self).__module__}.{type(self).__qualname__}", *data.items())

    def rk4_oracle(self):
        return rk4_integrate(self.rhs, self.u0().real, self.t0, self.tf, self.rk4_steps)


@dataclass
class OscillatorProblem(Problem):
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

    def u0(self):
        return np.array([self.q0, self.p0], dtype=complex)

    # Both kernels take a (q, p) pair, the run's initial ndarray (read once,
    # with tolist) or a tuple (taken as given), and return a (q, p) tuple of
    # Python numbers: on a 2-component state numpy's per-call overhead would
    # be the whole cost.  The tuple passes from stage to stage and from step
    # to step, projected by each step's finish onto floats; only the run's
    # end makes it an ndarray.  A float pair stays floats through the A-flows
    # and real kicks, and a complex kick makes it complex: on a float the
    # arithmetic is the real part of the complex one, bit for bit.
    # Squares are products: x ** 2 calls libm's pow, slower than x * x and
    # not always correctly rounded.

    def a_frozen_exp(self, times, weights, duration, state):
        # sum_i w_i A(t_i) = w_sum * [[0, 1], [-omega_sq / w_sum, 0]], with
        # Omega(t) = 1 + cos(1.5 t) / 2
        cos, omega_sq, w_sum = math.cos, 0.0, 0.0
        for t, w in zip(times, weights):
            omega = 1.0 + 0.5 * cos(1.5 * t)
            omega_sq += w * (omega * omega)
            w_sum += w
        q, p = state if type(state) is tuple else state.tolist()
        if w_sum == 0.0:   # [[0, 0], [-omega_sq, 0]] is nilpotent: exp is I + duration * it
            return q, p - duration * omega_sq * q
        return exp_2x2(omega_sq / w_sum, duration * w_sum, (q, p))

    def b_kick(self, t_frozen, tau, state):
        q, p = state if type(state) is tuple else state.tolist()
        sin = math.sin if type(q) is float else cmath.sin
        kick = sin(q - OMEGA_MID * t_frozen) * (1.0 + 2.0 * math.cos(OMEGA_STEP * t_frozen))
        return q, p - tau * self.epsilon * kick

    def rk4_oracle(self):   # floats: no numpy overhead on a 2-vector
        return np.array(_rk4_osc(self.epsilon, *self.u0().real.tolist(), self.t0, self.tf,
                                 self.rk4_steps))


@dataclass
class ParabolicProblem(Problem):
    """u_t = alpha(t)^2 Lap u + V(x, t) u on the periodic unit interval."""

    n_grid: int = 100

    mu, w = 1.0 / 6.0, 2.0
    t0, tf = 0.0, 1.0
    commuting = True

    def __post_init__(self):
        if type(self.n_grid) is not int or self.n_grid < 1:
            raise ValidationError(f"{self.key()}: n_grid must be an integer >= 1, "
                                  f"got {self.n_grid!r}")
        self.dx = 1.0 / self.n_grid
        self.x = self.dx * np.arange(1, self.n_grid + 1)
        self.lap = CirculantLaplacian(self.n_grid, self.dx)
        self.dim = self.n_grid
        self.sin_2pi_x = np.sin(TWO_PI * self.x)
        self._kick_factors = {}     # tau -> exp(0.1 tau sin(2 pi x)); see b_kick
        # stability bound of explicit RK4 on the diffusion spectrum; the
        # floor keeps the temporal error negligible on coarse grids, where
        # the stability bound alone would be accuracy-limited
        stiff = 4.0 * (self.tf - self.t0) / self.dx ** 2 * (0.25 + abs(self.mu)) ** 2
        self.rk4_steps = max(int(math.ceil(stiff)), REF_PDE_RK4_MIN_STEPS)

    def alpha(self, t):
        return 0.25 + self.mu * math.cos(self.w * t)

    def potential(self, t):
        return 0.1 * (3.0 * (1.0 - math.exp(-t)) + self.sin_2pi_x)

    def u0(self):
        return self.sin_2pi_x.copy()

    def a_frozen_exp(self, times, weights, duration, state):
        # alpha(t) ** 2 written out, cheaper than a method call per time, as
        # a left fold: sum() rounds differently from Python 3.12 on
        coeff, mu, w_t, cos = 0.0, self.mu, self.w, math.cos
        for t, w in zip(times, weights):
            coeff += w * (0.25 + mu * cos(w_t * t)) ** 2
        return exp_circulant(self.lap, duration * coeff, state)

    def b_kick(self, t_frozen, tau, state):
        # exp(tau V(x, t)) = exp(0.3 tau (1 - e^-t)) * exp(0.1 tau sin(2 pi x)):
        # the second factor depends only on tau = b_i h, which repeats every step.
        # It is kept by tau's value, as the keys compare (complex(x) == x), so a
        # real-valued tau gets the real exponential whatever its type
        factor = self._kick_factors.get(tau)
        if factor is None:
            if len(self._kick_factors) >= KICK_FACTORS_KEPT:
                self._kick_factors.clear()
            factor = self._kick_factors[tau] = np.exp((tau if tau.imag else tau.real)
                                                      * (0.1 * self.sin_2pi_x))
        exp = math.exp if isinstance(tau, float) else cmath.exp    # keeps a real state real
        return state * (exp(tau * (0.3 * (1.0 - math.exp(-t_frozen)))) * factor)

    def apply_laplacian(self, u):
        return (np.roll(u, 1) + np.roll(u, -1) - 2.0 * u) / self.dx ** 2

    def rhs(self, t, u):
        return self.alpha(t) ** 2 * self.apply_laplacian(u) + self.potential(t) * u


class FisherProblem(ParabolicProblem):
    """u_t = alpha(t)^2 Lap u + gamma(t) u (1 - u), the Fisher reaction."""

    beta = 1.0

    def gamma(self, t):
        return (2.0 - math.exp(-self.beta * t)) / 100.0

    def b_kick(self, t_frozen, tau, state):
        # exact logistic flow with gamma frozen at a real time
        exp = math.exp if isinstance(tau, float) else cmath.exp    # keeps a real state real
        grow = exp(self.gamma(t_frozen) * tau)
        d = state * (grow - 1.0)
        # the denominator is 1 + d: |d|^2 < 0.81 puts every |1 + d_i| at 0.1 or
        # more, and a larger, NaN or infinite norm runs the exact test (fmin
        # skips NaN entries, as a per-entry `<= 1e-12` test would)
        if not abs(np.vdot(d, d)) < 0.81 and np.fmin.reduce(np.abs(d + 1.0)) <= 1e-12:
            raise StepFailed("singular logistic denominator")
        d += 1.0
        out = state * grow
        out /= d
        return out

    def rhs(self, t, u):
        return self.alpha(t) ** 2 * self.apply_laplacian(u) + self.gamma(t) * u * (1.0 - u)


#: problem name -> class, in the order the command line lists them
PROBLEMS = {"osc": OscillatorProblem, "parabolic": ParabolicProblem, "fisher": FisherProblem}


def make_problem(name, **overrides):
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}")
    return PROBLEMS[name](**overrides)


# ---------------------------------------------------------------------------
# Reference solution: two independent oracles that must agree.
# ---------------------------------------------------------------------------

def rk4_integrate(rhs, u0, t0, tf, n_steps):
    """Classical RK4 on the full right-hand side rhs(t, u); step i starts at t0 + i h."""
    u = np.asarray(u0).copy()
    h = (tf - t0) / n_steps
    t, i = t0, 0.0
    for _ in range(n_steps):
        i += 1.0
        t_next = t0 + i * h
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(t_next, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_next
    return u


def _rk4_osc(epsilon, q, p, t0, tf, n_steps):
    """The RK4 loop on the oscillator's right-hand side, written out on local floats.

    dq/dt = p, dp/dt = -Omega(t)^2 q - epsilon * (1 + 2 cos(d t)) sin(q - w_2 t),
    the forcing's closed form.  -Omega(t)^2, w_2 t and epsilon * (1 + 2 cos(d t))
    are computed once per time: the k2 and k3 stages share t + h/2, and the k4
    stage's t0 + (i + 1) h is the next's t.
    """
    sin, cos, w_mid, w_step = math.sin, math.cos, OMEGA_MID, OMEGA_STEP
    h = (tf - t0) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    t, i = t0, 0.0
    omega = 1.0 + 0.5 * cos(1.5 * t)
    neg_om_sq, y = -(omega * omega), w_mid * t
    force = epsilon * (1.0 + 2.0 * cos(w_step * t))
    for _ in range(n_steps):
        k1p = neg_om_sq * q - force * sin(q - y)
        t_mid = t + half
        omega = 1.0 + 0.5 * cos(1.5 * t_mid)
        neg_om_sq_mid, x = -(omega * omega), w_mid * t_mid
        force_mid = epsilon * (1.0 + 2.0 * cos(w_step * t_mid))
        q2, k2q = q + half * p, p + half * k1p
        k2p = neg_om_sq_mid * q2 - force_mid * sin(q2 - x)
        q3, k3q = q + half * k2q, p + half * k2p
        k3p = neg_om_sq_mid * q3 - force_mid * sin(q3 - x)
        i += 1.0
        t = t0 + i * h
        omega = 1.0 + 0.5 * cos(1.5 * t)
        neg_om_sq, y = -(omega * omega), w_mid * t
        force = epsilon * (1.0 + 2.0 * cos(w_step * t))
        q4, k4q = q + h * k3q, p + h * k3p
        k4p = neg_om_sq * q4 - force * sin(q4 - y)
        q = q + sixth * (p + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return q, p


def _splitting_oracle(problem):
    cfg = StepperConfig(scheme=builtin_scheme("SM4"), a_flow_kind="cf4")
    try:
        state, _ = integrate(cfg, problem, problem.u0(), problem.t0, problem.tf,
                             REF_SPLIT_STEPS)
    except StepFailed as exc:
        raise StepFailed(f"{problem.key()}: reference {problem.params()} not built: "
                         f"the splitting oracle failed: {exc}") from exc
    return state.values.real


def _classical_oracle(problem):
    return problem.rk4_oracle()


def default_cache_dir():
    env = os.environ.get("CXSPLIT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cxsplit"


def check_writable(path):
    """Raise OSError unless a file can be written at `path`: fail before the work."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    try:
        tempfile.TemporaryFile(dir=path.parent).close()
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path.parent)) from None


def _cache_path(problem, cache_dir):
    payload = repr(problem.params() + (REF_SPLIT_STEPS, REF_PDE_RK4_MIN_STEPS))
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
    Disagreement beyond the tolerance is a hard failure.  A reference whose RK4
    oracle would make more than REF_MAX_UPDATES state updates, and a cache
    directory that cannot be created or written, fail before either oracle.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path, digest = _cache_path(problem, cache_dir)
    if path.exists():
        cached = _read_cache(path, digest, problem.dim)
        if cached is not None:
            return cached[0]
    updates = problem.rk4_steps * problem.dim
    if updates > REF_MAX_UPDATES:
        est = problem.rk4_steps * (REF_RK4_STEP_S + problem.dim * REF_RK4_UPDATE_S)
        raise ReferenceTooCostly(
            f"{problem.key()}: reference not built: its RK4 oracle needs {problem.rk4_steps} "
            f"steps on {problem.dim} components ({updates:.2e} state updates, about "
            f"{est:.3g} s), over the budget of {REF_MAX_UPDATES:.0e} updates")
    cache_dir.mkdir(parents=True, exist_ok=True)
    check_writable(path)
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
