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
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import (CxsplitError, ReferenceInconsistent, ReferenceTooCostly, StepFailed,
                     ValidationError)
from .propagators import CirculantLaplacian, exp_2x2, exp_circulant, math_ufunc, weighted_sum
from .schemes import builtin_scheme
from .stepper import StepperConfig, integrate

TWO_PI = 2.0 * math.pi

# reference-oracle recipe
REF_SPLIT_STEPS = 2 ** 16
REF_OSC_RK4_STEPS = 2 ** 20
REF_PDE_RK4_MIN_STEPS = 2 ** 12
# The osc RK4 loop tabulates its time terms this many steps at a time
RK4_CHUNK = 1024
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

    # A time half works on a chunk's float64 arrays, with math's bits (math_ufunc); its rows
    # are floats: (c, s, n) of exp = [[c, s], [n, c]] per A-call, (w_2 t, 1 + 2 cos(d t),
    # tau * epsilon) per kick.  The state halves take a (q, p) pair, the run's ndarray (read
    # once, with tolist) or a tuple, and return a tuple of Python numbers: on 2 components
    # numpy's per-call overhead would be the whole cost.  A float pair stays floats until a
    # complex kick: on a float the arithmetic is the real part of the complex one, bit for
    # bit.  Squares are products: x ** 2 calls libm's pow, slower than x * x.

    def a_frozen_coeffs(self, times, calls, taus):
        # Omega(t)^2 at each time, with Omega(t) = 1 + cos(1.5 t) / 2; a call's weights sum to
        # 1.0 (the rule of a non-commuting flow), so sum_i w_i A(t_i) = [[0, 1], [-omega_sq,
        # 0]] with omega_sq = sum_i w_i Omega(t_i)^2, every call's at once
        omega = 1.0 + 0.5 * math_ufunc(np.cos, 1.5 * times)
        weights = [np.array(w).reshape(-1, 1, 1) for w in zip(*[w for w, _ in calls])]
        omega_sq = weighted_sum(omega * omega, weights)     # axes (call, A-flow, step)
        durations = np.multiply.outer([factor for _, factor in calls], taus)
        c, s, n = exp_2x2(omega_sq, durations[..., None])
        return [list(map(zip, *col)) for col in zip(c.tolist(), s.tolist(), n.tolist())]

    def b_kick_coeffs(self, t_frozen, taus):
        return list(map(zip, (OMEGA_MID * t_frozen).tolist(),
                        (1.0 + 2.0 * math_ufunc(np.cos, OMEGA_STEP * t_frozen)).tolist(),
                        [repeat(tau * self.epsilon) for tau in taus]))

    def a_frozen_exp(self, row, state):
        c, s, n = row
        q, p = state if type(state) is tuple else state.tolist()
        return c * q + s * p, n * q + c * p

    def b_kick(self, row, state):
        y, force, tau_eps = row
        q, p = state if type(state) is tuple else state.tolist()
        sin = math.sin if type(q) is float else cmath.sin
        return q, p - tau_eps * (sin(q - y) * force)

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

    def a_frozen_coeffs(self, times, calls, taus):
        # the durations factor tau sum_i w_i alpha(t_i) ** 2, alpha written out (cheaper than
        # a method call), folded left: sum() rounds differently from Python 3.12 on
        mu, w_t, cos = self.mu, self.w, math.cos
        squares = np.array([(0.25 + mu * cos(w_t * t)) ** 2 for t in times.ravel().tolist()])
        squares, taus = squares.reshape(times.shape), np.array(taus)[:, None]
        return [(factor * taus * weighted_sum(squares, w)).tolist() for w, factor in calls]

    def b_kick_coeffs(self, t_frozen, taus):
        # exp(tau V(x, t)) = exp(0.3 tau (1 - e^-t)) * exp(0.1 tau sin(2 pi x)): a row is
        # the first factor's exponent and the second factor, which depends only on tau =
        # b_i h, taken once per distinct tau of the call.  The taus are told apart by value
        # (complex(x) == x), so a real tau gets the real exponential in any type
        sin_part = 0.1 * self.sin_2pi_x
        factors = {tau: np.exp((tau if tau.imag else tau.real) * sin_part) for tau in set(taus)}
        return [zip([tau * (0.3 * (1.0 - math.exp(-t))) for t in ts], repeat(factors[tau]))
                for ts, tau in zip(t_frozen.tolist(), taus)]

    def a_frozen_exp(self, duration, state):
        return exp_circulant(self.lap, duration, state)

    def b_kick(self, row, state):
        x, factor = row
        exp = math.exp if isinstance(x, float) else cmath.exp    # keeps a real state real
        return state * (exp(x) * factor)

    def apply_laplacian(self, u):
        return (np.roll(u, 1) + np.roll(u, -1) - 2.0 * u) / self.dx ** 2

    def rhs(self, t, u):
        return self.alpha(t) ** 2 * self.apply_laplacian(u) + self.potential(t) * u


class FisherProblem(ParabolicProblem):
    """u_t = alpha(t)^2 Lap u + gamma(t) u (1 - u), the Fisher reaction."""

    beta = 1.0

    def gamma(self, t):
        return (2.0 - math.exp(-self.beta * t)) / 100.0

    def b_kick_coeffs(self, t_frozen, taus):
        # exact logistic flow with gamma frozen at a real time: a row is gamma(t) tau
        return [[self.gamma(t) * tau for t in ts] for ts, tau in zip(t_frozen.tolist(), taus)]

    def b_kick(self, x, state):
        exp = math.exp if isinstance(x, float) else cmath.exp    # keeps a real state real
        grow = exp(x)
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


def _osc_terms(epsilon, t):
    """-Omega(t)^2, w_2 t and epsilon * (1 + 2 cos(d t)) at the times of the float64 array t,
    as lists; np.cos gives the bits of math.cos."""
    omega = 1.0 + 0.5 * np.cos(1.5 * t)
    return [(-(omega * omega)).tolist(), (OMEGA_MID * t).tolist(),
            (epsilon * (1.0 + 2.0 * np.cos(OMEGA_STEP * t))).tolist()]


def _rk4_osc(epsilon, q, p, t0, tf, n_steps):
    """The RK4 loop on the oscillator's right-hand side, written out on local floats.

    dq/dt = p, dp/dt = -Omega(t)^2 q - epsilon * (1 + 2 cos(d t)) sin(q - w_2 t),
    the forcing's closed form.  Its time terms (``_osc_terms``) are tabulated
    RK4_CHUNK steps at a time, at each step's end t0 + (i + 1) h and midpoint
    t + h/2, shared by the k2 and k3 stages; a step's end is the next's t.
    """
    sin = math.sin
    h = (tf - t0) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    (neg_om_sq,), (y,), (force,) = _osc_terms(epsilon, np.array([t0]))
    t = t0
    for done in range(0, n_steps, RK4_CHUNK):
        ends = t0 + np.arange(done + 1, min(done + RK4_CHUNK, n_steps) + 1, dtype=float) * h
        mids = np.concatenate(([t], ends[:-1])) + half
        t = ends[-1]
        for neg_om_sq_mid, x, force_mid, neg_om_sq_end, y_end, force_end in zip(
                *_osc_terms(epsilon, mids), *_osc_terms(epsilon, ends)):
            k1p = neg_om_sq * q - force * sin(q - y)
            q2, k2q = q + half * p, p + half * k1p
            k2p = neg_om_sq_mid * q2 - force_mid * sin(q2 - x)
            q3, k3q = q + half * k2q, p + half * k2p
            k3p = neg_om_sq_mid * q3 - force_mid * sin(q3 - x)
            neg_om_sq, y, force = neg_om_sq_end, y_end, force_end
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
