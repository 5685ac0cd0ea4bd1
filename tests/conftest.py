import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cxsplit.problems import OMEGA_J, make_problem, reference_solution
from cxsplit.schemes import Scheme, Stage, builtin_scheme, serialize_scheme
from cxsplit.stepper import FREEZE_NODES, _run_stages, _tabulate, a_flow, compile_stages

try:
    import hypothesis
except ModuleNotFoundError:     # the property tests skip themselves
    pass
else:
    # Even without an example database, hypothesis caches the constants it finds
    # in local modules, at collection time; keep that cache out of the checkout.
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    hypothesis.configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# References built by the tests are cached in this git-ignored directory of
# the checkout, never in ~/.cache/cxsplit.
REF_CACHE_DIR = Path(__file__).resolve().parent.parent / ".test_refcache"


@pytest.fixture(scope="session", autouse=True)
def repo_local_reference_cache():
    """Point CXSPLIT_CACHE_DIR at REF_CACHE_DIR for the whole session.

    Autouse at session scope, so it is set before the reference fixtures,
    and in-process CLI runs and subprocesses see it as well.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CXSPLIT_CACHE_DIR", str(REF_CACHE_DIR))
        yield REF_CACHE_DIR


@pytest.fixture(scope="session")
def osc_ref():
    problem = make_problem("osc")
    return problem, reference_solution(problem)


@pytest.fixture(scope="session")
def osc_ref_eps01():
    problem = make_problem("osc", epsilon=0.1)
    return problem, reference_solution(problem)


@pytest.fixture(scope="session")
def osc_ref_eps0():
    problem = make_problem("osc", epsilon=0.0)
    return problem, reference_solution(problem)


@pytest.fixture(scope="session")
def parabolic_ref():
    problem = make_problem("parabolic")
    return problem, reference_solution(problem)


@pytest.fixture(scope="session")
def fisher_ref():
    problem = make_problem("fisher")
    return problem, reference_solution(problem)


def assert_no_child_left():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def near_tolerance_sm64_text():
    """An SM64 file whose mirrored b rows sit 0.9e-9 above the first half's.

    The centre row is lowered by 2.7e-9, so the rows sum to 1 and every
    mirrored pair passes the FILE_TOL row check.  The scheme that runs keeps
    the first half and the centre, so its expanded kicks miss 1 by 2.7e-9.
    """
    lines = serialize_scheme(builtin_scheme("SM64")).splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith("b ")]
    for i, shift in zip(rows[3:], (-2.7e-9, 0.9e-9, 0.9e-9, 0.9e-9)):
        _, real, imag = lines[i].split()
        lines[i] = f"b {float(real) + shift!r} {imag}"
    return "\n".join(lines) + "\n"


# SM(8,4), the 8-stage design at a = 1/8: its reduced kicks to about 6 digits,
# the conjugate branch with Im(b_1) <= 0
SM84_B = (0.03929 - 0.001957j, 0.17245 + 0.015656j, 0.090606 - 0.054797j,
          0.123551 + 0.109595j, 0.148207 - 0.136994j)
# BAB files with a non-finite coefficient: the sums they give are nan
NON_FINITE_TEXTS = {
    "a_nan": "name=t\npattern=BAB\norder=2\nb 0.5 0\na nan 0\nb 0.5 0\n",
    "b_inf": "name=t\npattern=BAB\norder=2\nb inf 0\na 1 0\nb -inf 0\n",
}


def yoshida_text():
    """The Yoshida triple jump of Strang_BAB as a scheme file.

    A real, symmetric, fourth-order BAB scheme whose middle flow runs
    backwards, w0 = -2^(1/3) / (2 - 2^(1/3)): real schemes of order above
    two need negative coefficients, which blow up on a parabolic problem.
    """
    cbrt2 = 2.0 ** (1.0 / 3.0)
    w1, w0 = 1.0 / (2.0 - cbrt2), -cbrt2 / (2.0 - cbrt2)
    scheme = Scheme("yoshida", "BAB", (w1, w0), (0.5 * w1, 0.5 * (w1 + w0)), 4, True)
    return serialize_scheme(scheme)


def conjugate(scheme):
    """The scheme with every coefficient complex-conjugated: the other branch."""
    return replace(scheme, a=tuple(complex(x).conjugate() for x in scheme.a),
                   b=tuple(complex(x).conjugate() for x in scheme.b))


def dense_expm(mat):
    """Scaling-and-squaring matrix exponential (Taylor core), test oracle."""
    mat = np.asarray(mat, dtype=complex)
    norm = np.linalg.norm(mat, np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 4)
    small = mat / 2.0 ** squarings
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, 25):
        term = term @ small / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def run_stages(plan, problem, t, u, h, record=None):
    """One unprojected run of plan on problem from t: the stage runner on a table of one step."""
    [table] = _tabulate(plan, problem, [([t], h)])
    return _run_stages(table, u, record)


def run_flow(kind, problem, t0, h, u, freeze="midpoint"):
    """One A-flow of `kind` over [t0, t0 + h] on problem: a one-stage plan run by the stepper."""
    plan = compile_stages((Stage("A", 1.0, 0.0),), a_flow(problem, kind), FREEZE_NODES[freeze])
    return run_stages(plan, problem, t0, u, h)


def frozen_exp(problem, times, weights, duration, state):
    """exp(duration * sum_i weights_i A(times_i)) on state: problem's two A-kernel halves
    at one step, the time half for a call of factor 1."""
    [[[row]]] = problem.a_frozen_coeffs(np.array([[[t]] for t in times]), ((weights, 1.0),),
                                        [duration])
    return problem.a_frozen_exp(row, state)


def kick(problem, t_frozen, tau, state):
    """The B-kick frozen at t_frozen for the duration tau on state: problem's two kick
    halves at one step."""
    [[row]] = problem.b_kick_coeffs(np.array([[t_frozen]]), [tau])
    return problem.b_kick(row, state)


class OneCallKernels:
    """The two-half kernel protocol over a stub's one-call kernels.

    The time halves hand each call's arguments to the state halves as its rows,
    and these call ``a_call(times, weights, duration, state)`` and
    ``kick_call(t_frozen, tau, state)``, once per stage call as the stepper
    makes them.
    """

    def a_frozen_coeffs(self, times, calls, taus):
        return [[[(step_times, weights, factor * tau) for step_times in zip(*flow_times)]
                 for flow_times, tau in zip(zip(*times.tolist()), taus)]
                for weights, factor in calls]

    def b_kick_coeffs(self, t_frozen, taus):
        return [[(t, tau) for t in ts] for ts, tau in zip(t_frozen.tolist(), taus)]

    def a_frozen_exp(self, row, state):
        return self.a_call(*row, state)

    def b_kick(self, row, state):
        return self.kick_call(*row, state)


def big_omega(t):
    """The oscillator's Omega(t), the square root of its A(t)'s restoring coefficient."""
    return 1.0 + 0.5 * math.cos(1.5 * t)


def osc_rhs(problem):
    """The oscillator's full right-hand side rhs(t, u) on numpy arrays.

    The reference of its kernels and of the float RK4 loop ``_rk4_osc``,
    which writes this formula out: dq/dt = p, dp/dt = -Omega(t)^2 q -
    epsilon * sum_j sin(q - omega_j t), the sum in its closed form
    (1 + 2 cos(d t)) sin(q - w_2 t) for the progression w_j = w_2 + (j - 2) d.
    """
    w_mid, w_step = OMEGA_J[1], OMEGA_J[1] - OMEGA_J[0]

    def rhs(t, u):
        q, p = u
        omega = big_omega(t)
        force = -(omega * omega) * q \
            - problem.epsilon * (1.0 + 2.0 * math.cos(w_step * t)) * np.sin(q - w_mid * t)
        return np.array([p, force], dtype=u.dtype)
    return rhs


def dense_laplacian(lap):
    """The dense matrix of a CirculantLaplacian: -2 on the diagonal, 1 beside it, periodic."""
    mat = np.zeros((lap.n, lap.n))
    for i in range(lap.n):
        mat[i, i] = -2.0
        mat[i, (i + 1) % lap.n] = 1.0
        mat[i, (i - 1) % lap.n] = 1.0
    return mat / lap.dx ** 2
