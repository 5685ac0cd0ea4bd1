import os
from pathlib import Path

import numpy as np
import pytest

from cxsplit.problems import make_problem, reference_solution
from cxsplit.schemes import Scheme, builtin_scheme, serialize_scheme

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
    scheme = Scheme("yoshida", "BAB", 3, (w1, w0), (0.5 * w1, 0.5 * (w1 + w0)),
                    4, True)
    return serialize_scheme(scheme)


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
