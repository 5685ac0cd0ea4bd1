import numpy as np
import pytest

from cxsplit.designer import DesignProblem, solve_b
from cxsplit.errors import NoSolutionFound, ValidationError
from cxsplit.order_conditions import kicks_of, residuals
from cxsplit.schemes import builtin_scheme, expand, validate_scheme

SM4 = builtin_scheme("SM4")
SM64 = builtin_scheme("SM64")


def test_design_problem_fills_a2():
    problem = DesignProblem(4, (0.1,))
    assert problem.fixed_a == (0.1, 0.4)
    nodes = problem.nodes
    assert np.allclose(nodes, [0.0, 0.1, 0.5, 0.9, 1.0])


def test_design_problem_rejects_bad_a():
    with pytest.raises(ValidationError):
        DesignProblem(4, (0.1, 0.2))          # sum != 1/2
    with pytest.raises(ValidationError):
        DesignProblem(6, (0.3, 0.3, -0.1))    # outside (0, 1)
    with pytest.raises(ValidationError):
        DesignProblem(5, (0.25, 0.25))


def _mirrored_nodes(fixed_a):
    """Kick nodes from the half sums c_i and their mirror images 1 - c_i."""
    half = np.cumsum((0.0, *fixed_a))
    return np.concatenate((half, 1.0 - half[-2::-1]))


@pytest.mark.parametrize("stages,fixed_a,mirror_differs", [
    (4, (0.01594,), True), (6, (1 / 6, 1 / 6, 1 / 6), True),
    (4, (SM4.a[0],), False)], ids=["a1=0.01594", "SM64", "SM4"])
def test_design_nodes_are_the_nodes_the_scheme_runs(stages, fixed_a, mirror_differs):
    problem = DesignProblem(stages, fixed_a)
    b = (0.1 - 0.2j,) * (problem.k + 1)     # the nodes depend on a only
    nodes = kicks_of(expand(problem.scheme(b)))[1]
    assert problem.nodes.dtype == nodes.dtype
    assert np.array_equal(problem.nodes, nodes)
    # where mirroring rounds 1 ulp away, the design still sees these nodes
    assert np.array_equal(_mirrored_nodes(problem.fixed_a), nodes.real) != mirror_differs


@pytest.mark.parametrize("stages,fixed_a", [(4, (SM4.a[0],)), (6, (1 / 6, 1 / 6, 1 / 6))],
                         ids=["SM4", "SM64"])
def test_designed_scheme_checks_at_its_design_nodes(stages, fixed_a):
    problem = DesignProblem(stages, fixed_a)
    sol = solve_b(problem, seed=0)
    res = residuals(expand(problem.scheme(sol.b)))
    assert abs(res.p_aba) < 1e-15
    assert abs(res.p_abb) < 1e-15


def test_full_b_is_consistent_palindrome():
    problem = DesignProblem(6, (1 / 6, 1 / 6, 1 / 6))
    bu = np.array([0.1 + 0.2j, 0.3 - 0.1j, 0.05 + 0.0j])
    b = problem.full_b(bu)
    assert len(b) == 7
    assert np.allclose(b, b[::-1])
    assert abs(b.sum() - 1.0) < 1e-15


def test_solve_b_reproduces_sm4():
    sol = solve_b(DesignProblem(4, (SM4.a[0],)), seed=1)
    assert np.max(np.abs(np.asarray(sol.b) - np.asarray(SM4.b))) < 1e-10
    assert sol.residual_norm < 1e-13
    assert sol.b[0].imag <= 0.0          # canonical conjugate branch


def test_solve_b_reproduces_sm64():
    sol = solve_b(DesignProblem(6, (1 / 6, 1 / 6, 1 / 6)), seed=1)
    assert np.max(np.abs(np.asarray(sol.b) - np.asarray(SM64.b))) < 1e-10
    # the 6-stage family also annihilates the dominant-error condition
    assert abs(sol.re_p_abaaa) < 1e-8


def test_solution_scheme_is_valid_fourth_order():
    problem = DesignProblem(4, (0.2,))
    sol = solve_b(problem, seed=0)
    scheme = problem.scheme(sol.b, name="designed-test")
    validate_scheme(scheme)
    res = residuals(expand(scheme))
    assert abs(res.p_aba) < 1e-12
    assert abs(res.p_abb) < 1e-12


def test_solve_b_collects_all_solutions():
    sol = solve_b(DesignProblem(4, (SM4.a[0],)), starts=96, seed=2)
    assert len(sol.all_solutions) >= 2    # conjugate pair at least


def test_solve_b_no_starts_raises():
    with pytest.raises(NoSolutionFound):
        solve_b(DesignProblem(4, (0.2,)), starts=0)
