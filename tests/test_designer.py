import numpy as np
import pytest

from cxsplit.designer import DesignProblem, scan_a1, solve_b
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
    sol = solve_b(DesignProblem(4, (SM4.a[0],)))
    assert len(sol.all_solutions) == 2    # the conjugate pair, nothing else
    first, second = sol.all_solutions
    assert np.array_equal(np.conjugate(first), second)


@pytest.mark.parametrize("stages,fixed_a,message", [
    (4, (5e-324,), "degenerate linear order conditions"),
    (6, (0.25002717906008337, 2.9600062037488e-13, 0.24997282093962064), "solution residual")],
    ids=["coalesced-nodes", "ill-conditioned"])
def test_solve_b_without_an_accurate_solution_raises(stages, fixed_a, message):
    with pytest.raises(NoSolutionFound, match=message):
        solve_b(DesignProblem(stages, fixed_a))


def test_scan_optimum_is_pinned():
    a1_opt, sol = scan_a1(grid_points=50)
    assert abs(a1_opt - 0.13505259292351063) < 1e-12
    # the 50-digit optimum; the offset is the truncation of the last parabola fit
    assert abs(a1_opt - 0.13505259273331706) < 2.5e-10
    assert sol.residual_norm < 1e-13


@pytest.mark.parametrize("scheme,fixed_a", [(SM4, (SM4.a[0],)), (SM64, (1 / 6, 1 / 6, 1 / 6))],
                         ids=["SM4", "SM64"])
def test_solve_b_matches_a_40_digit_solve(scheme, fixed_a):
    mp = pytest.importorskip("mpmath").mp
    problem = DesignProblem(scheme.stages, fixed_a)
    k = problem.k
    c = [mp.mpf(float(ci)) for ci in problem.nodes.real]     # the same float nodes

    def conditions(*bu):
        b = [*bu, 1 - 2 * sum(bu), *bu[::-1]]
        p_aba = sum(bi * ci * (1 - ci) for bi, ci in zip(b, c)) / 2 - mp.mpf(1) / 12
        p_abb = sum(bj * cj * (bj / 2 + sum(b[:j])) for j, (bj, cj) in enumerate(zip(b, c)))
        p_abaaa = sum(bi * ci ** 4 for bi, ci in zip(b, c)) - mp.mpf(1) / 5
        return [p_aba, p_abb - mp.mpf(1) / 3, p_abaaa][:k]

    with mp.workdps(40):
        root = mp.findroot(conditions, [mp.mpc(bi) for bi in scheme.b[:k]])
        bu = [root[i] for i in range(k)]
        exact = [complex(bi) for bi in (*bu, 1 - 2 * sum(bu))]
    assert np.max(np.abs(np.asarray(solve_b(problem).b) - exact)) < 3e-15
