import numpy as np
import pytest

from conftest import SM84_B
from cxsplit import designer
from cxsplit.designer import (DEGENERATE, MAX_GRID_POINTS, SCAN_MARGIN, SOLVED, UNSTABLE,
                              DesignProblem, DesignSolution, _outcome, _scan_points, kick_nodes,
                              scan_a1, solve_b, solve_stack)
from cxsplit.errors import (CxsplitError, DesignScanUnreliable, NoSolutionFound,
                            NoStableSolution, ValidationError)
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
    with pytest.raises(ValidationError):
        DesignProblem(10, (0.1,) * 5)         # generated, but solved to about 1e-11 only


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


A1_OPT = 0.13505259273331706       # the 50-digit stationary point of Re(p_abaaa)


def test_scan_optimum_is_pinned():
    for grid_points, pinned in ((50, 0.1350525927333168), (200, 0.13505259273331702)):
        a1_opt, sol = scan_a1(grid_points=grid_points)
        assert abs(a1_opt - pinned) < 1e-12
        assert abs(a1_opt - A1_OPT) < 1e-15
        assert sol.residual_norm < 1e-13
        assert sol == solve_b(DesignProblem(4, (a1_opt,)))


@pytest.mark.parametrize("grid_points", range(2, 41))
def test_scan_lands_on_the_optimum_from_any_grid(grid_points):
    a1_opt, _ = scan_a1(grid_points=grid_points)
    assert abs(a1_opt - A1_OPT) < 1e-15


@pytest.mark.parametrize("grid_points", [1, 0])
def test_scan_of_fewer_than_two_points_is_a_validation_error(grid_points):
    # one point cannot bracket the root of the slope
    with pytest.raises(ValidationError, match=f"at least 2 grid points, got {grid_points}$"):
        scan_a1(grid_points=grid_points)


def test_scan_of_more_points_than_it_can_hold_fails_before_any_design(monkeypatch):
    def built(*args):
        raise AssertionError("a design was built")

    for name in ("DesignProblem", "kick_nodes", "solve_stack"):
        monkeypatch.setattr(designer, name, built)
    with pytest.raises(ValidationError,
                       match="^a scan holds at most 100000 grid points, got 100001$"):
        scan_a1(grid_points=MAX_GRID_POINTS + 1)


@pytest.mark.parametrize("a1", [0.13, 0.2, 0.4])
def test_scan_slope_matches_a_central_difference(a1):
    h = 1e-6
    _, _, (slope,), solved = _scan_points([a1])
    assert solved.status[0] == SOLVED
    fd = (solve_b(DesignProblem(4, (a1 + h,))).re_p_abaaa
          - solve_b(DesignProblem(4, (a1 - h,))).re_p_abaaa) / (2.0 * h)
    assert abs(slope - fd) < 1e-6 * abs(fd)


def test_scan_slope_is_nan_where_no_kick_is_usable():
    values, failed, slopes, solved = _scan_points([0.05, 0.2, 5e-324])
    assert list(solved.status) == [UNSTABLE, SOLVED, DEGENERATE]
    assert list(failed) == [False, False, True] and np.isinf(values[[0, 2]]).all()
    assert np.isnan(slopes[[0, 2]]).all() and np.isfinite(slopes[1])


def _every_row(monkeypatch, status):
    """Make every row of each solved stack report status."""
    solve_stack = designer.solve_stack
    monkeypatch.setattr(designer, "solve_stack", lambda nodes: solve_stack(nodes)._replace(
        status=np.full(len(nodes), status)))


def test_scan_counts_failed_grid_points(monkeypatch):
    _every_row(monkeypatch, DEGENERATE)
    with pytest.raises(DesignScanUnreliable, match="^50/50 grid points failed to solve$"):
        scan_a1(grid_points=50)


def test_scan_with_no_admissible_design_is_unreliable(monkeypatch):
    # no failures, so the failed share passes; no grid point has a usable kick
    _every_row(monkeypatch, UNSTABLE)
    with pytest.raises(DesignScanUnreliable,
                       match="^no admissible solution anywhere on the grid$"):
        scan_a1(grid_points=50)


@pytest.mark.parametrize("stages,fixed_a,start", [
    (4, (SM4.a[0],), SM4.b), (6, (1 / 6, 1 / 6, 1 / 6), SM64.b), (8, (1 / 8,) * 4, SM84_B)],
    ids=["SM4", "SM64", "SM84"])
def test_solve_b_matches_a_40_digit_solve(stages, fixed_a, start):
    mp = pytest.importorskip("mpmath").mp
    problem = DesignProblem(stages, fixed_a)
    k = problem.k
    c = [mp.mpf(float(ci)) for ci in problem.nodes.real]     # the same float nodes

    def conditions(*bu):
        # the views p_aba and p_abb, and mu_4 = p_abaaa, ..., mu_{2k-2}
        b = [*bu, 1 - 2 * sum(bu), *bu[::-1]]
        p_aba = sum(bi * ci * (1 - ci) for bi, ci in zip(b, c)) / 2 - mp.mpf(1) / 12
        p_abb = sum(bj * cj * (bj / 2 + sum(b[:j])) for j, (bj, cj) in enumerate(zip(b, c)))
        mus = [sum(bi * ci ** (2 * j) for bi, ci in zip(b, c)) - mp.mpf(1) / (2 * j + 1)
               for j in range(2, k)]
        return [p_aba, p_abb - mp.mpf(1) / 3, *mus]

    with mp.workdps(40):
        root = mp.findroot(conditions, [mp.mpc(bi) for bi in start[:k]])
        bu = [root[i] for i in range(k)]
        exact = [complex(bi) for bi in (*bu, 1 - 2 * sum(bu))]
    assert np.max(np.abs(np.asarray(solve_b(problem).b) - exact)) < 3e-15


def _alone(problem):
    """The outcome of solve_b on one design: its solution or the error it raises."""
    try:
        return solve_b(problem)
    except CxsplitError as exc:
        return exc


def _assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, DesignSolution):
        assert np.asarray(got.b).tobytes() == np.asarray(want.b).tobytes()
        assert (got.residual_norm, got.re_p_abaaa) == (want.residual_norm, want.re_p_abaaa)
        roots = (got.all_solutions, want.all_solutions)
    else:
        assert str(got) == str(want)
        roots = (getattr(got, "solutions", []), getattr(want, "solutions", []))
    assert [np.asarray(r).tobytes() for r in roots[0]] == [np.asarray(r).tobytes() for r in roots[1]]


@pytest.mark.parametrize("grid_points", [50, 200])
def test_batched_grid_scores_match_the_per_design_loop(grid_points):
    grid = np.linspace(SCAN_MARGIN, 0.5 - SCAN_MARGIN, grid_points)
    values, failed, slopes, _ = _scan_points(grid)
    # the reference: one design at a time, Re(p_abaaa) where a kick is usable, else inf
    alone = [_alone(DesignProblem(4, (a1,))) for a1 in grid]
    want = np.array([o.re_p_abaaa if isinstance(o, DesignSolution) else np.inf for o in alone])
    assert list(failed) == [isinstance(o, NoSolutionFound) for o in alone]
    assert np.argmin(values) == np.argmin(want)
    assert np.isfinite(want).sum() >= grid_points // 2
    assert values.tobytes() == want.tobytes()         # every value bit for bit, inf included
    # a stacked order_poly_jacobian lays out its Q b products otherwise than one design's,
    # so a slope may move by a rounding unit of its O(1) terms, the scan's stop rule
    want = np.concatenate([_scan_points([a1])[2] for a1 in grid])
    assert (np.isnan(slopes) == np.isnan(want)).all()
    assert np.nanmax(np.abs(slopes - want)) <= np.finfo(float).eps


def _stack_outcomes(flows):
    """Each row's outcome from one solve_stack call on the kick nodes of flows (B, k)."""
    solved = solve_stack(kick_nodes(np.asarray(flows)))      # raises nothing for a failing row
    return [_outcome(solved, i) for i in range(len(flows))]


def test_a_mixed_batch_gives_each_design_its_own_outcome():
    designs = [(4, (SM4.a[0],)), (4, (5e-324,)), (4, (0.05,)),
               (6, (0.25002717906008337, 2.9600062037488e-13, 0.24997282093962064)),
               (6, (1 / 6, 1 / 6, 1 / 6)), (4, (0.3,))]
    problems = [DesignProblem(*design) for design in designs]
    outcomes = [None] * len(problems)
    for stages in (4, 6):           # one stack per stage count
        rows = [i for i, problem in enumerate(problems) if problem.stages == stages]
        for i, outcome in zip(rows, _stack_outcomes([problems[i].fixed_a for i in rows])):
            outcomes[i] = outcome
    assert [type(o) for o in outcomes] == [DesignSolution, NoSolutionFound, NoStableSolution,
                                           NoSolutionFound, DesignSolution, DesignSolution]
    assert "degenerate" in str(outcomes[1]) and "residual" in str(outcomes[3])
    for problem, outcome in zip(problems, outcomes):
        _assert_same_outcome(outcome, _alone(problem))


@pytest.mark.parametrize("stages", [4, 6, 8])
def test_random_batch_matches_solve_b(stages):
    weights = np.random.default_rng(20).uniform(0.02, 1.0, (300, stages // 2))
    flows = weights / (2.0 * weights.sum(axis=1, keepdims=True))
    outcomes = _stack_outcomes(flows)
    assert sum(isinstance(o, DesignSolution) for o in outcomes) >= 100
    for a, outcome in zip(flows, outcomes):
        _assert_same_outcome(outcome, _alone(DesignProblem(stages, tuple(a))))
