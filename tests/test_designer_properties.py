"""Property test of the kick designer over random admissible flow coefficients."""

import numpy as np
import pytest

from cxsplit.designer import DESIGN_CONDITIONS, RESIDUAL_TOL, DesignProblem, kick_nodes, solve_b
from cxsplit.errors import CxsplitError
from cxsplit.order_conditions import condition_residuals, kicks_of
from cxsplit.schemes import expand

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

weight = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
designs = st.one_of(
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True).map(
        lambda a1: (4, (a1,))),
    *(st.tuples(*[weight] * k).map(lambda w: (2 * len(w), tuple(np.divide(w, 2.0 * sum(w)))))
      for k in (3, 4)),
)


@hypothesis.settings(database=None, derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(designs)
def test_every_design_is_solved_or_a_typed_error(design):
    stages, a = design
    k = stages // 2
    try:
        problem = DesignProblem(stages, a)
        sol = solve_b(problem)
    except CxsplitError as exc:
        roots = getattr(exc, "solutions", [])
    else:
        assert sol.residual_norm < RESIDUAL_TOL
        roots = sol.all_solutions
    for reduced in roots:
        b = np.concatenate((reduced, reduced[k - 1::-1]))
        # rounding in p_abb grows with |b|^2
        tol = RESIDUAL_TOL * max(1.0, np.abs(b).max() ** 2)
        assert np.abs(condition_residuals(b, problem.nodes, DESIGN_CONDITIONS[stages])).max() < tol
    if any(np.iscomplex(reduced).any() for reduced in roots):
        assert len(roots) == 2
        assert np.array_equal(np.conjugate(roots[0]), roots[1])


# stacks of one stage count: a1 alone for 4 stages, else weights >= 0.01, so every design is valid
stacks = st.one_of(
    st.lists(st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True).map(
        lambda a1: (a1,)), min_size=1, max_size=8),
    *(st.lists(st.tuples(*[st.floats(min_value=0.01, max_value=1.0)] * k).map(
        lambda w: tuple(np.divide(w, 2.0 * sum(w)))), min_size=1, max_size=8) for k in (3, 4)),
)


# where mirroring rounds 1 ulp away from expand's sums (test_designer's _mirrored_nodes)
@hypothesis.example([(0.01594,), (0.2,)])
@hypothesis.example([(1 / 6, 1 / 6, 1 / 6)])
@hypothesis.settings(database=None, derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(stacks)
def test_stacked_kick_nodes_are_the_nodes_expand_makes(flows):
    problems = [DesignProblem(4 if len(a) == 1 else 2 * len(a), a) for a in flows]
    nodes = kick_nodes(np.array([problem.fixed_a for problem in problems]))
    for problem, row in zip(problems, nodes):
        want = kicks_of(expand(problem.scheme((0.1 - 0.2j,) * (problem.k + 1))))[1]
        assert row.dtype == want.dtype
        assert row.tobytes() == want.tobytes()
