"""Property test of the kick designer over random admissible flow coefficients."""

import tempfile

import numpy as np
import pytest

from cxsplit.designer import RESIDUAL_TOL, DesignProblem, solve_b
from cxsplit.errors import CxsplitError
from cxsplit.order_conditions import order_polys

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
# Even without an example database, hypothesis caches the constants it finds
# in local modules, at collection time; keep that cache out of the checkout.
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
hypothesis.configuration.set_hypothesis_home_dir(_storage.name)

weight = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
designs = st.one_of(
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True).map(
        lambda a1: (4, (a1,))),
    st.tuples(weight, weight, weight).map(
        lambda w: (6, tuple(np.divide(w, 2.0 * sum(w))))),
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
        assert np.abs(order_polys(b, problem.nodes)[:k]).max() < tol
    if any(np.iscomplex(reduced).any() for reduced in roots):
        assert len(roots) == 2
        assert np.array_equal(np.conjugate(roots[0]), roots[1])
