"""Property test of the generated order conditions against their defining double sums."""

import numpy as np
import pytest

from cxsplit.order_conditions import CONDITIONS, condition_residuals, order_polys

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

unit = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
kicks = st.tuples(st.integers(1, 4), st.integers(1, 8)).flatmap(
    lambda shape: st.tuples(hnp.arrays(complex, shape, elements=unit),
                            hnp.arrays(complex, shape, elements=unit)))


def brute_force(b, c, cond):
    """A condition's residual and its terms' summed magnitudes, by the double loop over i < j."""
    n, k, l = len(b), cond.k, cond.l
    if l is None:
        terms = [b[i] * c[i] ** k for i in range(n)]
    else:
        terms = [b[i] * b[j] * c[j] ** k * c[i] ** l for j in range(n) for i in range(j)]
        terms += [b[i] ** 2 * c[i] ** (k + l) / 2 for i in range(n)]
    return sum(terms) - 1.0 / cond.den, sum(map(abs, terms)) + 1.0 / cond.den


@hypothesis.settings(database=None, derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(kicks)
def test_generated_conditions_are_the_double_sums(bc):
    b, c = bc
    stacked = condition_residuals(b, c)
    views = order_polys(b, c)
    for row, (bi, ci) in enumerate(zip(b, c)):
        single = condition_residuals(bi, ci)
        assert single.tobytes() == stacked[:, row].tobytes()
        by_name = {}
        for cond, got in zip(CONDITIONS, single):
            want, scale = brute_force(bi.tolist(), ci.tolist(), cond)
            assert abs(got - want) <= 1e-14 * scale, cond.name
            by_name[cond.name] = want
        # the symmetric family's residuals are views of the generated conditions
        for got, want in zip(views, ((by_name["mu_1"] - by_name["mu_2"]) / 2,
                                     by_name["delta_10"], by_name["mu_4"])):
            assert abs(got[row] - want) <= 1e-14 * (1.0 + np.abs(bi).sum()) ** 2
        assert all(np.asarray(view[row]).tobytes() == np.asarray(alone).tobytes()
                   for view, alone in zip(views, order_polys(bi, ci)))
