import numpy as np
import pytest

from conftest import conjugate
from cxsplit.errors import InvalidSequence
from cxsplit.order_conditions import (CONDITIONS, LONGEST, condition_residuals, effective_order,
                                      kicks_of, order_poly_jacobian, order_polys, quadratic_form,
                                      residuals)
from cxsplit.schemes import builtin_scheme, expand


def test_empty_sequence_raises():
    with pytest.raises(InvalidSequence):
        residuals(())


def test_strang_known_residuals():
    res = residuals(expand(builtin_scheme("Strang_BAB")))
    # kicks at c = 0, 1: p_aba = -1/12, p_abaaa = 1/2 - 1/5
    assert abs(res.p_aba - (-1.0 / 12.0)) < 1e-15
    assert abs(res.p_abaaa - 0.3) < 1e-15


def test_s62_designed_zeros():
    res = residuals(expand(builtin_scheme("S62")))
    assert abs(res.p_aba) < 1e-15
    assert abs(res.p_abaaa) < 1e-15
    assert abs(res.p_abb) > 1e-3     # order stays two: p_abb not annihilated


def test_sm4_fourth_order_zeros():
    res = residuals(expand(builtin_scheme("SM4")))
    assert abs(res.p_aba) < 5e-16
    assert abs(res.p_abb) < 5e-16


def test_conjugation_equivariance():
    sm4 = builtin_scheme("SM4")
    res = residuals(expand(sm4))
    res_conj = residuals(expand(conjugate(sm4)))
    for name in ("p_aba", "p_abb", "p_abaaa"):
        assert getattr(res_conj, name) == pytest.approx(
            complex(getattr(res, name)).conjugate(), abs=1e-15)


def test_one_condition_per_word_with_one_or_two_b():
    # word length m: mu_{m-1}, then floor((m - 1)/2) delta_kl with k + l = m - 2, k > l
    for m in range(2, LONGEST + 1):
        conds = [cond for cond in CONDITIONS if cond.length == m]
        assert [cond.name for cond in conds[:1]] == [f"mu_{m - 1}"]
        assert [(cond.k, cond.l) for cond in conds[1:]] == [
            (k, m - 2 - k) for k in range(m - 2, -1, -1) if k > m - 2 - k]


@pytest.mark.parametrize("name,order", [("STRANG_BAB", (2, 2)), ("STRANG_ABA", (2, 2)),
                                        ("S62", (6, 2)), ("SM4", (4, 4)), ("SM64", (6, 4))])
def test_effective_order_of_the_builtins(name, order):
    assert effective_order(*kicks_of(expand(builtin_scheme(name))), 1e-12)[:2] == order


def test_kicks_of_extracts_nodes():
    seq = expand(builtin_scheme("S62"))
    b, c = kicks_of(seq)
    assert len(b) == len(c) == 4
    assert c[0] == 0.0
    assert abs(c[-1] - 1.0) < 1e-15


def _random_kicks(n):
    """20 random complex (b, c) pairs of length n."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        yield (rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n),
               rng.uniform(size=n) + 1j * rng.uniform(size=n))


DELTAS = [cond for cond in CONDITIONS if cond.l is not None]
MUS = [cond for cond in CONDITIONS if cond.l is None]


@pytest.mark.parametrize("n", range(2, 10))
def test_p_abb_is_the_double_sum(n):
    # every delta_kl, p_abb = delta_10 among them, is its double sum and b^T Q b / 2
    for b, c in _random_kicks(n):
        got = condition_residuals(b, c, DELTAS)
        for cond, residual in zip(DELTAS, got):
            k, l = cond.k, cond.l
            double_sum = (0.5 * sum(b[i] ** 2 * c[i] ** (k + l) for i in range(n))
                          + sum(b[i] * b[j] * c[j] ** k * c[i] ** l
                                for j in range(n) for i in range(j)) - 1.0 / cond.den)
            form = 0.5 * b @ quadratic_form(cond, c) @ b - 1.0 / cond.den
            for want in (double_sum, form):
                assert abs(residual - want) < 1e-14, cond.name
        assert order_polys(b, c).p_abb == got[0]     # delta_10 comes first


@pytest.mark.parametrize("n", range(2, 10))
def test_linear_polys_are_the_linear_rows(n):
    for b, c in _random_kicks(n):
        got = condition_residuals(b, c, MUS)
        want = [c ** cond.k @ b - 1.0 / cond.den for cond in MUS]
        scale = np.array([np.abs(c) ** cond.k @ np.abs(b) for cond in MUS])  # sum of |terms|
        scale[:4] = np.minimum(scale[:4], 1.0)    # mu_1 to mu_4 also within 1e-15 absolute
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def _loop_kahan(terms):
    """The compensated sum of Python complex numbers, one at a time."""
    s = comp = 0j
    for term in terms:
        y = term - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
    return s


@pytest.mark.parametrize("n", range(2, 10))
def test_p_abb_and_p_abaaa_keep_the_loop_bits(n):
    # the designer's kicks and Re(p_abaaa) depend on these bits
    for b, c in _random_kicks(n):
        before = np.concatenate(([0.0], np.cumsum(b[:-1])))
        got = order_polys(b, c)
        want_abb = _loop_kahan((b * c * (0.5 * b + before)).tolist()) - 1.0 / 3.0
        want_abaaa = _loop_kahan((b * c ** 4).tolist()) - 0.2
        assert np.asarray(got.p_abb).tobytes() == np.asarray(want_abb).tobytes()
        assert np.asarray(got.p_abaaa).tobytes() == np.asarray(want_abaaa).tobytes()


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for n in range(2, 10):
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = np.sort(rng.uniform(size=n)).astype(complex)
        jac = order_poly_jacobian(b, c, CONDITIONS)
        eps = 1e-7
        for k in range(n):
            bp, bm = b.copy(), b.copy()
            bp[k] += eps
            bm[k] -= eps
            fd = (condition_residuals(bp, c) - condition_residuals(bm, c)) / (2 * eps)
            assert np.max(np.abs(jac[:, k] - fd)) < 1e-6, (n, k)


@pytest.mark.parametrize("n", range(2, 10))
def test_stacked_jacobian_rows_match_one_design_at_a_time(n):
    rng = np.random.default_rng(n)
    b = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
    c = np.sort(rng.uniform(size=(40, n)), axis=-1).astype(complex)
    stacked = order_poly_jacobian(b, c, CONDITIONS)
    alone = np.array([order_poly_jacobian(bi, ci, CONDITIONS) for bi, ci in zip(b, c)])
    assert stacked.shape == (40, len(CONDITIONS), n)
    # each entry's sum of |terms|: the high powers' Q b cancel far below their row's largest
    scale = order_poly_jacobian(np.abs(b), np.abs(c), CONDITIONS).real
    assert np.all(np.abs(stacked - alone) <= 1e-15 * scale)
    # the rows of delta_10 and mu_k, k <= 4, also within 1e-15 of their row's largest
    low = [i for i, x in enumerate(CONDITIONS) if x.name == "delta_10" or (x.l is None and x.k <= 4)]
    row_max = np.abs(alone[:, low]).max(axis=-1, keepdims=True)
    assert np.all(np.abs(stacked - alone)[:, low] <= 1e-15 * row_max)


@pytest.mark.parametrize("n", range(2, 10))
def test_one_design_jacobian_keeps_its_bits(n):
    for b, c in _random_kicks(n):
        # the one-design formula, row by row: c^k for a mu_k, Q b for a delta_kl
        want = np.stack([c ** x.k if x.l is None else quadratic_form(x, c) @ b
                         for x in CONDITIONS])
        assert order_poly_jacobian(b, c, CONDITIONS).tobytes() == want.tobytes()
