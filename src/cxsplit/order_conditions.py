"""Perturbed-problem order-condition polynomials, defined once.

For a consistent symmetric composition with kicks b_i applied at nodes c_i
(cumulative sums of the flow coefficients, with a leading zero for BAB),
the residual polynomials are

    p_aba   = 1/2 sum_i b_i c_i (1 - c_i) - 1/12     (linear_terms row 0)
    p_abb   = 1/2 b^T Q b - 1/3, Q_ij = c_max(i, j)  (abb_form)
    p_abaaa = sum_i b_i c_i^4 - 1/5                  (linear_terms row 1)

whose simultaneous zeros characterise the fourth-order (and, for p_abaaa,
the dominant-error-free) members of the family.  The checker, its Jacobian
and the designer all read these rows and targets from here.  Consistency
(sum a_i = sum b_i = 1) is checked by ``schemes.validate_scheme`` alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidSequence

LINEAR_TARGETS = (1.0 / 12.0, 0.2)   # p_aba, p_abaaa
ABB_TARGET = 1.0 / 3.0
_TARGETS = np.array((*LINEAR_TARGETS, ABB_TARGET))


class Residuals(NamedTuple):
    p_aba: complex
    p_abb: complex
    p_abaaa: complex


def linear_terms(b, c):
    """Per-kick terms of the linear conditions, one row each: (..., (p_aba, p_abaaa), n)."""
    return np.concatenate(((0.5 * b * c * (1.0 - c))[..., None, :], (b * c ** 4)[..., None, :]),
                          axis=-2)


def abb_form(c):
    """Q with p_abb = b^T Q b / 2 - ABB_TARGET: Q_ij = c_max(i, j), (..., n, n)."""
    idx = np.arange(c.shape[-1])
    return c[..., np.maximum.outer(idx, idx)]


def kicks_of(seq):
    """Extract (b, c) arrays of the B-kicks from a stage sequence."""
    b = [st.coeff for st in seq if st.role == "B"]
    c = [st.c0 for st in seq if st.role == "B"]
    return np.asarray(b, dtype=complex), np.asarray(c, dtype=complex)


def _kahan_sum(terms):
    # compensated sums over the last axis keep the 1e-14 zero checks reproducible
    sums = []
    for row in terms.reshape(-1, terms.shape[-1]).tolist():
        s = comp = 0j
        for term in row:
            y = term - comp
            tmp = s + y
            comp = (tmp - s) - y
            s = tmp
        sums.append(s)
    return np.array(sums).reshape(terms.shape[:-1])


def order_polys(b, c):
    """Residuals of kicks b at nodes c, both (n,) or stacked designs (B, n)."""
    b, c = np.asarray(b, dtype=complex), np.asarray(c, dtype=complex)
    # the terms b_j c_j (b_j / 2 + sum_{i<j} b_i) sum b^T Q b / 2 in O(n)
    before = np.zeros(b.shape, complex)
    b[..., :-1].cumsum(axis=-1, out=before[..., 1:])
    sums = _kahan_sum(np.concatenate(
        (linear_terms(b, c), (b * c * (0.5 * b + before))[..., None, :]), axis=-2))
    p_aba, p_abaaa, p_abb = (sums - _TARGETS).T
    return Residuals(p_aba, p_abb, p_abaaa)


def residuals(seq):
    """Order-condition residuals of a stage sequence."""
    if not seq:
        raise InvalidSequence("empty stage sequence")
    return order_polys(*kicks_of(seq))


def order_poly_jacobian(b, c):
    """Analytic d(p_aba, p_abb, p_abaaa)/db_i, one column per kick: (..., 3, n)."""
    b, c = np.asarray(b, dtype=complex), np.asarray(c, dtype=complex)
    d_aba, d_abaaa = np.moveaxis(linear_terms(1.0, c), -2, 0)
    return np.stack((d_aba, (abb_form(c) @ b[..., None])[..., 0], d_abaaa), axis=-2)
