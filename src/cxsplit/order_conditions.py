"""Perturbed-problem order-condition polynomials.

For a consistent symmetric composition with kicks b_i applied at nodes c_i
(cumulative sums of the flow coefficients, with a leading zero for BAB),
the residual polynomials are

    p_aba   = 1/2 sum_i b_i c_i (1 - c_i) - 1/12
    p_abb   = sum_i 1/2 b_i^2 c_i + sum_{i<j} b_i b_j c_j - 1/3
    p_abaaa = sum_i b_i c_i^4 - 1/5

whose simultaneous zeros characterise the fourth-order (and, for p_abaaa,
the dominant-error-free) members of the family.  Consistency (sum a_i =
sum b_i = 1) is checked by ``schemes.validate_scheme`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSequence


@dataclass
class Residuals:
    p_aba: complex
    p_abb: complex
    p_abaaa: complex


def kicks_of(seq):
    """Extract (b, c) arrays of the B-kicks from a stage sequence."""
    b = [st.coeff for st in seq if st.role == "B"]
    c = [st.c0 for st in seq if st.role == "B"]
    return np.asarray(b, dtype=complex), np.asarray(c, dtype=complex)


def _kahan_sum(terms):
    # compensated sums along the last axis keep the 1e-14 zero checks reproducible
    terms = np.asarray(terms, dtype=complex)
    s = np.zeros(terms.shape[:-1], dtype=complex)
    comp = np.zeros_like(s)
    for i in range(terms.shape[-1]):
        y = terms[..., i] - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
    return s[()]


def _before(x):
    """Exclusive prefix sums along the last axis: entry j is sum_{i<j} x_i."""
    out = np.zeros_like(x)
    np.cumsum(x[..., :-1], axis=-1, out=out[..., 1:])
    return out


def order_polys(b, c):
    """Evaluate (p_aba, p_abb, p_abaaa) for kicks b (..., n) at nodes c (n,)."""
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    bc = b * c
    # the p_abb terms b_j c_j (b_j / 2 + sum_{i<j} b_i) make its double sum O(n)
    sums = _kahan_sum(np.stack((bc * (1.0 - c), bc * (0.5 * b + _before(b)), b * c ** 4),
                               axis=-2))
    return (0.5 * sums[..., 0] - 1.0 / 12.0, sums[..., 1] - 1.0 / 3.0,
            sums[..., 2] - 0.2)


def residuals(seq):
    """Order-condition residuals of a stage sequence."""
    if not seq:
        raise InvalidSequence("empty stage sequence")
    return Residuals(*order_polys(*kicks_of(seq)))


def order_poly_jacobian(b, c):
    """Analytic d(p_aba, p_abb, p_abaaa)/db_i, one column per kick: (..., 3, n)."""
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    jac = np.empty(b.shape[:-1] + (3, b.shape[-1]), dtype=complex)
    jac[..., 0, :] = 0.5 * c * (1.0 - c)
    # c_k (b_k + sum_{i<k} b_i) + sum_{j>k} b_j c_j
    jac[..., 1, :] = c * (b + _before(b)) + _before((b * c)[..., ::-1])[..., ::-1]
    jac[..., 2, :] = c ** 4
    return jac
