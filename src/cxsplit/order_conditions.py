"""Consistency sums and perturbed-problem order-condition polynomials.

For a consistent symmetric composition with kicks b_i applied at nodes c_i
(cumulative sums of the flow coefficients, with a leading zero for BAB),
the residual polynomials are

    p_aba   = 1/2 sum_i b_i c_i (1 - c_i) - 1/12
    p_abb   = sum_i 1/2 b_i^2 c_i + sum_{i<j} b_i b_j c_j - 1/3
    p_abaaa = sum_i b_i c_i^4 - 1/5

whose simultaneous zeros characterise the fourth-order (and, for p_abaaa,
the dominant-error-free) members of the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSequence


@dataclass
class Residuals:
    consistency_a: complex
    consistency_b: complex
    p_aba: complex
    p_abb: complex
    p_abaaa: complex

    def conjugate(self):
        return Residuals(*(complex(getattr(self, f)).conjugate()
                           for f in ("consistency_a", "consistency_b",
                                     "p_aba", "p_abb", "p_abaaa")))


def kicks_of(seq):
    """Extract (b, c) arrays of the B-kicks from a stage sequence."""
    b = [st.coeff for st in seq if st.role == "B"]
    c = [st.c0 for st in seq if st.role == "B"]
    return np.asarray(b, dtype=complex), np.asarray(c, dtype=complex)


def _kahan_sum(terms):
    # compensated summation so the 1e-14-level zero checks are reproducible
    s = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for t in terms:
        y = t - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
    return s


def _before(x):
    """Exclusive prefix sums: entry j is sum_{i<j} x_i."""
    return np.concatenate(([0.0], np.cumsum(x)[:-1]))


def order_polys(b, c):
    """Evaluate (p_aba, p_abb, p_abaaa) for kick coefficients b at nodes c."""
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    p_aba = 0.5 * _kahan_sum(b * c * (1.0 - c)) - 1.0 / 12.0
    # sum_j b_j c_j (b_j / 2 + sum_{i<j} b_i): the double sum of p_abb in O(n)
    p_abb = _kahan_sum(b * c * (0.5 * b + _before(b))) - 1.0 / 3.0
    p_abaaa = _kahan_sum(b * c ** 4) - 0.2
    return p_aba, p_abb, p_abaaa


def residuals(seq):
    """Consistency and order-condition residuals of a stage sequence."""
    if not seq:
        raise InvalidSequence("empty stage sequence")
    a_sum = _kahan_sum(st.coeff for st in seq if st.role == "A")
    b, c = kicks_of(seq)
    p_aba, p_abb, p_abaaa = order_polys(b, c)
    return Residuals(a_sum - 1.0, _kahan_sum(b) - 1.0, p_aba, p_abb, p_abaaa)


def order_poly_jacobian(b, c):
    """Analytic d(p_aba, p_abb, p_abaaa)/db_i, one column per kick."""
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    jac = np.empty((3, len(b)), dtype=complex)
    jac[0] = 0.5 * c * (1.0 - c)
    # c_k (b_k + sum_{i<k} b_i) + sum_{j>k} b_j c_j
    jac[1] = c * (b + _before(b)) + _before((b * c)[::-1])[::-1]
    jac[2] = c ** 4
    return jac
