"""Order conditions of splitting schemes for u' = A(t)u + eps B(t, u), generated.

A composition with kicks b_i at nodes c_i (the flow coefficients summed
before each kick), BAB or ABA, symmetric or not, has global error
O(eps h^s + eps^2 h^n) for the effective order (s, n) (Blanes, Casas, Chartier
& Murua, Math. Comp. 2013) that one condition per word with one or two B's sets:

    mu_k     = sum_i b_i c_i^k - 1/(k + 1)                 word length k + 1
    delta_kl = sum_{i<j} b_i b_j c_j^k c_i^l + sum_i b_i^2 c_i^(k+l) / 2
               - 1/((l + 1)(k + l + 2)),  k > l            word length k + l + 2

s (n) is one less than the shortest word length of an unmet mu_k (delta_kl);
eps^3 terms and consistency (``schemes.validate_scheme``) are not covered.
The symmetric BAB family's views: p_aba = (mu_1 - mu_2)/2, p_abb = delta_10, p_abaaa = mu_4.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import InvalidSequence

LONGEST = 10                 # the longest word generated: the highest order checked
Condition = namedtuple("Condition", "name length k l den")   # target 1/den; l None for mu_k
Residuals = namedtuple("Residuals", "p_aba p_abb p_abaaa")   # the symmetric family's views
# every condition up to word length LONGEST, by length: mu, then delta by falling k
CONDITIONS = tuple(cond for m in range(2, LONGEST + 1) for cond in (
    Condition(f"mu_{m - 1}", m, m - 1, None, m),
    *(Condition(f"delta_{k}{m - 2 - k}", m, k, m - 2 - k, (m - 1 - k) * m)
      for k in range(m - 2, (m - 2) // 2, -1))))
_VIEWED = [cond for cond in CONDITIONS if cond.name in ("mu_1", "mu_2", "delta_10", "mu_4")]


def condition_residuals(b, c, conds=CONDITIONS):
    """Residuals of kicks b at nodes c, both (n,) or stacked (B, n): (len(conds), ...)."""
    b, c = np.asarray(b, dtype=complex), np.asarray(c, dtype=complex)
    ls = {cond.l for cond in conds} - {None}
    bc = {k: b * c ** k if k else b for k in {cond.k for cond in conds} | ls}
    before = {l: np.zeros(b.shape, complex) for l in ls}   # sum_{i<j} b_i c_i^l, in O(n)
    for l, out in before.items():
        bc[l][..., :-1].cumsum(axis=-1, out=out[..., 1:])
    terms = np.array([bc[k] if l is None else bc[k] * (0.5 * bc[l] + before[l])
                      for _, _, k, l, _ in conds])
    s = comp = np.zeros(terms.shape[:-1], complex)   # compensated: reproducible zero checks
    for term in np.moveaxis(terms, -1, 0):
        y = term - comp
        tmp = s + y
        s, comp = tmp, (tmp - s) - y
    return (s.T - np.array([1.0 / x.den for x in conds])).T


def effective_order(b, c, tol):
    """(s, n) of kicks b at nodes c, LONGEST where all are met, and the first unmet name or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        unmet = [x for x, r in zip(CONDITIONS, condition_residuals(b, c)) if not abs(r) <= tol]
    s, n = (next((x.length - 1 for x in unmet if (x.l is None) == is_mu), LONGEST)
            for is_mu in (True, False))
    return s, n, unmet[0].name if unmet else None


def kicks_of(seq):
    """Extract (b, c) arrays of the B-kicks from a stage sequence."""
    b = [st.coeff for st in seq if st.role == "B"]
    c = [st.c0 for st in seq if st.role == "B"]
    return np.asarray(b, dtype=complex), np.asarray(c, dtype=complex)


def order_polys(b, c):
    """The views of kicks b at nodes c, both (n,) or stacked designs (B, n)."""
    mu_1, mu_2, delta_10, mu_4 = condition_residuals(b, c, _VIEWED)
    return Residuals((mu_1 - mu_2) / 2, delta_10, mu_4)


def residuals(seq):
    """The views of a stage sequence."""
    if not seq:
        raise InvalidSequence("empty stage sequence")
    return order_polys(*kicks_of(seq))


def quadratic_form(cond, c):
    """Q with delta_kl = b^T Q b / 2 - 1/den: Q_ij = c_max(i,j)^k c_min(i,j)^l, (..., n, n)."""
    idx = np.arange(c.shape[-1])
    hi, lo = np.maximum.outer(idx, idx), np.minimum.outer(idx, idx)
    return c[..., hi] ** cond.k * c[..., lo] ** cond.l


def order_poly_jacobian(b, c, conds):
    """d(conds)/db_i, one column per kick: c^k for a mu_k, Q b for a delta_kl: (..., len, n)."""
    b, c = np.asarray(b, dtype=complex), np.asarray(c, dtype=complex)
    return np.stack([c ** x.k if x.l is None else (quadratic_form(x, c) @ b[..., None])[..., 0]
                     for x in conds], axis=-2)
