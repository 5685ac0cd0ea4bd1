"""Re-derivation of complex-kick BAB schemes.

Fixing real, palindromic flow coefficients a_i leaves the kick coefficients
b_i free to solve the order-condition polynomials.  The resulting small
polynomial systems (2 or 3 complex unknowns after symmetry reduction and
consistency elimination) are solved by multi-start Newton iteration with
the analytic Jacobian; the free parameter a_1 of the 4-stage family is then
tuned to minimise |Re(p_abaaa)|, the real part being what survives the
post-step projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DesignScanUnreliable, NoSolutionFound, NoStableSolution,
                     ValidationError)
from .order_conditions import kicks_of, order_poly_jacobian, order_polys
from .schemes import Scheme, expand

NEWTON_TOL = 1e-14
NEWTON_MAXITER = 50
DEDUP_DIST = 1e-8
SOLVE_STARTS = 64            # Newton starts of one solve_b
SCAN_STARTS = 24             # Newton starts per a1 of the scan
SCAN_MARGIN = 1e-3           # the scan grid spans [margin, 1/2 - margin]
SCAN_REFINE_TOL = 1e-10      # golden-section bracket width that ends the scan


@dataclass
class DesignProblem:
    stages: int                  # 4 or 6
    fixed_a: tuple               # reduced real a values: (a1,) or (a1, a2, a3)
    # unknown kicks b_1..b_k and conditions solved: p_aba, p_abb (+ p_abaaa)
    k: int = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.stages == 4 and len(self.fixed_a) == 1:
            self.fixed_a = (self.fixed_a[0], 0.5 - self.fixed_a[0])
        self.k = self.stages // 2
        if (self.stages not in (4, 6) or len(self.fixed_a) != self.k
                or abs(sum(self.fixed_a) - 0.5) > 1e-13
                or not all(0.0 < ai < 1.0 for ai in self.fixed_a)):
            raise ValidationError(
                "a 4- or 6-stage design needs stages/2 flow coefficients in "
                "(0, 1) with sum 1/2, or a1 alone for 4 stages; got "
                f"stages={self.stages}, a={self.fixed_a}")
        # the kick nodes of the composition the stepper runs, rounding included
        self.nodes = kicks_of(expand(self.scheme((0.0,) * (self.k + 1))))[1]

    def scheme(self, b, name="designed"):
        """The BAB scheme with these flows and symmetry-reduced kicks b."""
        return Scheme(name, "BAB", self.stages, tuple(self.fixed_a), tuple(b), 4, True)

    def full_b(self, bu):
        """Expand unknowns (b_1..b_k) into the palindromic kick vector."""
        bu = np.asarray(bu, dtype=complex)
        center = 1.0 - 2.0 * bu.sum()
        return np.concatenate((bu, [center], bu[::-1]))


@dataclass
class DesignSolution:
    b: tuple                     # symmetry-reduced kicks incl. the centre value
    residual_norm: float
    re_p_abaaa: float
    all_solutions: list = field(default_factory=list)


def _system(problem, bu):
    b = problem.full_b(bu)
    k = problem.k
    polys = order_polys(b, problem.nodes)
    full_jac = order_poly_jacobian(b, problem.nodes)[:k]
    # unknown j sits at positions j and 2k - j; the centre kick k carries
    # -2 of every unknown through consistency elimination
    jac = full_jac[:, :k] + full_jac[:, :k:-1] - 2.0 * full_jac[:, k:k + 1]
    return np.array(polys[:k], dtype=complex), jac, b, polys


def _newton(problem, b0):
    bu = np.asarray(b0, dtype=complex)
    res, jac, _, _ = _system(problem, bu)
    rnorm = np.abs(res).max()
    for _ in range(NEWTON_MAXITER):
        if rnorm < NEWTON_TOL:
            return bu, rnorm
        try:
            delta = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            return None, rnorm
        scale = 1.0
        for _ in range(20):
            trial = bu - scale * delta
            tres, tjac, _, _ = _system(problem, trial)
            tnorm = np.abs(tres).max()
            if tnorm < rnorm or rnorm < NEWTON_TOL:
                break
            scale *= 0.5
        else:
            return None, rnorm
        bu, res, jac, rnorm = trial, tres, tjac, tnorm
    return (bu, rnorm) if rnorm < NEWTON_TOL else (None, rnorm)


def solve_b(problem, starts=SOLVE_STARTS, seed=0):
    """Solve the order conditions for the kicks of a fixed-a BAB design."""
    rng = np.random.default_rng(seed)
    k = problem.k
    found = []
    for _ in range(starts):
        radius = np.sqrt(rng.uniform(size=k))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=k)
        b0 = radius * np.exp(1j * angle)
        bu, rnorm = _newton(problem, b0)
        if bu is None:
            continue
        if all(np.abs(bu - prev).max() > DEDUP_DIST for prev in found):
            found.append(bu)
    if not found:
        raise NoSolutionFound(
            f"no converged solution in {starts} Newton starts (stages={problem.stages})")
    found.sort(key=lambda z: (z[0].real, z[0].imag))
    all_reduced = [tuple(problem.full_b(bu)[:k + 1]) for bu in found]
    accepted = [bu for bu in found if problem.full_b(bu).real.min() > 0.0]
    if not accepted:
        raise NoStableSolution("all solutions have some Re(b_i) <= 0", all_reduced)
    # canonical branch: Im(b1) <= 0 picks one of the conjugate pair deterministically
    best = min(accepted, key=lambda z: z[0].imag)
    if best[0].imag > 0.0:
        best = np.conjugate(best)
    res, _, b_full, polys = _system(problem, best)
    return DesignSolution(
        b=tuple(b_full[:k + 1]),
        residual_norm=float(np.abs(res).max()),
        re_p_abaaa=float(polys[2].real),
        all_solutions=all_reduced,
    )


def _objective(a1, seed):
    """(Re(p_abaaa), failed) at a1; the value is inf where no kick is usable.

    Minimising the signed real part locates the interior stationary point of
    Re(p_abaaa); the |Re| global minimum is a sign crossing elsewhere in
    (0, 1/2) and not a useful design point.
    """
    try:
        sol = solve_b(DesignProblem(4, (a1,)), starts=SCAN_STARTS, seed=seed)
    except NoStableSolution:
        return np.inf, False   # solved, but inadmissible: excluded, not a failure
    except NoSolutionFound:
        return np.inf, True
    return sol.re_p_abaaa, False


def scan_a1(grid_points=200, seed=0):
    """Grid-then-golden-section minimisation of Re(p_abaaa) over a1."""
    grid = np.linspace(SCAN_MARGIN, 0.5 - SCAN_MARGIN, grid_points)
    scored = [_objective(a1, seed) for a1 in grid]
    values = np.array([value for value, _ in scored])
    failures = sum(failed for _, failed in scored)
    if failures > 0.1 * grid_points:
        raise DesignScanUnreliable(
            f"{failures}/{grid_points} grid points failed to solve")
    if not np.isfinite(values).any():
        raise DesignScanUnreliable("no admissible solution anywhere on the grid")
    idx = int(np.argmin(values))
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, grid_points - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = _objective(x1, seed)[0], _objective(x2, seed)[0]
    while hi - lo > SCAN_REFINE_TOL:
        if f2 < f1:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = _objective(x2, seed)[0]
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = _objective(x1, seed)[0]
    a1_opt = 0.5 * (lo + hi)
    # golden section is noise-limited near a flat quadratic minimum; a few
    # successive parabolic-vertex fits recover the last digits
    for delta in (1e-3, 1e-4, 1e-5):
        f0, f1_, f2_ = (_objective(x, seed)[0]
                        for x in (a1_opt - delta, a1_opt, a1_opt + delta))
        denom = f0 - 2.0 * f1_ + f2_
        if np.isfinite(denom) and denom > 0.0:
            shift = 0.5 * delta * (f0 - f2_) / denom
            if abs(shift) < 2.0 * delta:
                a1_opt = a1_opt + shift
    sol = solve_b(DesignProblem(4, (a1_opt,)), starts=SCAN_STARTS, seed=seed)
    return a1_opt, sol
