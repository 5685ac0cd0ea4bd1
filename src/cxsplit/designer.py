"""Re-derivation of complex-kick BAB schemes.

Fixing real, palindromic flow coefficients a_i leaves the k reduced kicks
free to solve k order conditions: p_abb and the first k - 1 linear rows of
``order_conditions``, which defines every row and target.  The linear rows
put the solutions on a line along which p_abb is a quadratic: its two roots
are every solution, found exactly.  The free a_1 of the 4-stage family is
then tuned to minimise Re(p_abaaa), what survives the post-step projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DesignScanUnreliable, NoSolutionFound, NoStableSolution,
                     ValidationError)
from .order_conditions import (ABB_TARGET, LINEAR_TARGETS, abb_form, kicks_of,
                               linear_terms, order_polys)
from .schemes import Scheme, expand

RESIDUAL_TOL = 1e-14         # largest residual of an accepted solution
SCAN_MARGIN = 1e-3           # the scan grid spans [margin, 1/2 - margin]
SCAN_REFINE_TOL = 1e-10      # golden-section bracket width that ends the scan
STAGES = (4, 6)              # k = stages/2 conditions: p_abb and k - 1 linear rows


@dataclass
class DesignProblem:
    stages: int                  # one of STAGES
    fixed_a: tuple               # reduced real a values: (a1,) or (a1, a2, a3)
    k: int = field(init=False)   # unknown kicks b_1..b_k, as many as conditions
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.stages == 4 and len(self.fixed_a) == 1:
            self.fixed_a = (self.fixed_a[0], 0.5 - self.fixed_a[0])
        self.k = self.stages // 2
        if (self.stages not in STAGES or len(self.fixed_a) != self.k
                or abs(sum(self.fixed_a) - 0.5) > 1e-13
                or not all(0.0 < ai < 1.0 for ai in self.fixed_a)):
            raise ValidationError(
                f"a {'- or '.join(map(str, STAGES))}-stage design needs stages/2 flow "
                "coefficients in (0, 1) with sum 1/2, or a1 alone for 4 stages; got "
                f"stages={self.stages}, a={self.fixed_a}")
        # the kick nodes of the composition the stepper runs, rounding included
        self.nodes = kicks_of(expand(self.scheme((0.0,) * (self.k + 1))))[1]

    def scheme(self, b, name="designed"):
        """The BAB scheme with these flows and symmetry-reduced kicks b."""
        return Scheme(name, "BAB", self.stages, tuple(self.fixed_a), tuple(b), 4, True)

    def full_b(self, bu):
        """Expand unknowns (..., k) into palindromic kick vectors (..., 2k + 1)."""
        bu = np.asarray(bu, dtype=complex)
        center = 1.0 - 2.0 * bu.sum(axis=-1, keepdims=True)
        return np.concatenate((bu, center, bu[..., ::-1]), axis=-1)


@dataclass
class DesignSolution:
    b: tuple                     # symmetry-reduced kicks incl. the centre value
    residual_norm: float
    re_p_abaaa: float
    all_solutions: list = field(default_factory=list)


def _solutions(problem):
    """Every solution of the k conditions, as unknown vectors; [] if degenerate."""
    k, c = problem.k, problem.nodes.real
    base = problem.full_b(np.zeros(k)).real
    basis = problem.full_b(np.eye(k)).real - base     # kicks = base + unknowns @ basis
    rows = linear_terms(1.0, c)[:k - 1]
    lin = rows @ basis.T
    rhs = np.array(LINEAR_TARGETS[:k - 1]) - rows @ base
    if np.linalg.matrix_rank(lin) < k - 1:
        return []
    # the free unknown t is the one whose minor has the largest |det|: by
    # Cramer's rule no other unknown then moves faster than t along the line
    minors = np.stack([np.delete(lin, j, axis=1) for j in range(k)])
    free = int(np.argmax(np.abs(np.linalg.det(minors))))
    fixed = np.delete(np.arange(k), free)
    u0, v = np.zeros(k), np.eye(k)[free]
    u0[fixed], v[fixed] = np.linalg.solve(minors[free], np.stack((rhs, -lin[:, free]), 1)).T
    q = abb_form(c)
    w0, w1 = base + u0 @ basis, v @ basis
    coeffs = (0.5 * w1 @ q @ w1, w0 @ q @ w1, 0.5 * w0 @ q @ w0 - ABB_TARGET)
    return [u0 + t * v for t in np.roots(coeffs)]


def solve_b(problem, starts=1, seed=0):
    """Solve the order conditions for the kicks of a fixed-a BAB design, exactly.

    ``starts`` and ``seed`` are accepted and unused, as are ``scan_a1``'s
    ``seed`` and ``design --seed``: perfbench and the acceptance test pass them.
    """
    k = problem.k
    found = sorted(_solutions(problem), key=lambda z: (z[0].real, z[0].imag))
    if not found:
        raise NoSolutionFound(
            f"degenerate linear order conditions (stages={problem.stages})")
    all_reduced = [tuple(problem.full_b(bu)[:k + 1]) for bu in found]
    accepted = [bu for bu in found if problem.full_b(bu).real.min() > 0.0]
    if not accepted:
        raise NoStableSolution("all solutions have some Re(b_i) <= 0", all_reduced)
    # canonical branch: Im(b1) <= 0 picks one of the conjugate pair deterministically
    best = min(accepted, key=lambda z: z[0].imag)
    if best[0].imag > 0.0:
        best = np.conjugate(best)
    b_full = problem.full_b(best)
    polys = order_polys(b_full, problem.nodes)
    residual = float(np.abs(polys[:k]).max())
    if not residual <= RESIDUAL_TOL:
        raise NoSolutionFound(
            f"solution residual {residual:.3e} > {RESIDUAL_TOL:.0e} (stages={problem.stages})")
    return DesignSolution(tuple(b_full[:k + 1]), residual, float(polys.p_abaaa.real), all_reduced)


def _objective(a1):
    """(Re(p_abaaa), failed) at a1; the value is inf where no kick is usable.

    Minimising the signed real part locates the interior stationary point of
    Re(p_abaaa); the |Re| global minimum is a sign crossing elsewhere in
    (0, 1/2) and not a useful design point.
    """
    try:
        sol = solve_b(DesignProblem(4, (a1,)))
    except NoStableSolution:
        return np.inf, False   # solved, but inadmissible: excluded, not a failure
    except NoSolutionFound:
        return np.inf, True
    return sol.re_p_abaaa, False


def scan_a1(grid_points=200, seed=0):
    """Grid-then-golden-section minimisation of Re(p_abaaa) over a1."""
    grid = np.linspace(SCAN_MARGIN, 0.5 - SCAN_MARGIN, grid_points)
    scored = [_objective(a1) for a1 in grid]
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
    f1, f2 = _objective(x1)[0], _objective(x2)[0]
    while hi - lo > SCAN_REFINE_TOL:
        if f2 < f1:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = _objective(x2)[0]
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = _objective(x1)[0]
    a1_opt = 0.5 * (lo + hi)
    # golden section is noise-limited near a flat quadratic minimum; a few
    # successive parabolic-vertex fits recover the last digits
    for delta in (1e-3, 1e-4, 1e-5):
        f0, f1_, f2_ = (_objective(x)[0]
                        for x in (a1_opt - delta, a1_opt, a1_opt + delta))
        denom = f0 - 2.0 * f1_ + f2_
        if np.isfinite(denom) and denom > 0.0:
            shift = 0.5 * delta * (f0 - f2_) / denom
            if abs(shift) < 2.0 * delta:
                a1_opt = a1_opt + shift
    sol = solve_b(DesignProblem(4, (a1_opt,)))
    return a1_opt, sol
