"""Re-derivation of complex-kick BAB schemes.

Real, palindromic flows a_i of a 2k-stage BAB leave k reduced kicks for k
generated conditions: mu_2, mu_4, ..., mu_2k-2, linear, solved as moments
about 1/2, which put the solutions on a line, and delta_10, a quadratic
along it; the symmetry and
sum(b) = 1 meet the rest of order (2k, 4).  Its two roots are every
solution, found exactly.  The 4-stage family's free a_1 then minimises
Re(mu_4) (``p_abaaa``), what survives the post-step projection.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (CxsplitError, DesignScanUnreliable, NoSolutionFound,
                     NoStableSolution, ValidationError)
from .order_conditions import (CONDITIONS, condition_residuals, order_poly_jacobian,
                               quadratic_form)
from .schemes import Scheme

RESIDUAL_TOL = 1e-14         # largest residual of an accepted solution
SCAN_MARGIN = 1e-3           # the scan grid spans [margin, 1/2 - margin]
MAX_GRID_POINTS = 10 ** 5    # a scan holds its grid's solve at once, about 2.0 KB a point
STAGES = (4, 6, 8)           # 10 stages would solve to about 1e-11 only
_NAMED = {cond.name: cond for cond in CONDITIONS}
MU_4 = _NAMED["mu_4"]        # p_abaaa, the 4-stage objective
# what a design of each stage count solves: mu_2, ..., mu_(stages-2), then delta_10
DESIGN_CONDITIONS = {stages: tuple(_NAMED[name] for name in (
    *(f"mu_{j}" for j in range(2, stages - 1, 2)), "delta_10")) for stages in STAGES}


@dataclass
class DesignProblem:
    stages: int                  # one of STAGES
    fixed_a: tuple               # reduced real a values: (a1,) or stages/2 of them
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
                f"a {'-, '.join(map(str, STAGES[:-1]))}- or {STAGES[-1]}-stage design needs "
                "stages/2 flow coefficients in (0, 1) with sum 1/2, or a1 alone for 4 stages; got "
                f"stages={self.stages}, a={self.fixed_a}")
        self.nodes = kick_nodes(np.array([self.fixed_a]))[0]

    def scheme(self, b, name="designed"):
        """The BAB scheme with these flows and symmetry-reduced kicks b."""
        return Scheme(name, "BAB", tuple(self.fixed_a), tuple(b), 4, True)

    @staticmethod
    def full_b(bu):
        """Expand unknowns (..., k) into palindromic kick vectors (..., 2k + 1)."""
        bu = np.asarray(bu, dtype=complex)
        center = 1.0 - 2.0 * np.add.reduce(bu, axis=-1, keepdims=True)
        return np.concatenate((bu, center, bu[..., ::-1]), axis=-1)


@dataclass
class DesignSolution:
    b: tuple                     # symmetry-reduced kicks incl. the centre value
    residual_norm: float
    re_p_abaaa: float
    all_solutions: list = field(default_factory=list)


@functools.cache
def _frame(k):
    """kicks = base + unknowns @ basis, and the columns of each minor of the linear rows."""
    base = DesignProblem.full_b(np.zeros(k)).real
    basis = DesignProblem.full_b(np.eye(k)).real - base
    frame = base, basis, np.array([np.delete(np.arange(k), j) for j in range(k)])
    for array in frame:          # shared by every call
        array.flags.writeable = False
    return frame


def kick_nodes(flows):
    """The kick nodes (B, 2k + 1) of a (B, k) stack of reduced real flows: one running
    sum over the palindromic flows, the sequential sums of ``schemes.expand``."""
    steps = np.concatenate((np.zeros((len(flows), 1)), flows, flows[:, ::-1]), axis=-1)
    return np.cumsum(steps, axis=-1).astype(complex)


Solved = namedtuple("Solved", "b residual re_mu_4 status roots")
# a status >= DEGENERATE failed; float codes, as an int array compare would page in
# numpy's int comparison loops, which nothing else here runs (0.125 MB resident)
SOLVED, UNSTABLE, DEGENERATE, INACCURATE = 0.0, 1.0, 2.0, 3.0


def solve_stack(nodes):
    """Solve a (B, 2k + 1) stack of one stage count's kick nodes, as arrays.

    Returns Solved: per row the reduced kicks b (B, k + 1), the residual,
    Re(mu_4), a status and both roots (B, 2, k + 1), nan where the row
    degenerates; ``solve_b``'s choice of root and its checks.  matmul, det,
    svd, solve and eigvals loop over the leading axis with one row's
    kernels, so each row gets the bits of its design solved alone.
    """
    k = nodes.shape[-1] // 2
    base, basis, cols = _frame(k)
    c = nodes.real
    *linear, quadratic = DESIGN_CONDITIONS[2 * k]
    # each mu_k as its moment about 1/2, sum b_i (c_i - 1/2)^k = 2^-k/den: the
    # same condition where nodes and kicks mirror, with smaller, better scaled rows
    rows = np.stack([(c - 0.5) ** cond.k for cond in linear], axis=-2)
    lin = rows @ basis.T
    rhs = np.array([0.5 ** cond.k / cond.den for cond in linear]) - rows @ base
    # the free unknown t is the one whose minor has the largest |det|: by
    # Cramer's rule no other unknown then moves faster than t along the line
    minors = lin[..., cols].swapaxes(-3, -2)
    dets = np.abs(np.linalg.det(minors))
    # rank k - 1 by matrix_rank's rule (each singular value above the largest
    # times k eps), and a minor that solve can factor
    sv = np.linalg.svd(lin, compute_uv=False)
    full_rank = sv[:, -1] > sv[:, 0] * (k * np.finfo(float).eps)
    at = np.flatnonzero(full_rank & (dets.max(axis=-1) > 0.0))
    free, row = dets[at].argmax(axis=-1), np.arange(len(at))
    solved = np.linalg.solve(minors[at, free], np.concatenate(
        (rhs[at, :, None], -lin[at, :, free, None]), axis=-1))
    line = np.zeros((len(at), 2, k))        # the unknowns u0 + t v: rows u0 and v
    line[row, 1, free] = 1.0
    line[row[:, None], :, cols[free]] = solved
    w = (line[:, :, None] @ basis)[:, :, 0]
    w[:, 0] += base                         # the kicks w0 + t w1
    # matmul picks its kernel by memory layout, so each q is laid out in C
    # order, as one design's is; a stack from quadratic_form's gather is not
    q = np.ascontiguousarray(quadratic_form(quadratic, c[at]))
    # along the line delta_10 = p0 t^2 + p1 t + p2 with p = (w1/2 q w1, w0 q w1,
    # w0/2 q w0 - 1/3), each a vector-matrix product, then a dot; np.roots
    # takes its roots as the eigenvalues of the companion matrix, and a row
    # whose matrix is not finite (p0 = 0, an overflow) has no two roots
    x = w[:, [1, 0, 0]] * np.array([[0.5], [1.0], [0.5]])
    p = ((x[:, :, None] @ q[:, None]) @ w[:, [1, 1, 0], :, None])[..., 0, 0]
    p[:, 2] -= 1.0 / quadratic.den
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        top = -p[:, 1:] / p[:, :1]
    keep = np.isfinite(top).all(axis=-1)
    companion = np.zeros((keep.sum(), 2, 2))
    companion[:, 0], companion[:, 1, 0] = top[keep], 1.0
    t = np.linalg.eigvals(companion).astype(complex)
    at, roots = at[keep], line[keep, :1] + t[..., None] * line[keep, 1:]
    # sorted by (Re b1, Im b1): numpy compares complex numbers in that order
    roots = np.where((roots[:, 1, :1] < roots[:, 0, :1])[:, None], roots[:, ::-1], roots)
    u = np.full((len(nodes), 2, k), np.nan, complex)
    u[at] = roots
    full = DesignProblem.full_b(u)
    accepted = full.real.min(axis=-1) > 0.0
    # min(accepted, key=Im(b1)): the first accepted root of least Im(b1)
    best = u[np.arange(len(u)), np.where(accepted, u[..., 0].imag, np.inf).argmin(axis=-1)]
    # canonical branch: Im(b1) <= 0 picks one of the conjugate pair deterministically
    best = np.where(best[:, :1].imag > 0.0, np.conjugate(best), best)
    b_full = DesignProblem.full_b(best)
    # the residuals, then the objective's, again where it is solved: one O(n) row
    *res, mu_4 = condition_residuals(b_full, nodes, (*DESIGN_CONDITIONS[2 * k], MU_4))
    residual, status = np.abs(res).max(axis=0), np.full(len(nodes), DEGENERATE)
    status[at] = np.where(~accepted[at].any(axis=-1), UNSTABLE,
                          np.where(residual[at] <= RESIDUAL_TOL, SOLVED, INACCURATE))
    return Solved(b_full[:, :k + 1], residual, mu_4.real, status, full[..., :k + 1])


def _outcome(solved, i):
    """Row i of a solved stack as solve_b's outcome: a DesignSolution, or its error unraised."""
    b, residual, re_mu_4, status, roots = (column[i] for column in solved)
    all_reduced = [tuple(reduced) for reduced in roots]
    if status == SOLVED:
        return DesignSolution(tuple(b), float(residual), float(re_mu_4), all_reduced)
    if status == UNSTABLE:
        return NoStableSolution("all solutions have some Re(b_i) <= 0", all_reduced)
    why = (f"solution residual {residual:.3e} > {RESIDUAL_TOL:.0e}" if status == INACCURATE
           else "degenerate linear order conditions")
    return NoSolutionFound(f"{why} (stages={2 * len(b) - 2})")


def solve_b(problem, starts=1, seed=0):
    """Solve the order conditions for the kicks of a fixed-a BAB design, exactly.

    ``starts`` and ``seed`` are accepted and unused, as are ``scan_a1``'s
    ``seed`` and ``design --seed``: perfbench and the acceptance test pass them.
    """
    outcome = _outcome(solve_stack(problem.nodes[None]), 0)
    if isinstance(outcome, CxsplitError):
        raise outcome
    return outcome


def _scan_points(a1s):
    """The 4-stage designs at a1s, solved as one stack: (values, failed, slopes, solved).

    A value is Re(p_abaaa), whose signed least is the interior stationary point
    (|Re|'s is a sign crossing), inf where no kick is usable: an inadmissible
    design is excluded, not failed.  The exact slope dRe(p_abaaa)/da1, nan there,
    keeps mu_2 = delta_10 = 0: db/da1 = -F_b^-1 F_c dc/da1 (implicit function
    theorem), F_b and F_c the conditions' derivatives by the unknowns and nodes.
    """
    nodes = kick_nodes(np.stack((a1s, np.subtract(0.5, a1s)), axis=-1))
    solved = solve_stack(nodes)
    usable = solved.status == SOLVED
    at = np.flatnonzero(usable)
    b, c = DesignProblem.full_b(solved.b[at, :2]), nodes[at]
    conds = (*DESIGN_CONDITIONS[4], MU_4)
    # d(mu_2, delta_10, mu_4)/dc_i, k b c^(k-1) for a mu_k, along dc/da1 = (0, 1, 0, -1, 0)
    f_c = np.stack([x.k * b * c ** (x.k - 1) if x.l is None else b * (b.cumsum(-1) - 0.5 * b)
                    for x in conds], axis=-2) @ np.array([0.0, 1.0, 0.0, -1.0, 0.0])
    f_u = order_poly_jacobian(b, c, conds) @ _frame(2)[1].T
    du = np.linalg.solve(f_u[:, :2], -f_c[:, :2, None])
    slopes = np.full(len(a1s), np.nan)
    slopes[at] = (f_u[:, 2:] @ du)[:, 0, 0].real + f_c[:, 2].real
    return np.where(usable, solved.re_mu_4, np.inf), solved.status >= DEGENERATE, slopes, solved


def scan_a1(grid_points=200, seed=0):
    """The a1 where Re(p_abaaa) is least: the root of its exact slope.

    The least grid value and its neighbour downhill bracket the root;
    Illinois false position, or bisection while an end has no slope,
    narrows the bracket until |slope| <= eps/2, one rounding unit of its O(1)
    terms, past which its sign is noise, or to adjacent floats.  A bracket
    needs two grid points.
    """
    if grid_points < 2:
        raise ValidationError(f"a scan needs at least 2 grid points, got {grid_points}")
    if grid_points > MAX_GRID_POINTS:      # before its designs fill the memory
        raise ValidationError(
            f"a scan holds at most {MAX_GRID_POINTS} grid points, got {grid_points}")
    grid = np.linspace(SCAN_MARGIN, 0.5 - SCAN_MARGIN, grid_points)
    values, failed, slopes, solved = _scan_points(grid)
    if failed.sum() > 0.1 * grid_points:
        raise DesignScanUnreliable(f"{failed.sum()}/{grid_points} grid points failed to solve")
    if not np.isfinite(values).any():
        raise DesignScanUnreliable("no admissible solution anywhere on the grid")
    idx = int(np.argmin(values))
    near = int(np.clip(idx - np.sign(slopes[idx]), 0, grid_points - 1))
    # each end: a1, its false-position weight, its slope, its solved stack and row
    ends, last = [[grid[i], slopes[i], slopes[i], solved, i] for i in sorted((idx, near))], None
    while ends[0][0] < (mid := 0.5 * (ends[0][0] + ends[1][0])) < ends[1][0]:
        (lo, w_lo, *_), (hi, w_hi, *_) = ends
        x = lo - w_lo * (hi - lo) / (w_hi - w_lo) if w_lo < 0.0 < w_hi else mid
        x = x if lo < x < hi else mid
        _, _, (slope,), solved = _scan_points([x])
        if abs(slope) <= 0.5 * np.finfo(float).eps:
            return float(x), _outcome(solved, 0)
        # a negative slope replaces the left end, as does no slope where it has none
        side = int(not (slope < 0.0 or (np.isnan(slope) and np.isnan(ends[0][2]))))
        ends[1 - side][1] *= 0.5 if side == last else 1.0    # Illinois: halve an end kept twice
        ends[side], last = [x, slope, slope, solved, 0], side
    a1_opt, _, _, solved, row = min(ends, key=lambda end: np.nan_to_num(abs(end[2]), nan=np.inf))
    return float(a1_opt), _outcome(solved, row)
