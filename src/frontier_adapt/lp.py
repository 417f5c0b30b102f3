"""Deterministic solver for small dense linear programs with free variables.

Problems have the shape

    minimize    c . b
    subject to  A b >= r,        b in R^(d+1) unrestricted,

with few variables (d+1 is a polynomial degree plus one) and possibly many
constraints (one per design point in a window).  Splitting the free variables
into a wide primal tableau would cost O(m^2) memory and O(m) Phase-I pivots,
so the solver instead runs a two-phase primal simplex with Bland's rule on
the standard-form dual

    minimize    (-r) . lam
    subject to  A' lam = c,      lam >= 0,

whose tableau is only (d+2) x (m + d + 2).  The primal vertex is recovered
from the simplex multipliers: with D the diagonal of row-sign flips used to
make the dual right-hand side nonnegative, b = -D y, where y is read off the
objective row under the artificial columns.  The final reduced costs of the
lam columns equal the primal slacks A b - r, so dual optimality certifies
primal feasibility and complementary slackness at once.

Status mapping: dual optimal -> optimal; dual unbounded -> infeasible; dual
infeasible -> unbounded or infeasible, disambiguated by a Farkas probe that
reruns the machinery with c = 0.  Pricing is Dantzig's (most negative
reduced cost) for speed; after a run of degenerate pivots the rule switches
to Bland's, which cannot cycle, so termination is guaranteed.  All
tie-breaks are by lowest index, so identical inputs give identical vertices.

The cost of a solve is Python overhead per pivot, not arithmetic: the
tableau has only d+2 rows.  So pricing is one NumPy argmin over the
reduced-cost row, and the ratio test runs in plain Python floats over the
d+1 constraint rows, with the same IEEE divisions NumPy would do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

FEASIBILITY_TOL = 1e-9   # relative, on recovered-solution slacks
PIVOT_TOL = 1e-12        # pivot magnitudes below this raise NumericalBreakdown
_MAX_PIVOT_FACTOR = 200  # safety cap: pivots <= factor * (rows + cols)
_STALL_LIMIT = 30        # consecutive degenerate pivots before Bland's rule


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . b subject to constraint_matrix @ b >= constraint_rhs."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    constraint_rhs: np.ndarray

    def __post_init__(self):
        obj = np.atleast_1d(np.asarray(self.objective, dtype=float))
        mat = np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float))
        rhs = np.atleast_1d(np.asarray(self.constraint_rhs, dtype=float))
        if obj.ndim != 1 or rhs.ndim != 1 or mat.shape != (rhs.size, obj.size):
            raise ValueError(
                f"inconsistent LP shapes: objective {obj.shape}, "
                f"matrix {mat.shape}, rhs {rhs.shape}"
            )
        if not (
            np.isfinite(obj).all() and np.isfinite(mat).all() and np.isfinite(rhs).all()
        ):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraint_matrix", mat)
        object.__setattr__(self, "constraint_rhs", rhs)

    @property
    def n_constraints(self) -> int:
        return self.constraint_rhs.size

    @property
    def n_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    variables: np.ndarray
    objective_value: float
    status: str
    iterations: int


def _pivot(T, basis, row, col):
    """Pivot T in place on (row, col): col enters the basis at row."""
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= colvals[:, None] * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T, basis, n_enterable, tol_rc):
    """Primal simplex on a standard-form tableau.

    T has shape (rows+1, cols+1); the last row holds reduced costs, the last
    column the right-hand side.  Columns with index >= n_enterable are barred
    from entering (used to lock out artificials in phase 2).  Entering
    columns are priced by most negative reduced cost; _STALL_LIMIT
    consecutive degenerate pivots switch the rule to Bland's for the rest of
    the run, which rules out cycling.  A NaN ratio raises NumericalBreakdown.
    Returns (status, pivot_count); mutates T and basis in place.
    """
    nrows = T.shape[0] - 1
    max_pivots = _MAX_PIVOT_FACTOR * (T.shape[1] + nrows)
    rc = T[-1, :n_enterable]
    rhs_col = T[:nrows, -1]
    pivots = 0
    bland = False
    stall = 0
    while True:
        if bland:
            entering = np.flatnonzero(rc < -tol_rc)
            if entering.size == 0:
                return OPTIMAL, pivots
            j = int(entering[0])
        else:
            j = int(rc.argmin())
            if rc[j] >= -tol_rc:
                return OPTIMAL, pivots
        col = T[:nrows, j].tolist()
        rhs = rhs_col.tolist()
        # ratios of the rows with a pivot above PIVOT_TOL; the others stay inf
        ratios = [math.inf] * nrows
        rmin = math.inf
        has_pos = has_nan = False
        for i, a in enumerate(col):
            if a > PIVOT_TOL:
                ratio = rhs[i] / a
                ratios[i] = ratio
                has_pos = True
                if ratio < rmin:
                    rmin = ratio
                elif ratio != ratio:
                    has_nan = True
        if not has_pos:
            if any(a > 0.0 for a in col):
                raise NumericalBreakdown(
                    f"all pivot candidates in column {j} are below {PIVOT_TOL}"
                )
            return UNBOUNDED, pivots
        band = rmin + 1e-9 * (1.0 + abs(rmin))
        leave = -1
        if not has_nan:
            for i, ratio in enumerate(ratios):
                if ratio <= band and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise NumericalBreakdown(f"ratio test in column {j} met a NaN or -inf ratio")
        if rmin <= 0.0:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        piv = col[leave]
        if abs(piv) < PIVOT_TOL:
            raise NumericalBreakdown(f"pivot magnitude {piv!r} below {PIVOT_TOL}")
        _pivot(T, basis, leave, j)
        pivots += 1
        if pivots > max_pivots:
            raise NumericalBreakdown("simplex pivot limit exceeded")


def _solve_via_dual(A, r, c):
    """Two-phase simplex on the dual; returns (status, b, dual_value, pivots)."""
    m, nv = A.shape
    sign = np.where(c < 0.0, -1.0, 1.0)
    ncols = m + nv
    T = np.zeros((nv + 1, ncols + 1))
    np.multiply(A.T, sign[:, None], out=T[:nv, :m])
    T.ravel()[m : nv * (ncols + 2) : ncols + 2] = 1.0  # identity on the artificials
    abs_c = np.abs(c)
    T[:nv, -1] = abs_c
    cscale = max(1.0, abs_c.max())
    basis = np.arange(m, ncols)

    # phase 1: drive the artificial sum to zero
    T[-1, m:ncols] = 1.0
    T[-1] -= T[:nv].sum(axis=0)
    status, p1 = _run_simplex(T, basis, ncols, 1e-9 * cscale)
    pivots = p1
    if status != OPTIMAL:
        raise NumericalBreakdown("phase 1 terminated unbounded")
    if -T[-1, -1] > 1e-7 * cscale:
        return "dual_infeasible", None, np.nan, pivots

    # drive zero-level artificials out of the basis: left in, they corrupt
    # phase 2's unboundedness test (their rows admit no positive pivot).
    # a row with no real-column entry is a redundant constraint; its noise
    # is clamped so it stays inert.
    for i in range(nv):
        if basis[i] < m:
            continue
        row = T[i, :m]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > PIVOT_TOL:
            _pivot(T, basis, i, j)
            pivots += 1
        else:
            T[i, :m][np.abs(row) <= PIVOT_TOL] = 0.0

    # phase 2: minimize (-r) . lam with artificials barred from entering
    costs = np.zeros(ncols + 1)
    costs[:m] = -r
    T[-1] = costs
    T[-1] -= costs[basis] @ T[:nv]
    status, p2 = _run_simplex(T, basis, m, 1e-9 * max(1.0, np.abs(r).max()))
    pivots += p2
    if status == UNBOUNDED:
        return "dual_unbounded", None, np.nan, pivots

    b = sign * T[-1, m:ncols]
    return "dual_optimal", b, T[-1, -1], pivots


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the LP; deterministic for identical input.

    Returns an optimal basic solution when one exists.  Among alternative
    optima the vertex reached by the fixed pivot sequence is returned.
    Raises NumericalBreakdown when pivots degenerate below PIVOT_TOL or the
    recovered solution fails its own feasibility/duality certificate.
    """
    A = lp.constraint_matrix
    r = lp.constraint_rhs
    c = lp.objective
    nv = lp.n_variables

    status, b, dual_value, pivots = _solve_via_dual(A, r, c)
    if status == "dual_unbounded":
        return LpSolution(np.full(nv, np.nan), np.nan, INFEASIBLE, pivots)
    if status == "dual_infeasible":
        probe_status, _, _, probe_pivots = _solve_via_dual(A, r, np.zeros(nv))
        pivots += probe_pivots
        status = INFEASIBLE if probe_status == "dual_unbounded" else UNBOUNDED
        return LpSolution(np.full(nv, np.nan), np.nan, status, pivots)

    # certificate: feasibility relative to row scale, and no duality gap
    slack = A @ b - r
    rowscale = np.maximum(1.0, np.abs(A) @ np.abs(b) + np.abs(r))
    worst = (slack / rowscale).min() if slack.size else 0.0
    if worst < -FEASIBILITY_TOL:
        raise NumericalBreakdown(f"recovered vertex infeasible (relative {worst:.2e})")
    value = float(c @ b)
    if abs(value - dual_value) > 1e-7 * max(1.0, abs(value)):
        raise NumericalBreakdown(
            f"duality gap {value - dual_value:.2e} exceeds tolerance"
        )
    return LpSolution(b, value, OPTIMAL, pivots)
