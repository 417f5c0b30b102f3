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

On a small window the cost of a solve is Python overhead per pivot, not
arithmetic: the tableau has only d+2 rows.  So pricing is one NumPy argmin
over the reduced-cost row, and the ratio test runs in plain Python floats
over the d+1 constraint rows, with the same IEEE divisions NumPy would do.
On a wide window it is memory passes over the tableau, so a pivot updates
a large tableau in column blocks that stay in cache.

Phase 1 reads only A and c, and Monte Carlo replicates refit the same
window one after another, so the last phase 1 is memoized in one slot keyed
on the exact bytes of (A, c); the responses r enter in phase 2 alone.  So a
lockstep stack of problems that share A and c, such as the replicates of
one window, takes one phase 1 from that slot.
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
PHASE1_STOP_TOL = 1e-9   # phase 1 stops at reduced costs >= -this * max(1, max|c|)
ARTIFICIAL_TOL = 1e-7    # an artificial sum above this * max(1, max|c|): dual infeasible
PHASE2_STOP_TOL = 1e-9   # phase 2 stops at reduced costs >= -this * max(1, max|r|)
RATIO_BAND_TOL = 1e-9    # ratios within this of the least, relative, tie for leaving
DUALITY_GAP_TOL = 1e-7   # relative, on the recovered solution's duality gap
_MAX_PIVOT_FACTOR = 10   # safety cap: pivots <= factor * (rows + cols), >= 40 (README)
_STALL_LIMIT = 30        # consecutive degenerate pivots before Bland's rule
PHASE1_MEMO_BYTES = 1 << 19  # cap on the phase-1 memo's key and tableau
BATCH_TABLEAU_BYTES = 3 << 17  # cap on the tableaux of one lockstep batch (384 KiB)
MIN_LOCKSTEP_BATCH = 16  # fewer problems per batch solve faster one at a time (README)
PIVOT_BLOCK_BYTES = 1 << 19  # cap on the column blocks that _pivot updates in cache
_CERTIFY_SHORTCUT_SIZE = 1 << 11  # entries of A from which _certify tries its shortcut


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


def _unchecked_lp(objective, constraint_matrix, constraint_rhs):
    """A LinearProgram of float arrays that its caller built and checked:
    finite, of shapes (nv,), (m, nv) and (m,).  It skips the copies and the
    finiteness passes of LinearProgram's validation."""
    lp = object.__new__(LinearProgram)
    object.__setattr__(lp, "objective", objective)
    object.__setattr__(lp, "constraint_matrix", constraint_matrix)
    object.__setattr__(lp, "constraint_rhs", constraint_rhs)
    return lp


@dataclass(frozen=True)
class LpSolution:
    """Solver result.  iterations counts the pivots on the solution path:
    phase 1 (also when its result is reused), the drive-out of the
    artificials, phase 2 and any infeasibility probe."""

    variables: np.ndarray
    objective_value: float
    status: str
    iterations: int


def _pivot(T, basis, row, col):
    """Pivot T in place on (row, col): col enters the basis at row.

    Each entry gets the operations of one whole-tableau update: the pivot
    row is divided by the pivot, then every row i loses T[i, col] times the
    divided pivot row, the pivot row itself 0 times.  A tableau of more
    than PIVOT_BLOCK_BYTES is updated in even column blocks of about that
    size, so each block's division, products and differences stay in cache
    and no temporary spans the tableau.
    """
    piv = T[row, col]
    colvals = T[:, col, None].copy()
    colvals[row] = 0.0
    if T.nbytes <= PIVOT_BLOCK_BYTES:
        blocks = (T,)
    else:
        width = T.shape[1]
        step = -(-width // -(-T.nbytes // PIVOT_BLOCK_BYTES))
        blocks = [T[:, lo : lo + step] for lo in range(0, width, step)]
    for block in blocks:
        prow = block[row]
        prow /= piv
        block -= colvals * prow
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
    the run, which rules out cycling.  A NaN reduced cost or ratio raises
    NumericalBreakdown.
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
        # argmin stops at the first NaN, so rc[j] is NaN if any reduced cost is
        j = int(rc.argmin())
        if rc[j] != rc[j]:
            raise NumericalBreakdown("pricing met a NaN reduced cost")
        if bland:
            entering = np.flatnonzero(rc < -tol_rc)
            if entering.size == 0:
                return OPTIMAL, pivots
            j = int(entering[0])
        elif rc[j] >= -tol_rc:
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
        band = rmin + RATIO_BAND_TOL * (1.0 + abs(rmin))
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


# The scalar and the lockstep engine's one copy of each rule below: on a
# leading stack axis each problem gets what it would get alone, bit for bit.

def _signs(c):
    """The row-sign flips D that make the dual right-hand side |c| >= 0."""
    return np.where(c < 0.0, -1.0, 1.0)


def _scale(v):
    """max(1, max|v|) along the last axis, the scale of a simplex stop."""
    return np.abs(v).max(axis=-1, initial=1.0)


def _dual_tableau(A, c):
    """The phase-1 tableau of the dual of min{c.b : Ab >= r}, its basis
    (the artificials) and phase 1's stop.  A has shape (..., m, nv), c
    (..., nv) and T (..., nv + 1, m + nv + 1): the rows D A' | I | |c| over
    the artificial sum priced out, 0 less the column sums of the rows
    above, added in row order, and 1 - 1 = 0 on the artificials.
    """
    *lead, m, nv = A.shape
    ncols = m + nv
    T = np.empty((*lead, nv + 1, ncols + 1))
    # row i is column i of A, one contiguous pass for a Fortran-ordered A
    np.multiply(np.swapaxes(A, -1, -2), _signs(c)[..., None], out=T[..., :nv, :m])
    T[..., :nv, m:] = 0.0
    T.reshape(*lead, -1)[..., m : nv * (ncols + 2) : ncols + 2] = 1.0  # I on the artificials
    T[..., :nv, -1] = np.abs(c)
    basis = np.empty((*lead, nv), dtype=np.intp)
    basis[...] = np.arange(m, ncols)
    last = T[..., -1, :]
    np.add.reduce(T[..., :nv, :], axis=-2, out=last)
    np.subtract(0.0, last, out=last)
    last[..., m:ncols] = 0.0
    return T, basis, PHASE1_STOP_TOL * _scale(c)


def _price_phase2(T, basis, r):
    """Phase 2's objective row, minimize (-r) . lam, priced out by the
    basis (a stacked matmul rounds as the vector-matrix products of its
    slices); returns phase 2's stop."""
    m, nv = r.shape[-1], basis.shape[-1]
    last = T[..., -1, :]
    np.negative(r, out=last[..., :m])
    last[..., m:] = 0.0
    cb = last[basis] if basis.ndim == 1 else np.take_along_axis(last, basis, -1)
    last -= np.matmul(cb[..., None, :], T[..., :nv, :])[..., 0, :]
    return PHASE2_STOP_TOL * _scale(r)


def _phase1(A, c):
    """Phase 1 on the dual of min{c.b : Ab >= r}; it reads A and c only.

    Builds the dual tableau, drives the artificial sum to zero and then the
    zero-level artificials out of the basis.  Returns (T, basis, pivots),
    with T and basis None when the dual is infeasible.
    """
    T, basis, tol = _dual_tableau(A, c)
    status, pivots = _run_simplex(T, basis, T.shape[1] - 1, tol)
    if status != OPTIMAL:
        raise NumericalBreakdown("phase 1 terminated unbounded")
    if -T[-1, -1] > ARTIFICIAL_TOL * _scale(c):
        return None, None, pivots

    return T, basis, pivots + _drive_out(T, basis, A.shape[0])


def _drive_out(T, basis, m):
    """Drive the zero-level artificials out of a phase-1 optimal basis.

    Left in, they corrupt phase 2's unboundedness test (their rows admit no
    positive pivot).  A row with no real-column entry is a redundant
    constraint; its noise is clamped so it stays inert.  Returns the pivots.
    """
    pivots = 0
    for i in range(T.shape[0] - 1):
        if basis[i] < m:
            continue
        row = T[i, :m]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > PIVOT_TOL:
            _pivot(T, basis, i, j)
            pivots += 1
        else:
            T[i, :m][np.abs(row) <= PIVOT_TOL] = 0.0
    return pivots


_phase1_slot = (None, None)  # (key, (T, basis, pivots)) of the last memoized phase 1


def _phase1_memo(A, c):
    """_phase1(A, c), memoized in one slot keyed on the bytes of (A, c).

    Phase 1 reads nothing but A and c, so a stored result is the one a fresh
    run would compute, bit for bit; callers get copies, since phase 2 pivots
    the tableau in place.  Any other key runs phase 1 and takes the slot in
    one reference assignment, so threads share it without a lock: each reads
    a whole (key, result) pair, and a lost race costs a phase-1 run, never a
    wrong result.  A problem whose key and tableau would take more than
    PHASE1_MEMO_BYTES runs phase 1 without building a key, and like a
    NumericalBreakdown, leaves the slot as it was.
    """
    global _phase1_slot
    m, nv = A.shape
    if A.nbytes + c.nbytes + 8 * ((nv + 1) * (m + nv + 1) + nv) > PHASE1_MEMO_BYTES:
        return _phase1(A, c)
    key = (A.shape, A.T.tobytes(), c.tobytes())
    stored, result = _phase1_slot
    if stored != key:
        result = _phase1(A, c)
        _phase1_slot = (key, result)
    T, basis, pivots = result
    if T is None:
        return None, None, pivots
    return T.copy(), basis.copy(), pivots


def _solve_via_dual(A, r, c):
    """Two-phase simplex on the dual; returns (status, b, dual_value, pivots)."""
    T, basis, pivots = _phase1_memo(A, c)
    if T is None:
        return "dual_infeasible", None, np.nan, pivots

    # phase 2, with the artificials barred from entering
    status, p2 = _run_simplex(T, basis, r.size, _price_phase2(T, basis, r))
    pivots += p2
    if status == UNBOUNDED:
        return "dual_unbounded", None, np.nan, pivots
    # b = -D y, y read off the objective row under the artificials
    return "dual_optimal", _signs(c) * T[-1, r.size : -1], T[-1, -1], pivots


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the LP; deterministic for identical input.

    Returns an optimal basic solution when one exists.  Among alternative
    optima the vertex reached by the fixed pivot sequence is returned.
    Raises NumericalBreakdown when pivots degenerate below PIVOT_TOL or the
    recovered solution fails its own feasibility/duality certificate, which
    rejects a non-finite vertex or value: data near the largest float can
    overflow in the tableau, and that fails here without a NumPy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _solve_certified(lp)


def _solve_certified(lp: LinearProgram) -> LpSolution:
    A = lp.constraint_matrix
    r = lp.constraint_rhs
    c = lp.objective
    nv = lp.n_variables
    if not r.size:
        # no constraint: b = 0 is optimal for c = 0, any other c is unbounded
        if c.any():
            return LpSolution(np.full(nv, np.nan), np.nan, UNBOUNDED, 0)
        return LpSolution(np.zeros(nv), 0.0, OPTIMAL, 0)

    status, b, dual_value, pivots = _solve_via_dual(A, r, c)
    if status == "dual_unbounded":
        return LpSolution(np.full(nv, np.nan), np.nan, INFEASIBLE, pivots)
    if status == "dual_infeasible":
        probe_status, _, _, probe_pivots = _solve_via_dual(A, r, np.zeros(nv))
        pivots += probe_pivots
        status = INFEASIBLE if probe_status == "dual_unbounded" else UNBOUNDED
        return LpSolution(np.full(nv, np.nan), np.nan, status, pivots)

    return LpSolution(b, _certify(A, r, c, b, dual_value), OPTIMAL, pivots)


def _certify(A, r, c, b, dual_value):
    """c . b once b passes the certificate, else NumericalBreakdown.

    The certificate: a finite value (so a finite vertex: an inf or NaN in b
    makes c . b inf or NaN), feasibility relative to row scale, and no
    duality gap.  Feasibility is decided on the products of a C-ordered A.
    A large A is first offered to _clearly_feasible, which settles most
    vertices in fewer passes over A; on a small one the decisive products
    cost fewer calls.
    """
    value = float(c @ b)
    if not math.isfinite(value):
        raise NumericalBreakdown(f"recovered vertex {b} has objective value {value}")
    if not (A.size >= _CERTIFY_SHORTCUT_SIZE and _clearly_feasible(A, r, b)):
        A = np.ascontiguousarray(A)
        slack = A @ b - r
        rowscale = np.maximum(1.0, np.abs(A) @ np.abs(b) + np.abs(r))
        worst = (slack / rowscale).min() if slack.size else 0.0
        if not worst >= -FEASIBILITY_TOL:  # a NaN slack fails too
            raise NumericalBreakdown(f"recovered vertex infeasible (relative {worst:.2e})")
    if not _gap_closed(value, dual_value):
        raise NumericalBreakdown(
            f"duality gap {value - dual_value:.2e} exceeds tolerance"
        )
    return value


def _gap_closed(value, dual_value):
    """Whether |c . b - dual value| <= DUALITY_GAP_TOL max(1, |c . b|)."""
    gap = abs(value - dual_value)
    return (gap <= DUALITY_GAP_TOL) | (gap <= DUALITY_GAP_TOL * abs(value))


def _clearly_feasible(A, r, b):
    """Whether the finite vertex b passes _certify's feasibility test by a
    margin of 1e-12, far more than the rounding by which slacks summed in
    another order can differ.

    No sum |A_ij b_j| + |r_i| reaches 1e300, so nothing overflows in any
    order, and every slack is at least -FEASIBILITY_TOL + 1e-12, so every
    slack over its row scale of 1 or more is too.
    """
    bound = (np.abs(b).sum(axis=-1) * np.maximum(A.max(axis=(-2, -1)), -A.min(axis=(-2, -1)))
             + np.maximum(r.max(axis=-1), -r.min(axis=-1)))
    slack = np.matmul(A, b[..., None])[..., 0]
    slack -= r
    return (bound < 1e300) & (slack.min(axis=-1) >= -FEASIBILITY_TOL + 1e-12)


def _run_lockstep(T, basis, owner, n_enterable, tol_rc, pivots, live):
    """_run_simplex on the tableau of every live problem, in lockstep.

    T[i], basis[i] and tol_rc[i] hold problem owner[i]'s tableau, basis
    and stop.  Each live problem's tableau gets the pivots _run_simplex
    would make on it under Dantzig pricing, with the same products, and
    ends optimal.  A problem whose tableau would go on to Bland's rule, or
    would meet a NaN, an infinite ratio, no pivot candidate or the pivot
    cap, is dropped: live[p] is cleared and its tableau is left part-way.
    Adds each problem's pivots to pivots[p].  The pivots run on a prefix of
    T that shrinks as tableaux finish: a finished one swaps places with a
    working one behind it, so T, basis, tol_rc and owner end permuted alike.
    """
    P, nrows, width = T.shape[0], T.shape[1] - 1, T.shape[2]
    max_pivots = _MAX_PIVOT_FACTOR * (width + nrows)
    stall = np.zeros(P, dtype=int)
    count = np.zeros(P, dtype=int)
    ratios = np.empty((P, nrows))
    update = np.empty((P, width))
    k = _keep_in_front(live[owner], P, (T, basis, tol_rc, owner))
    while k:
        W, Wb, tol, p = T[:k], basis[:k], tol_rc[:k], np.arange(k)
        rc = W[:, -1, :n_enterable]
        j = rc.argmin(axis=1)
        rcj = rc[p, j]
        # NaN fails both tests: argmin stops at the first NaN
        done = rcj >= -tol
        drop = ~done & ~(rcj < -tol)
        # the ratios of the rows with a pivot above PIVOT_TOL, the others inf;
        # an infinite or NaN minimum (no candidate among them) drops the tableau
        col = W[p, :nrows, j]
        ratios[:k].fill(math.inf)
        np.divide(W[:, :nrows, -1], col, out=ratios[:k], where=col > PIVOT_TOL)
        rmin = ratios[:k].min(axis=1)
        band = rmin + RATIO_BAND_TOL * (1.0 + np.abs(rmin))
        leave = np.where(ratios[:k] <= band[:, None], Wb, width).argmin(axis=1)
        stall[:k] = np.where(rmin <= 0.0, stall[:k] + 1, 0)
        drop |= ~done & (~np.isfinite(rmin) | (stall[:k] > _STALL_LIMIT)
                         | (count[:k] >= max_pivots))
        if done.any() or drop.any():
            pivots[owner[:k][done]] += count[:k][done]
            live[owner[:k][drop]] = False
            k = _keep_in_front(~(done | drop), k, (T, basis, tol_rc, owner, stall, count, j, leave))
            W, Wb, p, j, leave = T[:k], basis[:k], p[:k], j[:k], leave[:k]
        # _pivot on every tableau: the pivot row divided, then each row less
        # its entry in column j times the pivot row, one row at a time
        prow = W[p, leave]
        prow /= W[p, leave, j][:, None]
        W[p, leave] = prow
        colvals = W[p, :, j]
        colvals[p, leave] = 0.0
        for i in range(nrows + 1):
            W[:, i] -= np.multiply(colvals[:, i, None], prow, out=update[:k])
        W[p, :, j] = 0.0
        W[p, leave, j] = 1.0
        Wb[p, leave] = j
        count[:k] += 1


def _keep_in_front(keep, k, arrays):
    """Reorder the first k rows of every array alike, the rows with keep
    first, by swapping each kept row behind them with a dropped row ahead.
    Returns the number kept."""
    kept = int(np.count_nonzero(keep))
    src = np.flatnonzero(keep[kept:k]) + kept
    dst = np.flatnonzero(~keep[:kept])
    if src.size:
        for a in arrays:
            a[src], a[dst] = a[dst], a[src]
    return kept


def batch_size(m, nv):
    """How many problems with m constraints and nv variables one lockstep
    batch takes: their tableaux fit in BATCH_TABLEAU_BYTES, and at least one."""
    return max(1, BATCH_TABLEAU_BYTES // (8 * (nv + 1) * (m + nv + 1)))


def lockstep_pays(problems, m, nv):
    """Whether problems with m constraints and nv variables solve faster in
    lockstep than one at a time: one batch must hold MIN_LOCKSTEP_BATCH of
    them, and from nv = 8 on, m must exceed 3 nv (README has the sweep)."""
    return min(problems, batch_size(m, nv)) >= MIN_LOCKSTEP_BATCH and (nv < 8 or m > 3 * nv)


def solve_lp_batch(A, r, c):
    """Solve P problems min{c[p] . b : A[p] b >= r[p]} of one shape in lockstep.

    r has shape (P, m).  A has shape (P, m, nv) and c (P, nv), or A (m, nv)
    and c (nv,) are shared by every problem; all finite.  A problem is
    solved when solve_lp would return it optimal by Dantzig pricing alone:
    then its vertex and pivot count are solve_lp's, bit for bit, and it
    passed solve_lp's certificate.  A stack runs phase 1 here, in lockstep;
    a shared A and c run it once, through solve_lp's one-slot memo, and
    when that phase 1 is dual infeasible or raises, no problem is solved.
    Returns (variables (P, nv), iterations (P,), solved (P,)); a problem not
    solved has NaN variables, and solve_lp gives its result or its
    NumericalBreakdown.  The tableaux take 8 (nv+1)(m+nv+1) bytes each, so
    callers bound P by batch_size.
    """
    P, m = r.shape
    nv = c.shape[-1]
    ncols = m + nv
    pivots = np.zeros(P, dtype=int)
    live = np.ones(P, dtype=bool)
    owner = np.arange(P)  # T[i] holds problem owner[i]'s tableau
    with np.errstate(over="ignore", invalid="ignore"):
        if A.ndim == 2:
            # phase 1 reads A and c alone: one run, repeated for each problem
            try:
                T, basis, pivots[:] = _phase1_memo(A, c)
            except NumericalBreakdown:
                T = None
            if T is None:
                return np.full((P, nv), np.nan), pivots, ~live
            T = np.repeat(T[None], P, axis=0)
            basis = np.repeat(basis[None], P, axis=0)
        else:
            # phase 1 as _phase1 runs it, each tableau permuted along with owner
            T, basis, tol = _dual_tableau(A, c)
            _run_lockstep(T, basis, owner, ncols, tol, pivots, live)
            live[owner] &= ~(-T[:, -1, -1] > ARTIFICIAL_TOL * _scale(c[owner]))
            for i in np.flatnonzero(live[owner] & (basis >= m).any(axis=1)):
                pivots[owner[i]] += _drive_out(T[i], basis[i], m)

        # phase 2 as _solve_via_dual runs it
        tol = _price_phase2(T, basis, r[owner])
        _run_lockstep(T, basis, owner, m, tol, pivots, live)
        slot = np.argsort(owner)
        b = _signs(c) * T[slot, -1, m:ncols]
        live &= _certified(A, r, c, b, T[slot, -1, -1], live)
    b[~live] = np.nan
    return b, pivots, live


def _certified(A, r, c, b, dual_value, live):
    """Which live problems pass _certify.

    A and c are a stack or shared, as in solve_lp_batch.  Each value c . b
    is _certify's dot product, bit for bit, so the value and gap tests
    decide as there, and _clearly_feasible settles most vertices at once;
    each other live problem gets _certify itself.
    """
    value = np.matmul(c[..., None, :], b[:, :, None])[:, 0, 0]
    ok = live & np.isfinite(value) & _gap_closed(value, dual_value) & _clearly_feasible(A, r, b)
    for p in np.flatnonzero(live & ~ok):
        try:
            _certify(A[p] if A.ndim == 3 else A, r[p], c[p] if c.ndim == 2 else c,
                     b[p], dual_value[p])
            ok[p] = True
        except NumericalBreakdown:
            pass
    return ok
