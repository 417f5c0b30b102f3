"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately brute-force: exhaustive vertex enumeration
instead of simplex, so the two implementations share no code paths.  The
one exception, clear_phase1_memo, resets the solver for cold-solve tests.
"""

import itertools

import numpy as np

from frontier_adapt import LinearProgram
from frontier_adapt import lp as lp_module


def vertex_enum_min(lp: LinearProgram, tol=1e-9):
    """Minimum objective over all feasible basic points of {A b >= r}.

    Solves every (n_variables)-subset of constraints as an equality system,
    keeps the solutions satisfying all constraints, and takes the smallest
    objective.  Returns None when no feasible vertex exists.
    """
    A, r, c = lp.constraint_matrix, lp.constraint_rhs, lp.objective
    m, nv = A.shape
    best = None
    for subset in itertools.combinations(range(m), nv):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        b = np.linalg.solve(sub, r[list(subset)])
        scale = np.maximum(1.0, np.abs(A) @ np.abs(b) + np.abs(r))
        if np.all(A @ b - r >= -tol * scale):
            value = float(c @ b)
            if best is None or value < best:
                best = value
    return best


def random_bounded_lp(rng, max_vars=3, max_rows=6):
    """Random LP that is feasible and bounded by construction.

    Feasible: the rhs is A b0 minus nonnegative slack for a random b0.
    Bounded: the objective is a nonnegative combination of constraint rows,
    so the dual is feasible.  Both together guarantee a finite optimum
    attained at a vertex whenever A has full column rank, which the loop
    enforces.
    """
    while True:
        nv = int(rng.integers(1, max_vars + 1))
        m = int(rng.integers(nv, max_rows + 1))
        A = rng.normal(size=(m, nv))
        if np.linalg.matrix_rank(A) < nv:
            continue
        b0 = rng.normal(size=nv)
        r = A @ b0 - rng.exponential(1.0, size=m)
        mu = rng.exponential(1.0, size=m) * (rng.random(m) < 0.7)
        if not mu.any():
            mu[int(rng.integers(m))] = 1.0
        c = A.T @ mu
        return LinearProgram(objective=c, constraint_matrix=A, constraint_rhs=r)


def clear_phase1_memo():
    """Empty the solver's one-slot phase-1 memo: the next solve runs phase 1."""
    lp_module._phase1_slot = (None, None)
