import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontier_adapt import LinearProgram, solve_lp
from frontier_adapt import lp as lp_module
from frontier_adapt.errors import NumericalBreakdown
from frontier_adapt.lp import INFEASIBLE, OPTIMAL, UNBOUNDED

from _oracles import random_bounded_lp, vertex_enum_min


def test_single_variable_envelope():
    lp = LinearProgram([1.0], [[1.0], [1.0]], [1.0, 2.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.variables[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(2.0, abs=1e-12)


def test_symmetric_cone_apex():
    lp = LinearProgram([2.0, 0.0], [[1.0, -1.0], [1.0, 1.0]], [0.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.variables, [0.0, 0.0], atol=1e-12)


def test_free_variable_negative_optimum():
    lp = LinearProgram([1.0], [[1.0]], [-5.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.variables[0] == pytest.approx(-5.0, abs=1e-12)


def test_unbounded():
    # maximize b0 in disguise: no row limits b0 from above
    lp = LinearProgram([-1.0], [[1.0]], [0.0])
    sol = solve_lp(lp)
    assert sol.status == UNBOUNDED
    assert np.isnan(sol.objective_value)


def test_infeasible():
    lp = LinearProgram([1.0], [[1.0], [-1.0]], [1.0, 0.0])  # b0 >= 1 and b0 <= 0
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE


def test_infeasible_two_vars():
    lp = LinearProgram(
        [0.0, 1.0],
        [[1.0, 1.0], [-1.0, -1.0]],
        [2.0, -1.0],  # b0+b1 >= 2 and b0+b1 <= 1
    )
    assert solve_lp(lp).status == INFEASIBLE


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    lp = random_bounded_lp(rng)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status == OPTIMAL
    assert a.iterations == b.iterations
    assert a.objective_value == b.objective_value
    assert np.array_equal(a.variables, b.variables)


def test_duplicate_constraints_degenerate():
    lp = LinearProgram(
        [1.0, 1.0],
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [1.0, 1.0, 2.0, 3.0],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_oracle_agreement_sample():
    rng = np.random.default_rng(42)
    for _ in range(100):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        oracle = vertex_enum_min(lp)
        assert oracle is not None
        assert sol.objective_value == pytest.approx(oracle, abs=1e-9, rel=1e-9)


def test_returned_point_feasible():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        slack = lp.constraint_matrix @ sol.variables - lp.constraint_rhs
        scale = np.maximum(
            1.0, np.abs(lp.constraint_matrix) @ np.abs(sol.variables) + np.abs(lp.constraint_rhs)
        )
        assert np.all(slack >= -1e-9 * scale)


def test_no_improving_coordinate_perturbation():
    # local optimality certificate: nudging any single coordinate while
    # staying feasible cannot beat the reported objective
    rng = np.random.default_rng(11)
    for _ in range(50):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        for j in range(lp.n_variables):
            for delta in (1e-6, -1e-6):
                b = sol.variables.copy()
                b[j] += delta
                if np.all(lp.constraint_matrix @ b - lp.constraint_rhs >= -1e-12):
                    assert lp.objective @ b >= sol.objective_value - 1e-9


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [[1.0]], [0.0])
    with pytest.raises(ValueError):
        LinearProgram([np.nan], [[1.0]], [0.0])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[np.inf]], [0.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_oracle_agreement_property(seed):
    rng = np.random.default_rng(seed)
    lp = random_bounded_lp(rng)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    oracle = vertex_enum_min(lp)
    assert oracle is not None
    assert abs(sol.objective_value - oracle) <= 1e-9 * max(1.0, abs(oracle))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), shift=st.floats(-5, 5))
def test_rhs_shift_along_row_combination(seed, shift):
    # shifting r by A @ d translates the feasible set by d, so the optimum
    # moves by exactly c @ d
    rng = np.random.default_rng(seed)
    lp = random_bounded_lp(rng)
    d = np.full(lp.n_variables, shift)
    shifted = LinearProgram(
        lp.objective, lp.constraint_matrix, lp.constraint_rhs + lp.constraint_matrix @ d
    )
    a = solve_lp(lp)
    b = solve_lp(shifted)
    assert b.objective_value == pytest.approx(
        a.objective_value + float(lp.objective @ d), rel=1e-8, abs=1e-8
    )


def test_degenerate_phase_one_artificial_left_basic():
    # objective = A^T mu with mu supported on a single row, so phase 1 of the
    # dual ends with an artificial still basic at zero level; the solver must
    # pivot it out instead of declaring the instance unbounded/infeasible
    lp = LinearProgram(
        [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [-1.0, -1.0, -2.0]
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-12)
    assert np.all(lp.constraint_matrix @ sol.variables >= lp.constraint_rhs - 1e-9)


# Beale's cycling example (min c.x, Ax = b, x >= 0) as a solve_lp instance:
# the solver's dual tableau is A' lam = c, so the example's columns become
# rows.  This row order makes Dantzig pricing stall past _STALL_LIMIT.
_BEALE = np.array(
    [
        [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0, 0.0],
        [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0, 0.0],
    ]
)
_BEALE_ROWS = [5, 6, 2, 3, 0, 1, 4]


def _beale_lp():
    rows = _BEALE[:3, :7].T[_BEALE_ROWS]
    return LinearProgram(_BEALE[:3, 7], rows, -_BEALE[3, :7][_BEALE_ROWS])


def _envelope_lp(t, y, degree):
    """The LP fit_local builds: shifted responses above a power basis in t."""
    powers = np.vander(t, degree + 1, increasing=True)
    return LinearProgram(powers.sum(axis=0), powers, y - y.max())


def _golden_lps():
    """Seeded envelope LPs for degree 0..4 and m = d+2..2000, plus
    duplicated rows, near-tied ratios and the stalling Beale instance."""
    rng = np.random.default_rng(20261018)
    lps = []
    for degree in range(5):
        for m in (degree + 2, degree + 3, 17, 160, 2000):
            t = np.linspace(-1.0, 1.0, m)
            trend = np.polynomial.polynomial.polyval(t, rng.normal(size=degree + 1))
            y = trend - rng.exponential(size=m) ** 2
            lps.append(_envelope_lp(t, y, degree))
            # every third row repeated: duplicate constraints tie exactly
            dup = np.repeat(np.arange(m), np.where(np.arange(m) % 3 == 0, 2, 1))
            lps.append(_envelope_lp(t[dup], y[dup], degree))
            # responses on a polynomial up to 1e-13: ratios tie within the band
            y_tied = trend - 1e-13 * rng.random(m) * (rng.random(m) < 0.5)
            lps.append(_envelope_lp(t, y_tied, degree))
    lps.append(_beale_lp())
    return lps


def _digest(solutions):
    h = hashlib.sha256()
    for sol in solutions:
        h.update(np.asarray(sol.variables, dtype=float).tobytes())
        h.update(np.float64(sol.objective_value).tobytes())
        h.update(sol.status.encode())
        h.update(int(sol.iterations).to_bytes(8, "little"))
    return h.hexdigest()


# Pins every bit of every vertex, objective, status and pivot count on the
# golden set.  A pure speed change to the solver must leave it unchanged; a
# different BLAS may round the solver's dot products differently.
GOLDEN_DIGEST = "c509c74f252eb579d6975ef194137181fc962fa142003e78ebd19979de6f4584"


def test_golden_solve_lp_digest():
    assert _digest([solve_lp(lp) for lp in _golden_lps()]) == GOLDEN_DIGEST


def test_golden_set_trips_bland_switch(monkeypatch):
    beale = _beale_lp()
    sol = solve_lp(beale)
    assert sol.status == OPTIMAL and sol.iterations > lp_module._STALL_LIMIT
    # without the switch to Bland's rule Dantzig pricing cycles to the limit
    monkeypatch.setattr(lp_module, "_STALL_LIMIT", 10**9)
    with pytest.raises(NumericalBreakdown, match="pivot limit"):
        solve_lp(beale)


def test_run_simplex_all_pivots_below_tol_breaks_down():
    T = np.array([[1e-13, 1.0], [-1.0, 2.0], [-1.0, 0.0]])
    with pytest.raises(NumericalBreakdown, match="below"):
        lp_module._run_simplex(T, np.array([1, 2]), 1, 1e-9)


def test_run_simplex_unbounded_column():
    T = np.array([[-1.0, 1.0], [0.0, 2.0], [-1.0, 0.0]])
    assert lp_module._run_simplex(T, np.array([1, 2]), 1, 1e-9) == (UNBOUNDED, 0)


def test_run_simplex_nan_rhs_breaks_down():
    T = np.array([[1.0, np.nan], [2.0, 4.0], [-1.0, 0.0]])
    with pytest.raises(NumericalBreakdown, match="ratio test"):
        lp_module._run_simplex(T, np.array([1, 2]), 1, 1e-9)


def test_run_simplex_nan_pivot_entry_never_leaves():
    T = np.array([[np.nan, 1.0], [2.0, 4.0], [-1.0, 0.0]])
    basis = np.array([1, 2])
    assert lp_module._run_simplex(T, basis, 1, 1e-9) == (OPTIMAL, 1)
    assert basis.tolist() == [1, 0]
