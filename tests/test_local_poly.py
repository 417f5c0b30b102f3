"""Envelope fit tests: exactness on polynomial data, feasibility, invariances."""

import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontier_adapt import local_poly
from frontier_adapt.adapt import EstimatorConfig, build_grid
from frontier_adapt.errors import NumericalBreakdown, WindowTooSmall
from frontier_adapt.local_poly import (
    Sample,
    estimate_at,
    fit_local,
    spread_overflows,
    window_bounds,
    window_indices,
)
from frontier_adapt.lp import OPTIMAL, LinearProgram, solve_lp
from frontier_adapt.simkit import ErrorModel, alpha_profile, builtin_f, gen_sample


def _line_envelope_oracle(xw, yw):
    """Min-sum line above the points, by enumerating two-point supports.

    The fit LP has two free variables, so its optimum sits at a vertex where
    two constraints are active: the optimal line touches at least two points.
    """
    best = None
    m = xw.size
    for i in range(m):
        for j in range(i + 1, m):
            slope = (yw[j] - yw[i]) / (xw[j] - xw[i])
            vals = yw[i] + slope * (xw - xw[i])
            if np.all(vals >= yw - 1e-9):
                s = float(vals.sum())
                if best is None or s < best:
                    best = s
    return best


def test_window_indices_examples():
    # n=10, x=0.5, h=0.25: design points 0.3..0.7 -> j=3..7
    idx = window_indices(10, 0.5, 0.25)
    assert idx.tolist() == [2, 3, 4, 5, 6]
    assert window_indices(10, 0.05, 0.01).tolist() == []
    # endpoints land exactly on the window boundary and are kept
    assert window_indices(4, 0.5, 0.25).tolist() == [0, 1, 2]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 500),
    x=st.floats(0.0, 1.0),
    h=st.one_of(st.floats(1e-6, 1.0), st.floats(1.0, 1e308), st.just(math.inf)),
)
def test_window_bounds_match_brute_force(n, x, h):
    # the design points j with |j/n - x| <= h, with the rule's 1e-9 slack
    kept = [j - 1 for j in range(1, n + 1) if n * (x - h) - 1e-9 <= j <= n * (x + h) + 1e-9]
    start, stop = window_bounds(n, x, h)
    assert list(range(start, stop)) == kept
    assert window_indices(n, x, h).tolist() == kept


@pytest.mark.parametrize("h", [math.inf, 1e308, np.float64(1e308), 2.0, 3.0, 10.0])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_bandwidth_past_the_design_fits_the_whole_design(h, degree):
    sample = Sample([0.0, 1.0, 2.0, 3.0, 1.0])
    fit = fit_local(sample, 0.5, h, degree)
    assert fit.window_size == 5
    assert np.all(np.isfinite(fit.coeffs))
    assert np.all(fit(sample.xs()) >= sample.ys - 1e-9)
    assert estimate_at(sample, 0.5, h, degree) == fit.coeffs[0]
    # past the design the fit no longer depends on h; a huge h must not
    # squeeze t to zeros and flatten the fit to a constant
    wide = fit_local(sample, 0.5, 2.0, degree)
    assert fit.coeffs.tobytes() == wide.coeffs.tobytes()
    assert fit.objective_value == wide.objective_value
    if degree == 1:
        assert fit.coeffs.tolist() == [1.5, 5.0]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(5, 400),
    x=st.floats(0.0, 1.0),
    h1=st.floats(0.01, 0.5),
    factor=st.floats(1.0, 4.0),
)
def test_window_nesting(n, x, h1, factor):
    small = window_indices(n, x, h1)
    large = window_indices(n, x, h1 * factor)
    assert set(small.tolist()) <= set(large.tolist())
    # windows are contiguous index ranges
    if large.size:
        assert large.tolist() == list(range(large[0], large[-1] + 1))


def test_quadratic_data_recovered_exactly():
    n = 50
    xs = np.arange(1, n + 1) / n
    sample = Sample(xs**2)
    fit = fit_local(sample, 0.5, 0.3, 2)
    assert fit.coeffs == pytest.approx([0.25, 1.0, 1.0], abs=1e-8)
    assert estimate_at(sample, 0.5, 0.3, 2) == pytest.approx(0.25, abs=1e-8)


def test_cubic_data_recovered_exactly():
    n = 80
    xs = np.arange(1, n + 1) / n
    sample = Sample(xs**3 - xs)
    x0 = 0.4
    fit = fit_local(sample, x0, 0.25, 3)
    expected = [x0**3 - x0, 3 * x0**2 - 1, 3 * x0, 1.0]
    assert fit.coeffs == pytest.approx(expected, abs=1e-7)


def test_constant_data_degree_zero():
    sample = Sample(np.full(20, -3.0))
    fit = fit_local(sample, 0.5, 0.2, 0)
    assert fit.coeffs == pytest.approx([-3.0], abs=1e-12)


def test_degree_one_matches_vertex_oracle():
    rng = np.random.default_rng(7)
    n = 40
    xs = np.arange(1, n + 1) / n
    for _ in range(30):
        ys = rng.normal(size=n)
        sample = Sample(ys)
        x0 = rng.uniform(0.2, 0.8)
        h = rng.uniform(0.08, 0.3)
        idx = window_indices(n, x0, h)
        if idx.size < 3:
            continue
        fit = fit_local(sample, x0, h, 1)
        oracle = _line_envelope_oracle(xs[idx], ys[idx])
        assert oracle is not None
        assert fit.objective_value == pytest.approx(oracle, rel=1e-7, abs=1e-7)


def test_fit_is_feasible_and_objective_dominates_data():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = rng.integers(10, 120)
        ys = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        sample = Sample(ys)
        x0 = rng.uniform(0.0, 1.0)
        h = rng.uniform(0.05, 0.6)
        degree = int(rng.integers(0, 4))
        idx = window_indices(n, x0, h)
        if idx.size < degree + 2:
            continue
        fit = fit_local(sample, x0, h, degree)
        vals = fit((idx + 1) / n)
        assert np.all(vals >= ys[idx] - 1e-9)
        assert fit.objective_value >= ys[idx].sum() - 1e-9
        assert fit.objective_value == pytest.approx(vals.sum(), rel=1e-9, abs=1e-9)


def test_shift_equivariance():
    rng = np.random.default_rng(5)
    ys = rng.normal(size=60)
    base = fit_local(Sample(ys), 0.5, 0.2, 2)
    shifted = fit_local(Sample(ys + 17.25), 0.5, 0.2, 2)
    assert shifted.coeffs[0] - base.coeffs[0] == pytest.approx(17.25, abs=1e-12)
    assert shifted.coeffs[1:] == pytest.approx(base.coeffs[1:], abs=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(6)
    ys = rng.normal(size=60)
    base = fit_local(Sample(ys), 0.4, 0.25, 2)
    # power-of-two scaling commutes with the solve exactly
    times4 = fit_local(Sample(4.0 * ys), 0.4, 0.25, 2)
    assert np.array_equal(times4.coeffs, 4.0 * base.coeffs)
    times5 = fit_local(Sample(5.0 * ys), 0.4, 0.25, 2)
    np.testing.assert_allclose(times5.coeffs, 5.0 * base.coeffs, rtol=1e-12, atol=1e-12)


def test_window_too_small_boundary():
    sample = Sample(np.zeros(100))
    # h = 0.02 catches 5 design points around 0.5: enough for degree 3,
    # not for degree 4
    assert window_indices(100, 0.5, 0.02).size == 5
    fit_local(sample, 0.5, 0.02, 3)
    with pytest.raises(WindowTooSmall):
        fit_local(sample, 0.5, 0.02, 4)
    with pytest.raises(WindowTooSmall):
        fit_local(sample, 0.5, 1e-4, 0)


def test_fit_argument_validation():
    sample = Sample(np.zeros(10))
    with pytest.raises(ValueError):
        fit_local(sample, 0.5, 0.2, -1)
    with pytest.raises(ValueError):
        fit_local(sample, 0.5, 0.0, 1)
    with pytest.raises(ValueError):
        Sample([1.0])
    with pytest.raises(ValueError):
        Sample([1.0, np.nan])


def test_overflowing_response_spread_is_numerical_breakdown():
    # every response is finite, but y - max(y) overflows to -inf
    sample = Sample([1e308, -1e308, 0.0, -1.0])
    with pytest.raises(NumericalBreakdown):
        fit_local(sample, 0.5, 0.5, 1)


def test_spread_overflows():
    big = np.finfo(float).max
    assert spread_overflows(1e308, -1e308)
    assert spread_overflows(big, -1e300)
    assert not spread_overflows(big, 0.0)
    assert not spread_overflows(-1.0, -big)
    assert not spread_overflows(1.0, -1e307)
    assert not spread_overflows(1e308, 1e-308)


@pytest.mark.parametrize("degree", range(6))
def test_fit_matches_vandermonde_reference_bitwise(degree):
    # fit_local builds its power basis by hand; the same LP through
    # np.vander must give the same vertex, bit for bit
    rng = np.random.default_rng(degree)
    sample = Sample(np.sin(np.arange(1, 301) / 30.0) - rng.exponential(size=300))
    for x, h in ((0.5, 0.1), (0.02, 0.05), (0.97, 0.2)):
        fit = fit_local(sample, x, h, degree)
        idx = window_indices(sample.n, x, h)
        t = ((idx + 1) / sample.n - x) / h
        powers = np.vander(t, degree + 1, increasing=True)
        yw = sample.ys[idx]
        sol = solve_lp(LinearProgram(powers.sum(axis=0), powers, yw - yw.max()))
        coeffs = sol.variables / h ** np.arange(degree + 1)
        coeffs[0] += yw.max()
        assert fit.coeffs.tobytes() == coeffs.tobytes()
        estimate = estimate_at(sample, x, h, degree)
        assert np.float64(estimate).tobytes() == fit.coeffs[:1].tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_envelope_dominates_window_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 80))
    ys = rng.normal(size=n)
    x0 = float(rng.uniform(0.25, 0.75))
    h = float(rng.uniform(0.15, 0.4))
    degree = int(rng.integers(0, 3))
    idx = window_indices(n, x0, h)
    if idx.size < degree + 2:
        return
    fit = fit_local(Sample(ys), x0, h, degree)
    assert np.all(fit((idx + 1) / n) >= ys[idx] - 1e-8)


def test_a_runaway_fit_stops_at_the_pivot_cap_in_seconds():
    # degree 20 over the whole design of n = 2000 (the config allows degree
    # 10 at most): phase 2 at x = 0.35 does not finish.  The cap of
    # 10 (rows + cols) stops it after about 20,000 pivots, 2.1 s on a 2-core
    # x86-64; a cap of 200 (rows + cols) let it run 408,000 pivots, 45 s
    sample = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 2000, (0, 0))
    start = time.perf_counter()
    with pytest.raises(NumericalBreakdown, match="pivot limit"):
        fit_local(sample, 0.35, 0.67, 20)
    assert time.perf_counter() - start < 10.0


def test_fits_near_the_largest_float_are_finite_or_fail(monkeypatch):
    # responses spread over 1.7e308 overflow inside the tableau; the solver
    # must report that as a failure, never as an "optimal" inf/NaN vertex
    sample = Sample(-1.7e308 * np.random.default_rng(0).uniform(size=50))
    solutions = []

    def recording_solve(lp):
        solutions.append(solve_lp(lp))
        return solutions[-1]

    monkeypatch.setattr(local_poly, "solve_lp", recording_solve)
    for h in (0.05, 0.1, 0.2, 0.4, 0.8):
        for x in sample.xs():
            try:
                estimate_at(sample, x, h, 2)
            except (NumericalBreakdown, WindowTooSmall):
                pass
    optimal = [sol for sol in solutions if sol.status == OPTIMAL]
    assert optimal
    for sol in optimal:
        assert np.all(np.isfinite(sol.variables)) and np.isfinite(sol.objective_value)
    # a NaN reduced cost stops the simplex at once instead of at its pivot cap
    with pytest.raises(NumericalBreakdown) as exc:
        fit_local(sample, 0.5, 0.2, 2)
    assert "pivot limit" not in str(exc.value)


def _column_basis(t, degree):
    """The power basis as the columns of a C-ordered (m, degree + 1) array,
    one product per column, and its column sums by sum(axis=0)."""
    powers = np.empty((t.size, degree + 1))
    powers[:, 0] = 1.0
    for j in range(1, degree + 1):
        np.multiply(powers[:, j - 1], t, out=powers[:, j])
    return powers, powers.sum(axis=0)


@pytest.mark.parametrize("m", [2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 1000, 4097, 31249, 100000])
def test_power_basis_objective_equals_the_column_sums(m):
    # the row-major basis summed along its rows by np.add.accumulate, and
    # the constant row's sum set to m, equal the column sums bit for bit
    rng = np.random.default_rng(m)
    n = 2 * m + 3
    windows = [
        np.linspace(-1.0, 1.0, m),
        (np.arange(3, m + 3) / n - 0.37) / 0.31,
        rng.uniform(-1.0, 1.0, size=m),
        -np.abs(rng.normal(size=m)) * 1e-3,
    ]
    for t in windows:
        for degree in range(10):
            powers, objective = local_poly._power_basis(t, degree)
            columns, sums = _column_basis(t, degree)
            assert powers.shape == (degree + 1, m)
            assert powers.tobytes() == np.ascontiguousarray(columns.T).tobytes()
            assert objective.tobytes() == sums.tobytes(), (m, degree)


@pytest.mark.parametrize("degree", [0, 1, 2, 5])
def test_batched_lps_are_the_scalar_lps(monkeypatch, degree):
    # _window_lps stacks the LPs that _solve_window hands to solve_lp, bit
    # for bit: basis, objective and shifted responses
    lps = []

    def recording_solve(lp):
        lps.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(local_poly, "solve_lp", recording_solve)
    sample = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 400, (0, 0))
    h = 0.06
    xs = sample.xs()[50:340:17]
    bounds = np.array([window_bounds(sample.n, x, h) for x in xs])
    meff = int(bounds[0, 1] - bounds[0, 0])
    assert (bounds[:, 1] - bounds[:, 0] == meff).all()
    fits, powers, objective, rhs, shift = local_poly._window_lps(
        sample, xs, bounds[:, 0], meff, h, degree)
    assert fits.all() and powers.shape == (xs.size, degree + 1, meff)
    for i, x in enumerate(xs):
        lps.clear()
        estimate_at(sample, x, h, degree)
        (lp,) = lps
        assert lp.constraint_matrix.tobytes() == powers[i].T.tobytes()
        assert lp.objective.tobytes() == objective[i].tobytes()
        assert lp.constraint_rhs.tobytes() == rhs[i].tobytes()


def _wide_window_digest():
    """Vertex bytes, pivot counts and breakdowns of the envelope LPs of rows
    k = 7..9 at 19 points of an n = 100,000 sample: windows of about
    25,600 to 100,000 points."""
    sample = gen_sample(builtin_f("f2"), ErrorModel("neggamma", spatial=alpha_profile),
                        100_000, (0, 0))
    cfg = EstimatorConfig()
    grid = build_grid(sample.n, cfg.h0_exponent, cfg.rho)
    digest = hashlib.sha256()
    for k in (7, 8, 9):
        for x in np.linspace(0.05, 0.95, 19):
            try:
                sol, shift, scale, meff = local_poly._solve_window(
                    sample, x, grid.bandwidths[k], cfg.beta_star)
            except NumericalBreakdown as exc:
                digest.update(f"breakdown {exc}".encode())
                continue
            digest.update(sol.variables.tobytes())
            digest.update(f"{sol.status} {sol.iterations} {meff}".encode())
    return digest.hexdigest()


# Pins the wide-window envelope LPs, where the pivot runs in column blocks
# and the certificate can take its shortcut.
WIDE_WINDOW_DIGEST = "3378b393155eb2bb126dea41419e4028cd0a6b3342e9deb7eae46cecd609e820"


def test_wide_window_digest():
    assert _wide_window_digest() == WIDE_WINDOW_DIGEST
