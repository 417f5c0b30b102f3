"""Envelope fit tests: exactness on polynomial data, feasibility, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontier_adapt.errors import NumericalBreakdown, WindowTooSmall
from frontier_adapt.local_poly import (
    Sample,
    estimate_at,
    estimate_curve,
    fit_local,
    spread_overflows,
    window_indices,
)
from frontier_adapt.lp import LinearProgram, solve_lp


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


def test_estimate_curve_nan_and_empty():
    sample = Sample(np.zeros(30))
    grid = np.array([0.01, 0.5, 0.99])
    out = estimate_curve(sample, grid, 0.05, 1)
    assert np.isnan(out[0]) and np.isnan(out[2])
    assert out[1] == pytest.approx(0.0, abs=1e-9)
    assert estimate_curve(sample, [], 0.1, 1).size == 0


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
