"""Grid, critical values, Lepski selection, and the adaptive pipeline."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frontier_adapt import adapt, local_poly, lp
from frontier_adapt.adapt import (
    DEFAULT_J_BETA,
    CriticalValues,
    EnvelopeRows,
    EstimatorConfig,
    _truncate_monotonize,
    adaptive_estimate,
    build_grid,
    critical_values_lq,
    critical_values_pointwise,
    iu_n,
    lepski_select,
)
from frontier_adapt.errors import DomainError, InvalidConfig, NumericalBreakdown
from frontier_adapt.local_poly import Sample
from frontier_adapt.simkit import ERROR_KINDS, ErrorModel, alpha_profile, builtin_f, gen_sample
from frontier_adapt.tail import TailFunction, estimate_tail_at


def test_build_grid_examples():
    g = build_grid(200, 0.5, 2.0)
    assert g.h0 == pytest.approx(0.0707107, rel=1e-5)
    assert g.K == 3
    assert g.bandwidths.size == g.K + 2
    assert np.all(np.diff(g.bandwidths) > 0)
    assert build_grid(600, 0.4, 1.5).K == 9
    # rho chosen as n^(1 - h0_exponent) makes the log ratio exactly 1
    assert build_grid(100, 0.4, 100.0**0.6).K == 1


def test_build_grid_validation():
    with pytest.raises(InvalidConfig):
        build_grid(1, 0.4, 2.0)
    with pytest.raises(InvalidConfig):
        build_grid(100, 0.0, 2.0)
    with pytest.raises(InvalidConfig):
        build_grid(100, 1.0, 2.0)
    with pytest.raises(InvalidConfig):
        build_grid(100, 0.4, 1.0)
    with pytest.raises(InvalidConfig):
        build_grid(100, 0.4, math.inf)


def test_build_grid_bounds_the_bandwidth_count():
    # a rho just above 1 makes K astronomical; it is refused before the
    # grid is allocated (K = 2.2e15 would ask numpy for 15.7 PiB)
    for rho in (1.000000000000001, 1.001):
        with pytest.raises(InvalidConfig, match="K = "):
            build_grid(60, 0.4, rho)
    assert build_grid(60, 0.4, 1.01).K == 246
    rho = math.exp(0.6 * math.log(60) / (adapt.MAX_K + 0.5))
    assert build_grid(60, 0.4, rho).K == adapt.MAX_K
    # the default rho stays far below the bound at any practical n
    assert build_grid(100_000, 0.4, 2.0).K <= 10


def test_config_validation():
    assert EstimatorConfig().j_beta == DEFAULT_J_BETA == 1
    for bad in (
        dict(beta_star=-1),
        dict(beta_star=11),
        dict(beta_star=10**30),
        dict(h0_exponent=1.2),
        dict(rho=0.5),
        dict(m_exponent=0.0),
        dict(c_beta=0.0),
        dict(j_beta=0),
        dict(j_beta=None),
        dict(q=0.5),
        dict(q=math.inf),
        dict(q=math.nan),
        # wrong types, non-finite values and integers that no float holds
        dict(beta_star=True),
        dict(beta_star=2.0),
        dict(h0_exponent="0.4"),
        dict(rho=[2]),
        dict(rho=math.inf),
        dict(m_exponent={}),
        dict(c_beta=None),
        dict(c_beta=math.inf),
        dict(j_beta=10**400),
        dict(q="1"),
        dict(q=True),
        dict(seed=-1),
        dict(seed=1.5),
        dict(seed="x"),
    ):
        with pytest.raises(InvalidConfig):
            EstimatorConfig(**bad)
    # numpy scalars and integers for float settings are real numbers
    EstimatorConfig(beta_star=np.int64(1), rho=np.float64(3.0), c_beta=1, q=2, seed=np.int64(5))
    assert EstimatorConfig(beta_star=10).beta_star == 10
    # the quadrature tolerance is a constant of iu_n, not a setting
    with pytest.raises(TypeError):
        EstimatorConfig(quadrature_tol=1e-8)


def test_pointwise_critical_values_inverse_bandwidth_form():
    # alpha=1, b=0, c=1, J=1 gives zeta_k = 16 log(n) / (n h_k) once the
    # tail-function argument clears e
    g = build_grid(100_000, 0.5, 2.0)
    cfg = EstimatorConfig(c_beta=1.0, j_beta=1)
    cvs = critical_values_pointwise(g, TailFunction(1.0, 0.0), cfg)
    logn = math.log(g.n)
    for k in range(g.K):
        assert g.n * g.bandwidths[k] / (4.0 * logn) >= math.e
        expected = 16.0 * logn / (g.n * g.bandwidths[k])
        assert cvs.raw[k] == pytest.approx(expected, rel=1e-12)
    assert cvs.raw[g.K] == 0.0
    np.testing.assert_array_equal(
        cvs.truncated, np.minimum.accumulate(np.minimum(cvs.raw, 1.0))
    )


def test_pointwise_critical_value_hand_computed():
    # n=1000, h_0=0.1, alpha=2, c=1, J=2: argument 3.6192, zeta = 2.1026
    g = build_grid(1000, 2.0 / 3.0, 2.0)
    assert g.bandwidths[0] == pytest.approx(0.1, rel=1e-12)
    cfg = EstimatorConfig(c_beta=1.0, j_beta=2)
    cvs = critical_values_pointwise(g, TailFunction(0.5, 0.0), cfg)
    assert cvs.raw[0] == pytest.approx(2.1026, rel=1e-3)
    assert cvs.truncated[0] == 1.0


def test_pointwise_critical_value_clamps_small_arguments():
    g = build_grid(400, 0.4, 2.0)
    cvs = critical_values_pointwise(g, TailFunction(1.0, 0.0), EstimatorConfig())
    assert cvs.raw[0] == 1.0


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=2, max_size=12)
)
def test_truncation_monotonization_contract(raw):
    raw = np.asarray(raw)
    raw[-1] = 0.0
    t = _truncate_monotonize(raw)
    assert np.all(t <= np.minimum(raw, 1.0) + 1e-15)
    assert np.all(np.diff(t) <= 0.0)
    assert np.all((t >= 0.0) & (t <= 1.0))
    assert t[-1] == 0.0


def test_iu_n_exponential_closed_form():
    # alpha=1, b=0, q=1: the derivative inside is 1/s, so the integral is
    # (exp(-lo) - exp(-hi)) / s
    n = 10_000
    tf = TailFunction(1.0, 0.0)
    for s in (10.0, 50.0, 1e3, 1e6):
        lo = float(n) ** -2.0
        hi = min(math.sqrt(n), s / math.e**2)
        expected = (math.exp(-lo) - math.exp(-hi)) / s
        assert iu_n(s, 1.0, tf, n) == pytest.approx(expected, rel=1e-6)


def test_iu_n_scaling_and_q2_reduction():
    n = 10_000
    tf = TailFunction(1.0, 0.0)
    # with the sqrt(n) cap binding, doubling s halves the value exactly
    a = iu_n(1000.0, 1.0, tf, n)
    b = iu_n(2000.0, 1.0, tf, n)
    assert b == pytest.approx(a / 2.0, rel=1e-9)
    # q=2 with inv_alpha=1/2 integrates the same 1/s derivative, so the
    # root brings the value to ~ s^(-1/2)
    v = iu_n(1e4, 2.0, TailFunction(0.5, 0.0), n)
    assert v == pytest.approx(1e-2, rel=1e-3)


def test_iu_n_domain_errors():
    tf = TailFunction(1.0, 0.0)
    with pytest.raises(DomainError):
        iu_n(-1.0, 1.0, tf, 100)
    with pytest.raises(InvalidConfig):
        iu_n(10.0, 0.5, tf, 100)
    # lo = n^(-2 inv_alpha) exceeds the clipped upper limit for small s
    with pytest.raises(DomainError):
        iu_n(1.0, 1.0, TailFunction(0.1, 0.0), 100)
    # with b > 0 a large q overflows the integrand's (log(s/y))^(q b - 1)
    with pytest.raises(DomainError, match="overflow"):
        iu_n(1e3, 1e20, TailFunction(1.0, 0.5), 10_000)


def test_lq_critical_values_inverse_bandwidth_form():
    g = build_grid(1_000_000, 0.5, 2.0)
    cfg = EstimatorConfig(c_beta=1.0, j_beta=1)
    cvs = critical_values_lq(g, TailFunction(1.0, 0.0), 1.0, cfg)
    for k in range(g.K):
        expected = math.sqrt(5.0) * 6.0 / (g.n * g.bandwidths[k])
        assert cvs.raw[k] == pytest.approx(expected, rel=1e-6)
    assert cvs.raw[g.K] == 0.0
    assert cvs.kind == "lq" and cvs.q == 1.0


def test_lq_critical_values_degenerate_domain_truncates():
    g = build_grid(100, 0.4, 2.0)
    cvs = critical_values_lq(g, TailFunction(0.1, 0.0), 1.0, EstimatorConfig())
    assert cvs.raw[0] == 1.0


def _cvs_from_truncated(t):
    t = np.asarray(t, dtype=float)
    return CriticalValues(raw=t.copy(), truncated=t, kind="pointwise")


def test_lepski_select_crafted_sequences():
    zt = _cvs_from_truncated([0.1, 0.1, 0.1, 0.0])
    assert lepski_select(np.full(4, 0.7), zt) == 3
    zeros = _cvs_from_truncated([0.0, 0.0, 0.0, 0.0])
    assert lepski_select(np.array([0.0, 0.1, 0.1, 0.1]), zeros) == 0
    # first pair within tolerance, k=1 violates against l=0
    assert lepski_select(np.array([0.0, 0.05, 0.5, 0.5]), zt) == 1
    # a NaN distance never fires; an infinite one is skipped too, unlike in
    # the tail selectors
    assert lepski_select(np.array([0.0, np.nan, 0.1, 0.1]), zeros) == 1
    with np.errstate(invalid="ignore"):
        assert lepski_select(np.array([0.0, np.inf, 0.0, 0.0]), zeros) == 3
        assert lepski_select(np.array([np.inf, -np.inf, np.inf, np.inf]), zeros) == 3
    with pytest.raises(ValueError):
        lepski_select(np.zeros(3), zt)


def test_lepski_select_lq_masks_nan():
    zt = _cvs_from_truncated([0.05, 0.05, 0.0])
    base = np.zeros(10)
    moved = np.full(10, 0.4)
    moved[:5] = np.nan
    curves = np.vstack([base, base, moved])
    # distance uses only the 5 overlapping points, still a clear violation
    assert lepski_select(curves, zt, q=1.0) == 1
    all_nan = np.vstack([base, np.full(10, np.nan), np.full(10, np.nan)])
    assert lepski_select(all_nan, zt, q=1.0) == 2
    # an overflowing L_q distance is skipped like an undefined one, without
    # a RuntimeWarning (the test configuration turns those into errors)
    huge = np.vstack([base, np.full(10, 1e200), np.full(10, 1e200)])
    assert lepski_select(huge, zt, q=2.0) == 2
    assert lepski_select(huge, zt, q=1.0) == 0
    assert lepski_select(np.vstack([base, base + 2.0, base + 2.0]), zt, q=1e20) == 2


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bump=st.floats(0.0, 0.5, allow_nan=False),
)
def test_lepski_enlarged_tolerance_never_selects_earlier(seed, bump):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 7))
    ests = rng.normal(size=K + 1)
    raw = np.abs(rng.normal(size=K + 1))
    raw[K] = 0.0
    small = _truncate_monotonize(raw)
    big = _truncate_monotonize(raw + np.append(np.full(K, bump), 0.0))
    k_small = lepski_select(ests, _cvs_from_truncated(small))
    k_big = lepski_select(ests, _cvs_from_truncated(big))
    assert k_big >= k_small


def test_noiseless_polynomial_recovered_both_modes():
    f = lambda x: -((x - 0.3) ** 2) - 1.0  # noqa: E731
    sample = gen_sample(f, ErrorModel("zero"), 80, seed=1)
    val, diag = adaptive_estimate(sample, EstimatorConfig(), x=0.5)
    assert val == pytest.approx(f(0.5), abs=1e-6)
    assert diag.mode == "pointwise"
    vals, diag = adaptive_estimate(
        sample, EstimatorConfig(q=1.0), grid=sample.xs()
    )
    assert diag.mode == "lq"
    np.testing.assert_allclose(vals, f(sample.xs()), atol=1e-6)


def test_adaptive_estimate_argument_contract():
    sample = gen_sample(builtin_f("const"), ErrorModel("negexp"), 50, seed=2)
    with pytest.raises(InvalidConfig):
        adaptive_estimate(sample, EstimatorConfig())
    with pytest.raises(InvalidConfig):
        adaptive_estimate(sample, EstimatorConfig(), x=0.5, grid=[0.5])


@pytest.mark.parametrize("cfg", [EstimatorConfig(), EstimatorConfig(q=1.0)])
def test_non_finite_point_is_invalid_config(cfg):
    sample = gen_sample(builtin_f("const"), ErrorModel("negexp"), 50, seed=2)
    # a point outside the design's span [0, 1] is rejected like a non-finite one
    for where in (dict(x=math.nan), dict(x=math.inf), dict(grid=[0.5, math.inf]),
                  dict(grid=[math.nan]), dict(x=5.0), dict(x=-1.0),
                  dict(grid=[0.5, 1.0 + 1e-9]), dict(grid=[-1e-12, 0.5])):
        with pytest.raises(InvalidConfig, match="finite"):
            adaptive_estimate(sample, cfg, **where)
    grid = build_grid(sample.n, cfg.h0_exponent, cfg.rho)
    for x in (math.nan, 5.0, -1.0):
        with pytest.raises(InvalidConfig, match="finite"):
            estimate_tail_at(sample, x, grid, cfg.m_exponent)
    values, _ = adaptive_estimate(sample, cfg, grid=[0.0, 1.0])
    assert values.shape == (2,)


def _count_fits(monkeypatch):
    """Bandwidths of every envelope fit adaptive_estimate runs, in order:
    the per-point fits and the solved fits of each lockstep batch."""
    hs = []
    fit = adapt.estimate_at
    batch = adapt.estimate_windows

    def counted(sample, x, h, degree):
        hs.append(h)
        return fit(sample, x, h, degree)

    def counted_batch(sample, xs, starts, meff, h, degree):
        values, iterations, solved = batch(sample, xs, starts, meff, h, degree)
        hs.extend([h] * int(solved.sum()))
        return values, iterations, solved

    monkeypatch.setattr(adapt, "estimate_at", counted)
    monkeypatch.setattr(adapt, "estimate_windows", counted_batch)
    return hs


@pytest.mark.parametrize("n", [3, 200])
def test_lq_selection_fits_only_the_rows_it_reads(monkeypatch, n):
    hs = _count_fits(monkeypatch)
    sample = gen_sample(builtin_f("f2"), ErrorModel("negexp"), n, seed=0)
    values, diag = adaptive_estimate(sample, EstimatorConfig(q=1.0), grid=sample.xs())
    K = diag.grid.K
    # the Lepski rule reads rows k <= k_hat + 1 only; K = 0 reads none but
    # still fits row k_hat = 0 for the values
    assert len(hs) == n * (min(diag.k_hat + 1, K) + 1)
    assert np.all(np.diff(hs) >= 0.0)
    assert np.all(np.isfinite(values))
    if n == 200:
        assert K == 4 and diag.k_hat + 1 < K
    else:
        assert K == 0


def test_pointwise_selection_still_fits_every_row(monkeypatch):
    hs = _count_fits(monkeypatch)
    # selections next to the step of f1 at 2/3 stop early
    sample = gen_sample(builtin_f("f1"), ErrorModel("negexp"), 200, seed=1)
    _, diag = adaptive_estimate(sample, EstimatorConfig(), grid=[0.6, 0.65])
    K = diag.grid.K
    assert np.all(diag.k_hat + 1 < K)
    assert len(hs) == 2 * (K + 1)


_SITE_FIELDS = ("k_hat", "alpha_hat", "b_hat", "k_alpha", "k_b", "zeta_raw", "zeta_truncated",
                "zeta_at_k_hat", "window_sizes")


@pytest.mark.parametrize("n, kind, beta_star, points", [
    (30, "zero", 0, [0.0, 0.5, 1.0]),
    (30, "negexp", 8, np.linspace(0.0, 1.0, 5)),
    (60, "neguniform", 2, np.linspace(0.0, 1.0, 9)),
    (90, "neggamma", 5, [1.0, 0.0, 0.31, 0.31]),
    (150, "negexp", 0, np.linspace(0.0, 1.0, 17)),
    (200, "neggamma", 8, np.linspace(0.0, 1.0, 7)),
    (250, "zero", 2, [0.0, 0.2, 0.99, 1.0]),
    (300, "neguniform", 5, np.linspace(0.0, 1.0, 20)),
    (400, "neggamma", 2, np.linspace(0.0, 1.0, 11)),
    (400, "negexp", 2, np.linspace(0.0, 1.0, 81)),
])
def test_grid_equals_each_point_alone(monkeypatch, n, kind, beta_star, points):
    # one row object over the grid: every value, per-site trace and counter
    # as when each point runs alone, whether its rows were batched or not
    batched = []
    batch = adapt.estimate_windows

    def recording(sample, xs, *args):
        batched.append(len(xs))
        return batch(sample, xs, *args)

    monkeypatch.setattr(adapt, "estimate_windows", recording)
    sample = gen_sample(builtin_f("f2"), ErrorModel(kind), n, (3, n))
    cfg = EstimatorConfig(beta_star=beta_star)
    values, diag = adaptive_estimate(sample, cfg, grid=points)
    assert batched or len(points) < 81  # the dense grid reaches the batch
    total = {}
    for i, xp in enumerate(points):
        value, alone = adaptive_estimate(sample, cfg, x=xp)
        assert np.float64(value).tobytes() == values[i].tobytes(), xp
        for name in _SITE_FIELDS:
            assert np.asarray(getattr(diag, name)[i]).tobytes() == getattr(alone, name)[0].tobytes()
        for key, count in alone.counters.items():
            total[key] = total.get(key, 0) + count
    assert diag.counters == total


def test_every_lockstep_batch_pays(monkeypatch):
    # a row's interior goes to estimate_windows only when one lockstep batch
    # holds at least MIN_LOCKSTEP_BATCH problems: the whole design in L_q
    # mode, and pointwise_sparse's 19 points of a sample of 100,000
    calls = []
    batch = adapt.estimate_windows

    def recording(sample, xs, starts, meff, h, degree):
        calls.append(min(len(xs), lp.batch_size(meff, degree + 1)))
        return batch(sample, xs, starts, meff, h, degree)

    monkeypatch.setattr(adapt, "estimate_windows", recording)
    dense = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 400, (0, 0))
    adaptive_estimate(dense, EstimatorConfig(q=1.0), grid=dense.xs())
    lq_calls = len(calls)
    wide = gen_sample(builtin_f("f2"), ErrorModel("neggamma", spatial=alpha_profile), 100_000, (0, 0))
    adaptive_estimate(wide, EstimatorConfig(), grid=np.linspace(0.05, 0.95, 19))
    assert lq_calls > 0 and len(calls) > lq_calls
    assert min(calls) >= lp.MIN_LOCKSTEP_BATCH


def test_envelope_rows_failure_rule():
    # windows of 1, 3 and 2 points: NaN, a degree-1 fit and a degree-0 fit
    counters = {}
    rows = EnvelopeRows(Sample(np.zeros(30)), [0.01, 0.5, 0.99], [0.05], 1, counters)
    assert len(rows) == 1
    row = rows[0]
    assert np.isnan(row[0]) and row[1:].tolist() == [0.0, 0.0]
    assert counters == {"window_too_small": 1, "degree_lowered": 1}
    with pytest.raises(IndexError):
        rows[1]
    empty = EnvelopeRows(Sample(np.zeros(30)), [], [0.1, 0.2], 1, counters)
    assert len(empty) == 2 and empty[1].shape == (0,)
    # responses spread over 1.7e308 overflow in most LPs; each failure is a
    # counted NaN, never an exception
    sample = Sample(-1.7e308 * np.random.default_rng(0).uniform(size=50))
    counters = {}
    values = np.array(list(EnvelopeRows(sample, sample.xs(), [0.05, 0.1, 0.2, 0.4, 0.8], 2,
                                        counters)))
    assert values.shape == (5, 50) and counters["lp_failures"] > 0
    assert np.isnan(values).sum() == counters.get("window_too_small", 0) + counters["lp_failures"]


def test_envelope_rows_are_fitted_lazily_in_order(monkeypatch):
    hs = _count_fits(monkeypatch)
    sample = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 100, seed=0)
    # 25 points: row 0's interior fills a lockstep batch, row 2's does not
    points = sample.xs()[::4]
    bandwidths = np.array([0.1, 0.2, 0.4])
    counters = {}
    rows = EnvelopeRows(sample, points, bandwidths, 2, counters)
    assert hs == []
    second = rows[1]
    assert hs == [0.1] * points.size + [0.2] * points.size
    assert rows[0] is rows[0] and rows[1] is second
    assert len(hs) == 2 * points.size
    # every window holds at least 11 points, so the degree stays at 2 and each
    # row is the per-point estimate bit for bit
    for h, row in zip(bandwidths, rows):
        expected = np.array([local_poly.estimate_at(sample, x, h, 2) for x in points])
        assert row.tobytes() == expected.tobytes()
    assert len(hs) == 3 * points.size and counters == {}


def _per_point_row(sample, points, h, beta_star, counters, pivots):
    """A row by the failure rule of EnvelopeRows, one estimate_at per point;
    records the pivots of each fit's solve_lp in pivots[x, h]."""
    row = []
    solved = []
    solve = local_poly.solve_lp

    def recording(lp):
        sol = solve(lp)
        solved.append(sol.iterations)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_poly, "solve_lp", recording)
        for xp in points:
            start, stop = local_poly.window_bounds(sample.n, xp, h)
            if stop - start < 2:
                counters["window_too_small"] = counters.get("window_too_small", 0) + 1
                row.append(np.nan)
                continue
            degree = min(beta_star, stop - start - 2)
            if degree < beta_star:
                counters["degree_lowered"] = counters.get("degree_lowered", 0) + 1
            try:
                row.append(local_poly.estimate_at(sample, xp, h, degree))
                pivots[float(xp), float(h)] = solved[-1]
            except NumericalBreakdown:
                counters["lp_failures"] = counters.get("lp_failures", 0) + 1
                row.append(np.nan)
    return np.array(row)


def _batched_pivots(monkeypatch):
    """{(x, h): pivots} of every fit that a lockstep batch solved."""
    pivots = {}
    batch = adapt.estimate_windows

    def recording(sample, xs, starts, meff, h, degree):
        values, iterations, solved = batch(sample, xs, starts, meff, h, degree)
        for x, it in zip(np.asarray(xs)[solved], iterations[solved]):
            pivots[float(x), float(h)] = int(it)
        return values, iterations, solved

    monkeypatch.setattr(adapt, "estimate_windows", recording)
    return pivots


def _assert_rows_match_per_point_fits(sample, points, bandwidths, beta_star, pivots):
    """Every row bit for bit, the counters in key order, and each batched
    fit's pivots equal to its solve_lp's."""
    pivots.clear()
    counters, expected_counters, expected_pivots = {}, {}, {}
    rows = EnvelopeRows(sample, points, bandwidths, beta_star, counters)
    for k, h in enumerate(bandwidths):
        expected = _per_point_row(sample, points, h, beta_star, expected_counters,
                                  expected_pivots)
        assert rows[k].tobytes() == expected.tobytes(), (k, h)
    assert list(counters.items()) == list(expected_counters.items())
    for key, its in pivots.items():
        assert its == expected_pivots[key], key
    return rows


@pytest.mark.parametrize("n, seed, em", [
    (400, (0, 0), ErrorModel("negexp")),
    (400, (0, 1), ErrorModel("negexp")),
    (1600, (0, 0), ErrorModel("negexp")),
    (1600, (0, 1), ErrorModel("negexp")),
    (400, (0, 0), ErrorModel("zero")),
    (400, (0, 0), ErrorModel("neggamma", spatial=alpha_profile)),
])
def test_batched_rows_equal_per_point_fits(monkeypatch, n, seed, em):
    # rows 0..K over the whole design: most points are batched, none falls back
    pivots = _batched_pivots(monkeypatch)
    sample = gen_sample(builtin_f("f2"), em, n, seed)
    grid = build_grid(n, 0.4, 2.0)
    rows = _assert_rows_match_per_point_fits(
        sample, sample.xs(), grid.bandwidths[: grid.K + 1], 2, pivots)
    assert rows.fallbacks == 0
    assert len(pivots) > 0.6 * n * (grid.K + 1)


@pytest.mark.parametrize("stop", [lp.FEASIBILITY_TOL, 0.0, 1e-3])
def test_one_phase2_stop_for_both_engines(monkeypatch, stop):
    # both engines read the one phase-2 stop: moved to FEASIBILITY_TOL, to 0
    # (233 of the 2,400 fits of this noiseless sample take other pivot paths)
    # or to 1e-3 (825 stop early and fail the certificate), batched rows
    # still equal the per-point fits, pivot counts and failures included
    sample = gen_sample(builtin_f("f2"), ErrorModel("zero"), 400, (0, 0))
    grid = build_grid(400, 0.4, 2.0)
    bandwidths = grid.bandwidths[: grid.K + 1]
    pivots = _batched_pivots(monkeypatch)
    list(EnvelopeRows(sample, sample.xs(), bandwidths, 2))
    default = dict(pivots)
    monkeypatch.setattr(lp, "PHASE2_STOP_TOL", stop)
    _assert_rows_match_per_point_fits(sample, sample.xs(), bandwidths, 2, pivots)
    assert (pivots == default) == (stop == lp.FEASIBILITY_TOL)


def test_batch_fallbacks_keep_the_per_point_values(monkeypatch):
    # responses spread over 1.7e308: most windows overflow when shifted, or
    # their LPs fail; the batch leaves those points to estimate_at, which
    # gives the same values and counts the same lp_failures
    pivots = _batched_pivots(monkeypatch)
    sample = Sample(-1.7e308 * np.random.default_rng(0).uniform(size=50))
    rows = _assert_rows_match_per_point_fits(
        sample, sample.xs(), [0.05, 0.1, 0.2, 0.4, 0.8], 2, pivots)
    assert rows.fallbacks > 0 and len(pivots) > 0


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 150), f=st.sampled_from(["f1", "f2", "absdip", "const"]),
       kind=st.sampled_from(ERROR_KINDS), seed=st.integers(0, 2**16),
       offset=st.sampled_from([0.0, 1e8, -1e8, 3.5]), scale=st.sampled_from([1.0, 1e-9, 1e3]),
       beta_star=st.integers(0, 3))
def test_batched_rows_equal_per_point_fits_on_random_samples(
        n, f, kind, seed, offset, scale, beta_star):
    base = gen_sample(builtin_f(f), ErrorModel(kind), n, seed)
    sample = Sample(scale * base.ys + offset)
    grid = build_grid(n, 0.4, 2.0)
    with pytest.MonkeyPatch.context() as mp:
        pivots = _batched_pivots(mp)
        _assert_rows_match_per_point_fits(sample, sample.xs(), grid.bandwidths, beta_star, pivots)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(30, 160), f=st.sampled_from(["f1", "f2", "absdip"]),
       kind=st.sampled_from(["negexp", "neggamma", "neguniform", "negweibull"]),
       seed=st.integers(0, 2**16), delta=st.sampled_from([5.0, -2.25, 1e3]),
       a=st.sampled_from([3.0, 0.5, 4.0]))
@example(n=148, f="f2", kind="negexp", seed=8039, delta=1e3, a=3.0)
@example(n=100, f="absdip", kind="negexp", seed=451, delta=1e3, a=3.0)
def test_lq_selection_shift_and_scale_invariance(n, f, kind, seed, delta, a):
    # c04's exact invariances through L_q selection: the curve shifts with the
    # sample and the selection does not move; the tail index is also
    # invariant to rescaling the sample.  Adding delta rounds each response,
    # so the sample under test is the one that the shifted sample holds
    # exactly: the drawn one, shifted and shifted back.
    cfg = EstimatorConfig(q=1.0)
    drawn = gen_sample(builtin_f(f), ErrorModel(kind), n, seed)
    sample = Sample((drawn.ys + delta) - delta)
    base, diag = adaptive_estimate(sample, cfg, grid=sample.xs())
    values, shifted = adaptive_estimate(Sample(sample.ys + delta), cfg, grid=sample.xs())
    expected = base + delta
    assert np.all(np.abs(values - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
    assert shifted.k_hat == diag.k_hat and shifted.k_alpha == diag.k_alpha
    assert shifted.alpha_hat == pytest.approx(diag.alpha_hat, rel=1e-12)
    assert shifted.b_hat == pytest.approx(diag.b_hat, rel=1e-12, abs=1e-12)
    _, scaled = adaptive_estimate(Sample(a * sample.ys), cfg, grid=sample.xs())
    assert scaled.k_alpha == diag.k_alpha
    assert scaled.alpha_hat == pytest.approx(diag.alpha_hat, rel=1e-12)


def test_pointwise_selection_falls_back_to_the_nearest_finite_fit(monkeypatch):
    # every fit above h_0 fails: no comparison is defined, so k_hat = K, and
    # the value is the fit at h_0, the nearest finite one below k_hat
    sample = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 200, seed=0)
    h0_fits = []
    fit = adapt.estimate_at

    def fails_above_h0(sample, x, h, degree):
        if h > build_grid(sample.n, 0.4, 2.0).h0:
            raise NumericalBreakdown("forced")
        h0_fits.append(fit(sample, x, h, degree))
        return h0_fits[-1]

    monkeypatch.setattr(adapt, "estimate_at", fails_above_h0)
    value, diag = adaptive_estimate(sample, EstimatorConfig(), x=0.5)
    K = diag.grid.K
    assert K >= 1 and diag.k_hat.tolist() == [K]
    assert len(h0_fits) == 1 and math.isfinite(h0_fits[0]) and value == h0_fits[0]
    assert diag.counters["selected_estimate_missing"] == 1
    assert diag.counters["lp_failures"] == K


def test_h0_exponent_warning_surfaces_in_diagnostics():
    sample = gen_sample(builtin_f("const"), ErrorModel("negexp"), 60, seed=3)
    _, diag = adaptive_estimate(sample, EstimatorConfig(h0_exponent=0.5), x=0.5)
    assert any("h0_exponent" in w for w in diag.warnings)
    _, diag = adaptive_estimate(sample, EstimatorConfig(), x=0.5)
    assert diag.warnings == []


def test_degenerate_tail_falls_back_to_truncated_cvs():
    sample = gen_sample(builtin_f("const"), ErrorModel("zero"), 60, seed=4)
    val, diag = adaptive_estimate(sample, EstimatorConfig(), x=0.5)
    assert val == pytest.approx(-3.0, abs=1e-9)
    assert diag.counters.get("tail_degenerate_points", 0) >= 1
    assert math.isnan(diag.alpha_hat[0]) and diag.k_alpha[0] == -1
    # fallback zetas are fully truncated with the forced terminal zero
    assert diag.zeta_truncated[0][:-1].tolist() == [1.0] * diag.grid.K
    assert diag.zeta_truncated[0][-1] == 0.0


def test_shift_invariance_of_adaptive_curve():
    f2 = builtin_f("f2")
    sample = gen_sample(f2, ErrorModel("negexp"), 150, seed=5)
    pts = np.linspace(0.2, 0.8, 5)
    vals, diag = adaptive_estimate(sample, EstimatorConfig(), grid=pts)
    shifted = Sample(sample.ys + 5.0)
    vals2, diag2 = adaptive_estimate(shifted, EstimatorConfig(), grid=pts)
    np.testing.assert_allclose(vals2, vals + 5.0, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(diag2.k_hat, diag.k_hat)
    np.testing.assert_allclose(diag2.alpha_hat, diag.alpha_hat, rtol=1e-9)


def test_empty_pointwise_grid_keeps_every_trace_shape_and_dtype():
    sample = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 200, seed=3)
    vals, diag = adaptive_estimate(sample, EstimatorConfig(), grid=[])
    K = diag.grid.K
    assert vals.shape == (0,) and vals.dtype == np.float64
    for name in ("k_hat", "k_alpha", "k_b"):
        assert getattr(diag, name).shape == (0,) and getattr(diag, name).dtype == np.int64
    for name in ("alpha_hat", "b_hat", "zeta_at_k_hat"):
        assert getattr(diag, name).shape == (0,) and getattr(diag, name).dtype == np.float64
    for name in ("zeta_raw", "zeta_truncated"):
        assert getattr(diag, name).shape == (0, K + 1) and getattr(diag, name).dtype == np.float64
    assert diag.window_sizes.shape == (0, K + 1) and diag.window_sizes.dtype == np.int64
    assert diag.points.shape == (0,) and diag.counters == {}


def test_diagnostics_shapes_pointwise():
    sample = gen_sample(builtin_f("f1"), ErrorModel("negexp"), 100, seed=6)
    pts = np.array([0.25, 0.5, 0.75])
    vals, diag = adaptive_estimate(sample, EstimatorConfig(), grid=pts)
    K = diag.grid.K
    assert vals.shape == (3,)
    assert diag.k_hat.shape == (3,)
    assert diag.zeta_raw.shape == (3, K + 1)
    assert diag.window_sizes.shape == (3, K + 1)
    assert np.all((diag.k_hat >= 0) & (diag.k_hat <= K))
    assert np.all((diag.zeta_at_k_hat >= 0) & (diag.zeta_at_k_hat <= 1))


def test_f2_exponential_noise_sup_error_band():
    """Pipeline stress test: oscillating frontier, heavy one-sided noise.

    Threshold fixed from a pilot run of the same configuration (median
    sup-error ~ 0.96, 94% of replications below 1.5).
    """
    f2 = builtin_f("f2")
    em = ErrorModel("negexp", rate=1.0)
    cfg = EstimatorConfig()
    hits = 0
    reps = 50
    for r in range(reps):
        sample = gen_sample(f2, em, 200, seed=(77, r))
        vals, _ = adaptive_estimate(sample, cfg, grid=sample.xs())
        hits += float(np.nanmax(np.abs(vals - f2(sample.xs())))) < 1.5
    assert hits >= 0.9 * reps


def _lq_selections():
    """L_q selections for f2 under all six error models: seeds 0-2 at n = 50
    and 400, seed 0 at n = 1600; q = 1 on the design, q = 2 on 21 points."""
    f2 = builtin_f("f2")
    for n, seeds in ((50, range(3)), (400, range(3)), (1600, (0,))):
        for seed in seeds:
            for kind in ERROR_KINDS:
                sample = gen_sample(f2, ErrorModel(kind), n, seed)
                yield adaptive_estimate(sample, EstimatorConfig(q=1.0), grid=sample.xs())
                yield adaptive_estimate(sample, EstimatorConfig(q=2.0),
                                        grid=np.linspace(0.0, 1.0, 21))


# Pins every bit of the L_q values and selection trace above: arrays with
# their dtype and shape, scalars by their exact repr, counters in key order.
# A speed change to the selection must leave it unchanged.
GOLDEN_LQ_DIGEST = "a02fefd24f0cd69c0a745922d95d2427b24e00684ad4c1eb303a5a12d84feef3"


def test_golden_lq_selection_digest():
    h = hashlib.sha256()
    for values, diag in _lq_selections():
        for arr in (values, diag.zeta_raw, diag.zeta_truncated, diag.window_sizes):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((diag.k_hat, diag.alpha_hat, diag.b_hat, diag.k_alpha, diag.k_b,
                       diag.zeta_at_k_hat, list(diag.counters.items()))).encode())
    assert h.hexdigest() == GOLDEN_LQ_DIGEST


def test_lq_grid_near_the_design_is_fitted_at_its_own_points():
    # points within NumPy's default rtol of the design points but not within
    # 1e-12 of them: the design-point fits would be off by up to 1.9e-5
    sample = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 400, (0, 0))
    cfg = EstimatorConfig(q=1.0)
    for pts in (sample.xs() * (1 - 2e-6), sample.xs()):
        values, diag = adaptive_estimate(sample, cfg, grid=pts)
        expected = EnvelopeRows(sample, pts, [diag.grid.bandwidths[diag.k_hat]], cfg.beta_star)[0]
        assert values.tobytes() == expected.tobytes()


def _assert_fits_without_failures(sample, beta_star, points, q):
    values, diag = adaptive_estimate(sample, EstimatorConfig(beta_star=beta_star, q=q),
                                     grid=points)
    assert diag.counters.get("lp_failures", 0) == 0
    assert not np.isnan(values).any()


_STRESS = dict(seed=st.integers(0, 2**16), offset=st.sampled_from([0.0, 1e8, -1e8]),
               scale=st.sampled_from([1e-9, 1.0, 1e3]), beta_star=st.integers(0, 9),
               points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))


@settings(max_examples=20, deadline=None)
@given(**_STRESS)
def test_stress_offsets_scales_and_degrees_pointwise(seed, offset, scale, beta_star, points):
    # n = 2000 with NegExp(1) noise, shifted by up to 1e8 and scaled down to
    # 1e-9 (below the float spacing at 1e8): every fit solves, no value is NaN
    base = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 2000, seed)
    _assert_fits_without_failures(Sample(scale * base.ys + offset), beta_star, points, None)


@settings(max_examples=5, deadline=None)
@given(**_STRESS)
def test_stress_offsets_scales_and_degrees_lq(seed, offset, scale, beta_star, points):
    base = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 2000, seed)
    _assert_fits_without_failures(Sample(scale * base.ys + offset), beta_star, points, 1.0)


@pytest.mark.xfail(strict=False, reason=(
    "open: phase 2 stops on reduced costs relative to max|r| while the certificate "
    "holds each slack to its row scale (ROADMAP item 1)"))
def test_lq_stress_with_a_sharp_noise_profile():
    # three fits of these L_q rows fail as "recovered vertex infeasible"
    base = gen_sample(builtin_f("f2"), ErrorModel("neggamma", spatial=alpha_profile), 2000, (0, 1))
    _assert_fits_without_failures(Sample(1e3 * base.ys), 6, [0.0, 0.31, 0.5, 1.0], 1.0)
