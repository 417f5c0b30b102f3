"""Grid, critical values, Lepski selection, and the adaptive pipeline."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontier_adapt import adapt
from frontier_adapt.adapt import (
    DEFAULT_J_BETA,
    CriticalValues,
    EstimatorConfig,
    _truncate_monotonize,
    adaptive_estimate,
    build_grid,
    critical_values_lq,
    critical_values_pointwise,
    iu_n,
    lepski_select,
)
from frontier_adapt.errors import DomainError, InvalidConfig
from frontier_adapt.simkit import ERROR_KINDS, ErrorModel, builtin_f, gen_sample
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


def test_config_validation():
    assert EstimatorConfig().j_beta == DEFAULT_J_BETA == 1
    for bad in (
        dict(beta_star=-1),
        dict(h0_exponent=1.2),
        dict(rho=0.5),
        dict(m_exponent=0.0),
        dict(c_beta=0.0),
        dict(j_beta=0),
        dict(j_beta=None),
        dict(q=0.5),
        dict(q=math.inf),
        dict(q=math.nan),
    ):
        with pytest.raises(InvalidConfig):
            EstimatorConfig(**bad)
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
    """Bandwidths of every envelope fit adaptive_estimate runs, in order."""
    hs = []
    fit = adapt.estimate_at

    def counted(sample, x, h, degree):
        hs.append(h)
        return fit(sample, x, h, degree)

    monkeypatch.setattr(adapt, "estimate_at", counted)
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
    from frontier_adapt.local_poly import Sample

    shifted = Sample(sample.ys + 5.0)
    vals2, diag2 = adaptive_estimate(shifted, EstimatorConfig(), grid=pts)
    np.testing.assert_allclose(vals2, vals + 5.0, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(diag2.k_hat, diag.k_hat)
    np.testing.assert_allclose(diag2.alpha_hat, diag.alpha_hat, rtol=1e-9)


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
GOLDEN_LQ_DIGEST = "76e58bf038db9444abaa130203579760431f991aa27c824444c53fce9bca6508"


def test_golden_lq_selection_digest():
    h = hashlib.sha256()
    for values, diag in _lq_selections():
        for arr in (values, diag.zeta_raw, diag.zeta_truncated, diag.window_sizes):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((diag.k_hat, diag.alpha_hat, diag.b_hat, diag.k_alpha, diag.k_b,
                       diag.zeta_at_k_hat, list(diag.counters.items()))).encode())
    assert h.hexdigest() == GOLDEN_LQ_DIGEST
