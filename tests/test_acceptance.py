"""Acceptance suite: ten end-to-end checks, one printed PASS/FAIL line each.

Every test computes its quantity, prints a single ``[criterion N] PASS/FAIL``
line with the measured numbers, and then asserts, so a red run still reports
what was measured.  Stated runtime budgets are asserted alongside the
substantive check.  Run with ``pytest -s`` to see the lines on a green run.
"""

import time

import numpy as np

from frontier_adapt import (
    CriticalValues,
    EnvelopeRows,
    EstimatorConfig,
    ErrorModel,
    Sample,
    TailFunction,
    adaptive_estimate,
    build_grid,
    builtin_f,
    draw_errors,
    estimate_b,
    fit_local,
    gen_sample,
    iu_n,
    lepski_select,
    mc_risk,
    neg_hill_inv_alpha,
    rate_fit,
    solve_lp,
    tail_m,
    window_indices,
)
from frontier_adapt.adapt import _truncate_monotonize

from _oracles import random_bounded_lp, vertex_enum_min


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    return ok


def test_c01_lp_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        lp = random_bounded_lp(rng, max_vars=2, max_rows=6)
        sol = solve_lp(lp)
        oracle = vertex_enum_min(lp)
        assert sol.status == "optimal" and oracle is not None
        worst = max(worst, abs(sol.objective_value - oracle) / max(1.0, abs(oracle)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert _report(1, ok, f"500 LPs, worst rel err {worst:.3e}, {elapsed:.2f}s")


def test_c02_noiseless_polynomials_reproduced_exactly():
    rng = np.random.default_rng(1)
    em = ErrorModel("zero")
    n = 150
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        beta_star = int(rng.integers(0, 4))
        degree = int(rng.integers(0, beta_star + 1))
        f = np.polynomial.Polynomial(rng.uniform(-2.0, 2.0, degree + 1))
        sample = gen_sample(f, em, n, (9, i))
        xs = sample.xs()
        interior = xs[(xs >= 0.05) & (xs <= 0.95)]
        values, _ = adaptive_estimate(sample, EstimatorConfig(beta_star=beta_star), grid=interior)
        worst = max(worst, float(np.max(np.abs(values - f(interior)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    assert _report(2, ok, f"50 polynomials, worst abs err {worst:.3e}, {elapsed:.2f}s")


def test_c03_fitted_envelope_dominates_window_data():
    rng = np.random.default_rng(2)
    em = ErrorModel("negexp", rate=1.0)
    f2 = builtin_f("f2")
    t0 = time.perf_counter()
    worst = np.inf
    done = 0
    while done < 1000:
        n = int(rng.integers(10, 121))
        if done % 2 == 0:
            sample = Sample(rng.normal(0.0, 1.0, n))
        else:
            sample = gen_sample(f2, em, n, (3, done))
        x = float(rng.uniform(0.0, 1.0))
        h = float(rng.uniform(0.02, 0.6))
        degree = int(rng.integers(0, 4))
        idx = window_indices(n, x, h)
        if idx.size < degree + 2:
            continue
        fit = fit_local(sample, x, h, degree)
        yw = sample.ys[idx]
        scale = max(1.0, float(np.max(np.abs(yw))))
        margin = float(np.min(fit((idx + 1) / n) - yw)) / scale
        worst = min(worst, margin)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9
    assert _report(3, ok, f"1000 fits, worst scaled margin {worst:.3e}, {elapsed:.2f}s")


def test_c04_exact_invariances():
    # shift the whole sample: the adaptive curve must shift with it
    cfg = EstimatorConfig()
    sample = gen_sample(builtin_f("f2"), ErrorModel("negexp", rate=1.0), 300, 0)
    grid = np.linspace(0.05, 0.95, 21)
    base, diag0 = adaptive_estimate(sample, cfg, grid=grid)
    worst_curve = 0.0
    stable = True
    for delta in (5.0, -2.25, 1e3):
        values, diag = adaptive_estimate(Sample(sample.ys + delta), cfg, grid=grid)
        expected = base + delta
        rel = np.abs(values - expected) / np.maximum(1.0, np.abs(expected))
        worst_curve = max(worst_curve, float(np.max(rel)))
        stable = stable and bool(np.array_equal(diag.k_hat, diag0.k_hat))

    # location + scale invariance of the tail index, location invariance of b
    rng = np.random.default_rng(0)
    m = 100
    worst_alpha = 0.0
    worst_b = 0.0
    for _ in range(200):
        ys = -rng.exponential(size=1000)
        inv = neg_hill_inv_alpha(ys, m)
        b = estimate_b(ys, m, inv)
        for a, c in ((1.0, 3.5), (3.0, -4.5), (0.5, 2.25), (4.0, -6.5)):
            v = neg_hill_inv_alpha(a * ys + c, m)
            worst_alpha = max(worst_alpha, abs(v - inv) / abs(inv))
        b_shifted = estimate_b(ys + 6.25, m, inv)
        worst_b = max(worst_b, abs(b_shifted - b) / max(1.0, abs(b)))

    ok = stable and max(worst_curve, worst_alpha, worst_b) <= 1e-12
    assert _report(
        4,
        ok,
        f"rel err curve {worst_curve:.3e}, alpha {worst_alpha:.3e}, b {worst_b:.3e}, "
        f"k_hat stable {stable}",
    )


def test_c05_tail_estimates_consistent_on_neguniform():
    rng = np.random.default_rng(0)
    em = ErrorModel("neguniform")
    n_bar = 5000
    m = tail_m(n_bar, 2.0 / 3.0)
    t0 = time.perf_counter()
    alphas = np.empty(200)
    bs = np.empty(200)
    for r in range(200):
        ys = draw_errors(em, np.zeros(n_bar), rng)
        inv = neg_hill_inv_alpha(ys, m)
        alphas[r] = 1.0 / inv
        bs[r] = estimate_b(ys, m, inv)
    elapsed = time.perf_counter() - t0
    ma, mb = float(alphas.mean()), float(bs.mean())
    ok = 0.85 <= ma <= 1.15 and -0.4 <= mb <= 0.4 and elapsed < 120.0
    assert _report(5, ok, f"m={m}, mean alpha {ma:.4f}, mean b {mb:.4f}, {elapsed:.2f}s")


def test_c06_pointwise_risk_rate_bracket():
    cfg = EstimatorConfig()
    f = builtin_f("absdip")
    em = ErrorModel("negexp", rate=1.0)
    ns = [200, 400, 800, 1600, 3200, 6400]
    t0 = time.perf_counter()
    risks, stderrs = [], []
    for n in ns:
        r, s = mc_risk(f, em, cfg, n, 200, ("point", 0.5), 0)
        risks.append(r)
        stderrs.append(s)
    report = rate_fit(ns, risks, stderrs)
    elapsed = time.perf_counter() - t0
    ok = -1.35 <= report.slope <= -0.65 and elapsed < 900.0
    assert _report(6, ok, f"slope {report.slope:.4f} over n=200..6400, {elapsed:.1f}s")


def test_c07_risk_increases_with_sharpness_exponent():
    cfg = EstimatorConfig()
    f = builtin_f("f2")
    t0 = time.perf_counter()
    risks = []
    for shape in (0.5, 1.0, 2.0):
        r, _ = mc_risk(f, ErrorModel("neggamma", shape=shape), cfg, 400, 100, ("lq", 1.0), 0)
        risks.append(r)
    elapsed = time.perf_counter() - t0
    ok = risks[0] < risks[1] < risks[2]
    assert _report(
        7,
        ok,
        "L1 risks " + " < ".join(f"{r:.4f}" for r in risks) + f", {elapsed:.1f}s",
    )


def test_c08_iu_n_quadrature_matches_closed_form():
    tail = TailFunction(1.0, 0.0)
    n = 10**4
    worst = 0.0
    for k in range(1, 7):
        s = 10.0**k
        lo = float(n) ** -2.0
        hi = min(np.sqrt(n), s / np.e**2)
        closed = (np.exp(-lo) - np.exp(-hi)) / s
        worst = max(worst, abs(iu_n(s, 1.0, tail, n) - closed) / closed)
    ok = worst <= 1e-6
    assert _report(8, ok, f"s=10..1e6, worst rel err {worst:.3e}")


def test_c09_critical_value_and_selector_contracts():
    rng = np.random.default_rng(4)
    for i in range(200):
        K = int(rng.integers(2, 9))
        raw = rng.exponential(0.7, K + 1)
        raw[K] = 0.0
        truncated = _truncate_monotonize(raw)
        assert np.all(truncated >= 0.0) and np.all(truncated <= 1.0)
        assert np.all(np.diff(truncated) <= 0.0)
        assert truncated[K] == 0.0
        cvs = CriticalValues(raw=raw, truncated=truncated)
        if i % 2 == 0:
            estimates = rng.normal(0.0, 1.0, K + 1)
            q = None
        else:
            estimates = rng.normal(0.0, 1.0, (K + 1, 7))
            estimates[int(rng.integers(K + 1)), int(rng.integers(7))] = np.nan
            q = 1.0 + float(rng.uniform(0.0, 2.0))
        k_hat = lepski_select(estimates, cvs, q=q)
        assert 0 <= k_hat <= K
        lam = 1.0 + float(rng.uniform(0.0, 2.0))
        enlarged = CriticalValues(raw=raw * lam, truncated=np.minimum(truncated * lam, 1.0))
        assert lepski_select(estimates, enlarged, q=q) >= k_hat
    assert _report(9, True, "200 randomized sequences, all contracts hold")


def test_c10_adaptive_risk_tracks_best_fixed_bandwidth():
    cfg = EstimatorConfig()
    f = builtin_f("f2")
    em = ErrorModel("negexp", rate=1.0)
    n = 400
    grid = build_grid(n, cfg.h0_exponent, cfg.rho)
    xs = np.arange(1, n + 1) / n
    truth = f(xs)
    t0 = time.perf_counter()
    fixed = np.empty((100, grid.K + 1))
    adaptive = np.empty(100)
    for r in range(100):
        sample = gen_sample(f, em, n, (0, r))
        rows = EnvelopeRows(sample, xs, grid.bandwidths[: grid.K + 1], cfg.beta_star)
        for k, curve in enumerate(rows):
            fixed[r, k] = float(np.nanmean(np.abs(curve - truth)))
        values, _ = adaptive_estimate(sample, EstimatorConfig(q=1.0), grid=xs)
        mask = np.isfinite(values)
        adaptive[r] = float(np.mean(np.abs(values[mask] - truth[mask])))
    elapsed = time.perf_counter() - t0
    best_fixed = float(np.min(np.median(fixed, axis=0)))
    med_adaptive = float(np.median(adaptive))
    ratio = med_adaptive / best_fixed
    ok = ratio <= 4.0
    assert _report(
        10,
        ok,
        f"median adaptive {med_adaptive:.4f} vs best fixed {best_fixed:.4f} "
        f"(ratio {ratio:.2f}), {elapsed:.1f}s",
    )
