"""Pilot study behind the critical-value constant default.

The theory only proves that constants c(beta*) and J(beta*) exist, so the
shipped defaults have to come from somewhere reproducible.  This script scans
c_beta over a small grid and reports, for each value, the margins of the
Monte Carlo acceptance checks that depend on it:

  * oracle comparison: median adaptive L1 risk over median best fixed-k risk
    (needs <= 4), with critical values built from the known-truth tail
    function instead of the estimated one;
  * sharpness monotonicity: mean L1 risk ratios across gamma shapes 0.5/1/2
    (needs strictly increasing, so both ratios > 1);
  * rate bracket: fitted log-log slope of the pointwise squared risk for the
    kink frontier under exponential noise (needs [-1.35, -0.65]);
  * stress band: fraction of replications with sup-error < 1.5 for the
    oscillating frontier at n=200 (needs >= 0.9).

Usage: python3 scripts/calibrate_defaults.py [--reps 40] [--seed 7]
"""

import argparse
import time

import numpy as np

from frontier_adapt.adapt import (
    EnvelopeRows,
    EstimatorConfig,
    adaptive_estimate,
    build_grid,
    critical_values_lq,
    lepski_select,
)
from frontier_adapt.simkit import ErrorModel, builtin_f, gen_sample, mc_risk, rate_fit
from frontier_adapt.tail import TailFunction


def oracle_margin(c_beta, reps, seed):
    """Median adaptive / median best fixed-k L1 risk, oracle critical values."""
    f = builtin_f("f2")
    em = ErrorModel("negexp", rate=1.0)
    cfg = EstimatorConfig(c_beta=c_beta)
    n = 400
    grid = build_grid(n, cfg.h0_exponent, cfg.rho)
    cvs = critical_values_lq(grid, TailFunction(1.0, 0.0), 1.0, cfg)
    adaptive, fixed = [], []
    for r in range(reps):
        sample = gen_sample(f, em, n, (seed, r))
        truth = f(sample.xs())
        curves = np.vstack(
            list(EnvelopeRows(sample, sample.xs(), grid.bandwidths[: grid.K + 1], cfg.beta_star))
        )
        losses = np.nanmean(np.abs(curves - truth), axis=1)
        k_hat = lepski_select(curves, cvs, q=1.0)
        adaptive.append(losses[k_hat])
        fixed.append(losses)
    best_fixed = np.median(np.vstack(fixed), axis=0).min()
    return float(np.median(adaptive) / best_fixed)


def sharpness_ratios(c_beta, reps, seed):
    f = builtin_f("f2")
    cfg = EstimatorConfig(c_beta=c_beta, q=1.0)
    risks = []
    for shape in (0.5, 1.0, 2.0):
        em = ErrorModel("neggamma", shape=shape)
        r, _ = mc_risk(f, em, cfg, 400, reps, ("lq", 1.0), master_seed=seed)
        risks.append(r)
    return risks[1] / risks[0], risks[2] / risks[1]


def rate_slope(c_beta, reps, seed):
    f = builtin_f("absdip")
    em = ErrorModel("negexp", rate=1.0)
    cfg = EstimatorConfig(c_beta=c_beta)
    ns = [200, 400, 800, 1600, 3200, 6400]
    risks, errs = [], []
    for n in ns:
        r, e = mc_risk(f, em, cfg, n, reps, ("point", 0.5), master_seed=seed)
        risks.append(r)
        errs.append(e)
    return rate_fit(ns, risks, errs).slope


def stress_band(c_beta, reps, seed):
    f = builtin_f("f2")
    em = ErrorModel("negexp", rate=1.0)
    cfg = EstimatorConfig(c_beta=c_beta)
    hits = 0
    for r in range(reps):
        sample = gen_sample(f, em, 200, (seed, r))
        vals, _ = adaptive_estimate(sample, cfg, grid=sample.xs())
        hits += float(np.nanmax(np.abs(vals - f(sample.xs())))) < 1.5
    return hits / reps


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=40)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--c-grid", default="0.1,0.2,0.3,0.5,1.0")
    args = ap.parse_args()

    grid = [float(tok) for tok in args.c_grid.split(",")]
    print(f"reps={args.reps} seed={args.seed}")
    print("c_beta  oracle_ratio  gamma r1/r0.5  r2/r1  rate_slope  sup_band")
    for c in grid:
        t0 = time.time()
        om = oracle_margin(c, args.reps, args.seed)
        g1, g2 = sharpness_ratios(c, args.reps, args.seed)
        sl = rate_slope(c, args.reps, args.seed)
        sb = stress_band(c, args.reps, args.seed)
        print(
            f"{c:6.2f}  {om:12.3f}  {g1:13.3f}  {g2:5.3f}  {sl:10.3f}  {sb:8.2f}"
            f"   ({time.time() - t0:.0f}s)"
        )


if __name__ == "__main__":
    main()
