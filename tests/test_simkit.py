"""Error models, builtin frontiers, Monte Carlo risk, and rate fitting."""

import math
import os

import numpy as np
import pytest
from scipy import special, stats

from frontier_adapt import local_poly, lp, simkit
from frontier_adapt.adapt import EstimatorConfig, adaptive_estimate, build_grid
from frontier_adapt.errors import (
    DegenerateInput,
    DomainError,
    InvalidConfig,
    NumericalBreakdown,
    PipelineError,
    UnknownName,
)
from frontier_adapt.local_poly import Sample
from frontier_adapt.simkit import (
    ERROR_KINDS,
    MC_CHUNK_BYTES,
    ErrorModel,
    alpha_profile,
    builtin_f,
    draw_errors,
    gen_sample,
    mc_risk,
    rate_fit,
)

from _oracles import clear_phase1_memo


def test_all_error_models_are_nonpositive():
    rng = np.random.default_rng(0)
    xs = np.linspace(0.01, 1.0, 2000)
    models = [
        ErrorModel("negexp", rate=2.0),
        ErrorModel("neggamma", shape=0.5),
        ErrorModel("neggamma", spatial=lambda x: 1.0 + x),
        ErrorModel("refgamma", shape=1.5),
        ErrorModel("neguniform"),
        ErrorModel("negweibull", shape=2.0),
        ErrorModel("zero"),
    ]
    for em in models:
        draws = draw_errors(em, xs, rng)
        assert draws.shape == xs.shape
        assert np.all(draws <= 1e-12), em.kind


def test_neguniform_range_and_mean():
    rng = np.random.default_rng(1)
    draws = draw_errors(ErrorModel("neguniform"), np.zeros(10_000), rng)
    assert np.all((draws >= -1.0) & (draws <= 0.0))
    se = 1.0 / math.sqrt(12.0) / 100.0
    assert abs(draws.mean() + 0.5) < 3.0 * se


def test_negexp_mean_tracks_rate():
    rng = np.random.default_rng(2)
    draws = draw_errors(ErrorModel("negexp", rate=1.0), np.zeros(10_000), rng)
    assert abs(draws.mean() + 1.0) < 3.0 / 100.0
    draws = draw_errors(ErrorModel("negexp", rate=2.0), np.zeros(10_000), rng)
    assert abs(draws.mean() + 0.5) < 1.5 / 100.0


def test_refgamma_matches_reflected_density():
    # CDF on the negative axis is the upper incomplete gamma of the mirror
    rng = np.random.default_rng(3)
    shape = 1.5
    draws = draw_errors(ErrorModel("refgamma", shape=shape), np.zeros(100_000), rng)
    stat = stats.kstest(draws, lambda y: special.gammaincc(shape, -y)).statistic
    assert stat < 0.02


@pytest.mark.parametrize("shape", [0.5, 1.0, 1.5, 3.0])
def test_refgamma_draws_are_neggamma_draws(shape):
    # the reflected gamma density is -Gamma(shape, 1): one draw under two names
    xs = np.linspace(0.01, 1.0, 500)
    ref = draw_errors(ErrorModel("refgamma", shape=shape), xs, np.random.default_rng(7))
    neg = draw_errors(ErrorModel("neggamma", shape=shape), xs, np.random.default_rng(7))
    assert ref.tobytes() == neg.tobytes()


def test_error_model_validation():
    with pytest.raises(UnknownName):
        ErrorModel("gauss")
    with pytest.raises(InvalidConfig):
        ErrorModel("negexp", rate=0.0)
    with pytest.raises(InvalidConfig):
        ErrorModel("refgamma", shape=-1.0)
    with pytest.raises(InvalidConfig):
        ErrorModel("negexp", spatial=lambda x: x)
    for model in (dict(kind="negexp", rate=math.inf), dict(kind="negexp", rate=math.nan),
                  dict(kind="neggamma", shape=math.inf), dict(kind="refgamma", shape=math.nan),
                  dict(kind="negweibull", shape=math.inf)):
        with pytest.raises(InvalidConfig, match="finite"):
            ErrorModel(**model)
    # a rate or shape that is not a real number, or is a bool
    for model in (dict(kind="negexp", rate="1"), dict(kind="negexp", rate=None),
                  dict(kind="negexp", rate=True), dict(kind="neggamma", shape=True)):
        with pytest.raises(InvalidConfig):
            ErrorModel(**model)
    bad = ErrorModel("neggamma", spatial=lambda x: -np.ones_like(x))
    with pytest.raises(InvalidConfig):
        draw_errors(bad, np.linspace(0, 1, 5), np.random.default_rng(0))
    assert "zero" in ERROR_KINDS


def test_alpha_profile_values_and_domain():
    assert alpha_profile(0.0) == pytest.approx(2.0, abs=1e-12)
    assert alpha_profile(0.5) == pytest.approx(2.0 - 1.0 - math.sqrt(0.75), abs=1e-12)
    assert alpha_profile(1.0) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(DomainError):
        alpha_profile(-0.1)
    with pytest.raises(DomainError):
        alpha_profile(np.array([0.2, 1.1]))


def test_builtin_f_values():
    f1 = builtin_f("f1")
    assert f1(0.2) == -2.0 and f1(0.5) == -3.0 and f1(0.8) == -1.0
    # both indicator windows are half-open, so the breakpoint itself is 0
    assert f1(2.0 / 3.0) == 0.0
    f2 = builtin_f("f2")
    assert f2(0.0) == pytest.approx(0.0, abs=1e-12)
    assert f2(0.25) == pytest.approx(-2.0 + 0.3 * math.sin(4.75 * math.pi), abs=1e-12)
    assert builtin_f("absdip")(0.5) == 0.0
    assert builtin_f("absdip")(0.0) == -0.5
    assert builtin_f("const")(0.123) == -3.0
    with pytest.raises(UnknownName):
        builtin_f("f3")


def test_gen_sample_determinism_and_validation():
    f = builtin_f("f2")
    em = ErrorModel("negexp")
    a = gen_sample(f, em, 100, seed=7)
    b = gen_sample(f, em, 100, seed=7)
    np.testing.assert_array_equal(a.ys, b.ys)
    c = gen_sample(f, em, 100, seed=(7, 1))
    assert not np.array_equal(a.ys, c.ys)
    # errors are one-sided, so observations never exceed the frontier
    assert np.all(a.ys <= f(a.xs()) + 1e-12)
    with pytest.raises(InvalidConfig):
        gen_sample(f, em, 1, seed=0)
    # finite parameters whose draws overflow: -Exponential with a scale of
    # 1e320, and -Weibull with a shape of 1e-320
    for model in (ErrorModel("negexp", rate=1e-320), ErrorModel("negweibull", shape=1e-320)):
        with pytest.raises(InvalidConfig, match="non-finite"):
            gen_sample(f, model, 20, 0)


def test_mc_risk_noiseless_is_zero():
    f = builtin_f("const")
    em = ErrorModel("zero")
    cfg = EstimatorConfig()
    risk, se = mc_risk(f, em, cfg, 60, 3, ("point", 0.5), master_seed=0)
    assert risk <= 1e-12 and se <= 1e-12
    risk, _ = mc_risk(f, em, cfg, 60, 3, ("lq", 1.0), master_seed=0)
    assert risk <= 1e-12


@pytest.mark.parametrize("target", [("point", 0.5), ("lq", 1.0)])
def test_mc_risk_parallel_matches_serial_bitwise(target):
    # the point target also at 32 replicates of n = 400, where each of 2
    # pool workers fits a chunk of 16 in lockstep and the serial run one of 32;
    # the L_q target at 8 of n = 200, a chunk of 4 for each worker
    for n, reps in [(60, 5)] + ([(400, 32)] if target[0] == "point" else [(200, 8)]):
        args = (builtin_f("f2"), ErrorModel("negexp"), EstimatorConfig(), n, reps, target)
        serial = mc_risk(*args, master_seed=3)
        assert serial[0] > 0.0
        assert mc_risk(*args, master_seed=3, threads=2) == serial


def test_mc_risk_pool_never_exceeds_reps(monkeypatch):
    # a fork-based pool starts all max_workers processes up front; this fake
    # records the size it is asked for, starts nothing and maps in-process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    # more CPUs than threads, so the pool's size is capped by the tasks alone
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    args = (builtin_f("f2"), ErrorModel("negexp"), EstimatorConfig(), 40, 3, ("point", 0.5))
    serial = mc_risk(*args, master_seed=1)
    assert sizes == []
    assert mc_risk(*args, master_seed=1, threads=8) == serial
    assert mc_risk(*args, master_seed=1, threads=2) == serial
    assert sizes == [3, 2]


def test_mc_risk_pool_never_exceeds_the_cpus(monkeypatch):
    # rates --threads 100000 --reps 100000 must not ask for 100,000 processes;
    # this fake records the pool size and stops before any replicate runs
    sizes = []

    class Stop(Exception):
        pass

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize=1):
            raise Stop

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    args = (builtin_f("f2"), ErrorModel("negexp"), EstimatorConfig(), 40)
    with pytest.raises(Stop):
        mc_risk(*args, 100_000, ("point", 0.5), master_seed=1, threads=100_000)
    assert sizes == [3]
    # one CPU runs the replicates in-process, with the serial result
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = mc_risk(*args, 3, ("point", 0.5), master_seed=1)
    assert mc_risk(*args, 3, ("point", 0.5), master_seed=1, threads=4) == serial
    assert sizes == [3]


def test_replicates_share_phase_one(monkeypatch):
    # replicates at one point fit the same design windows, so phase 1 runs
    # once per bandwidth, not once per replicate and bandwidth: this is the
    # traffic that keeps the phase-1 memo
    calls = []
    phase1 = lp._phase1
    monkeypatch.setattr(lp, "_phase1", lambda A, c: calls.append(A.shape) or phase1(A, c))
    clear_phase1_memo()
    cfg = EstimatorConfig()
    mc_risk(builtin_f("absdip"), ErrorModel("negexp"), cfg, 400, 10, ("point", 0.5), 0)
    K = build_grid(400, cfg.h0_exponent, cfg.rho).K
    assert K == 5
    assert len(calls) == K + 1 == len(set(calls))


def test_replicate_chunks_share_phase_one(monkeypatch):
    # 20 replicates at one point are one chunk: each row's windows go to the
    # lockstep batch with one A and c, and phase 1 runs once per row
    calls, shared = [], []
    phase1, batch = lp._phase1, local_poly.solve_lp_batch
    monkeypatch.setattr(lp, "_phase1", lambda A, c: calls.append(A.shape) or phase1(A, c))
    monkeypatch.setattr(local_poly, "solve_lp_batch",
                        lambda A, r, c: shared.append((A.ndim, len(r))) or batch(A, r, c))
    clear_phase1_memo()
    cfg = EstimatorConfig()
    mc_risk(builtin_f("absdip"), ErrorModel("negexp"), cfg, 400, 20, ("point", 0.5), 0)
    K = build_grid(400, cfg.h0_exponent, cfg.rho).K
    assert len(calls) == K + 1 == len(set(calls))
    assert shared == [(2, 20)] * (K + 1)


def test_a_nan_replicate_drops_alone_from_its_chunk(monkeypatch):
    # replicate 7's sample holds 1e308 beside -1e308 at x0, so its estimate
    # is NaN: the risk is that of the other 19, each fitted alone
    real = simkit.gen_sample

    def overflowing(f, em, n, seed):
        sample = real(f, em, n, seed)
        if seed[1] != 7:
            return sample
        ys = sample.ys.copy()
        ys[n // 2 - 2 : n // 2] = 1e308, -1e308
        return Sample(ys)

    monkeypatch.setattr(simkit, "gen_sample", overflowing)
    f, em, cfg = builtin_f("absdip"), ErrorModel("negexp"), EstimatorConfig()
    risk, stderr = mc_risk(f, em, cfg, 400, 20, ("point", 0.5), 2)
    alone = [adaptive_estimate(overflowing(f, em, 400, (2, r)), cfg, x=0.5)[0] for r in range(20)]
    assert math.isnan(alone[7])
    losses = np.array([(v - float(f(0.5))) ** 2 for r, v in enumerate(alone) if r != 7])
    assert (risk, stderr) == (float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(19)))


def test_a_non_finite_lq_replicate_drops_alone_from_its_chunk(monkeypatch):
    # the L_q target's 20 replicates are one chunk in one call; replicate
    # 3's sample holds 1e308 beside -1e308, so some of its values are NaN:
    # the risk is that of the other 19, each fitted alone
    real = simkit.gen_sample

    def overflowing(f, em, n, seed):
        sample = real(f, em, n, seed)
        if seed[1] != 3:
            return sample
        ys = sample.ys.copy()
        ys[n // 2 - 2 : n // 2] = 1e308, -1e308
        return Sample(ys)

    calls = []
    stacked = simkit.adaptive_estimate

    def recording(samples, *args, **kwargs):
        calls.append(len(samples))
        return stacked(samples, *args, **kwargs)

    monkeypatch.setattr(simkit, "gen_sample", overflowing)
    monkeypatch.setattr(simkit, "adaptive_estimate", recording)
    f, em, cfg = builtin_f("absdip"), ErrorModel("negexp"), EstimatorConfig(q=1.0)
    risk, stderr = mc_risk(f, em, EstimatorConfig(), 200, 20, ("lq", 1.0), 2)
    assert calls == [20]
    xs = real(f, em, 200, (2, 0)).xs()
    alone = [adaptive_estimate(overflowing(f, em, 200, (2, r)), cfg, grid=xs)[0] for r in range(20)]
    assert not np.isfinite(alone[3]).all()
    losses = np.array([np.mean(np.abs(v - f(xs))) for r, v in enumerate(alone) if r != 3])
    assert (risk, stderr) == (float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(19)))


def test_a_chunk_holds_at_most_its_cap_of_samples(monkeypatch):
    # at n = 40,000 the 1 MiB cap holds 3 samples: 7 replicates in 3 chunks
    chunks = []

    def recording(samples, cfg, x):
        chunks.append(len(samples))
        assert sum(s.ys.nbytes for s in samples) <= MC_CHUNK_BYTES
        return np.zeros(len(samples)), None

    monkeypatch.setattr(simkit, "adaptive_estimate", recording)
    risk, _ = mc_risk(builtin_f("const"), ErrorModel("zero"), EstimatorConfig(), 40_000, 7,
                      ("point", 0.5), 0)
    assert risk == 9.0
    assert chunks == [3, 3, 1] and MC_CHUNK_BYTES // (8 * 40_000) == 3


@pytest.mark.parametrize("seed", [-1, (0, -1), 1.5, "7", True, None])
def test_seeds_must_be_nonnegative_integers(seed):
    em = ErrorModel("negexp")
    with pytest.raises(InvalidConfig, match="seed"):
        gen_sample(builtin_f("f2"), em, 20, seed)
    if not isinstance(seed, tuple):
        # checked before any replicate starts, also with a worker pool
        with pytest.raises(InvalidConfig, match="seed"):
            mc_risk(builtin_f("f2"), em, EstimatorConfig(), 20, 2, ("point", 0.5),
                    master_seed=seed, threads=2)


def test_overflowing_point_loss_is_degenerate_input():
    # errors near -1e300 put every estimate there, and its squared loss
    # overflows a float
    with pytest.raises(DegenerateInput, match="q=2"):
        mc_risk(builtin_f("f2"), ErrorModel("neggamma", shape=1e300), EstimatorConfig(), 30, 2,
                ("point", 0.5), master_seed=0)


def test_mc_risk_validation():
    f = builtin_f("const")
    em = ErrorModel("zero")
    cfg = EstimatorConfig()
    with pytest.raises(InvalidConfig):
        mc_risk(f, em, cfg, 60, 1, ("point", 0.5), master_seed=0)
    with pytest.raises(InvalidConfig):
        mc_risk(f, em, cfg, 60, 5, ("sup", 0.5), master_seed=0)
    with pytest.raises(InvalidConfig):
        mc_risk(f, em, cfg, 60, 5, "point", master_seed=0)
    for target in (("point", float("nan")), ("point", 0.0), ("point", 2.0), ("lq", 0.5),
                   ("lq", math.inf), ("lq", math.nan), ("point", True), ("lq", True)):
        with pytest.raises(InvalidConfig):
            mc_risk(f, em, cfg, 60, 5, target, master_seed=0)
    # a count that is not an integer (a bool included) or too small; threads
    # below 1 once divided the chunk size by zero or dropped every replicate
    for reps, threads in ((2.5, 1), (3.0, 1), (True, 1), (5, 0), (5, -1), (5, 1.0), (5, True)):
        for target in (("point", 0.5), ("lq", 1.0)):
            with pytest.raises(InvalidConfig):
                mc_risk(f, em, cfg, 60, reps, target, master_seed=0, threads=threads)


def test_mc_risk_does_not_drop_config_errors(monkeypatch):
    def bad_config(*args, **kwargs):
        raise InvalidConfig("forced config error")

    monkeypatch.setattr("frontier_adapt.simkit.adaptive_estimate", bad_config)
    with pytest.raises(InvalidConfig, match="forced"):
        mc_risk(builtin_f("const"), ErrorModel("negexp"), EstimatorConfig(), 40, 4,
                ("point", 0.5), master_seed=0)


def test_mc_risk_reports_failures(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalBreakdown("forced failure")

    monkeypatch.setattr("frontier_adapt.simkit.adaptive_estimate", boom)
    with pytest.raises(PipelineError):
        mc_risk(
            builtin_f("const"),
            ErrorModel("negexp"),
            EstimatorConfig(),
            60,
            4,
            ("point", 0.5),
            master_seed=0,
        )


def test_pointwise_risk_decreases_in_n():
    f = builtin_f("absdip")
    em = ErrorModel("negexp", rate=1.0)
    cfg = EstimatorConfig()
    risks = []
    for n in (200, 800, 3200):
        r, se = mc_risk(f, em, cfg, n, 60, ("point", 0.5), master_seed=11)
        assert r >= 0.0 and se >= 0.0
        risks.append(r)
    assert risks[0] > risks[1] > risks[2]


def test_rate_fit_exact_power_law():
    ns = [200, 400, 800, 1600]
    report = rate_fit(ns, [7.3 / n for n in ns])
    assert report.slope == pytest.approx(-1.0, abs=1e-12)
    lo, hi = report.slope_ci
    assert lo <= report.slope <= hi
    assert hi - lo < 1e-10
    assert report.n_values == ns


def test_rate_fit_log_corrected_power_law():
    ns = np.array([200, 400, 800, 1600, 3200, 6400])
    risks = 2.0 * ns**-1.5 * np.log(ns)
    report = rate_fit(ns, risks)
    assert -1.6 < report.slope < -1.3


def test_rate_fit_validation():
    with pytest.raises(DegenerateInput):
        rate_fit([100, 200], [1.0, 0.5])
    with pytest.raises(DegenerateInput):
        rate_fit([100, 200, 400], [1.0, 0.0, 0.5])
    with pytest.raises(DegenerateInput):
        rate_fit([100, 200, 400], [1.0, 0.5])
    with pytest.raises(DegenerateInput):
        rate_fit([100, 100, 100], [1.0, 1.0, 1.0])
    with pytest.raises(DegenerateInput):
        rate_fit([100, 200, 400], [1.0, 0.5, 0.25], stderrs=[0.1])
