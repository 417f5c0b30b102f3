"""Error models, builtin frontiers, Monte Carlo risk, and rate fitting."""

import math

import numpy as np
import pytest
from scipy import special, stats

from frontier_adapt.adapt import EstimatorConfig
from frontier_adapt.errors import (
    DegenerateInput,
    DomainError,
    InvalidConfig,
    NumericalBreakdown,
    PipelineError,
    UnknownName,
)
from frontier_adapt.simkit import (
    ERROR_KINDS,
    ErrorModel,
    alpha_profile,
    builtin_f,
    draw_errors,
    gen_sample,
    mc_risk,
    rate_fit,
)


def test_all_error_models_are_nonpositive():
    rng = np.random.default_rng(0)
    xs = np.linspace(0.01, 1.0, 2000)
    models = [
        ErrorModel("negexp", rate=2.0),
        ErrorModel("neggamma", shape=0.5),
        ErrorModel("neggamma", spatial=lambda x: 1.0 + x),
        ErrorModel("refgamma", lam=1.5),
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
    lam = 1.5
    draws = draw_errors(ErrorModel("refgamma", lam=lam), np.zeros(100_000), rng)
    stat = stats.kstest(draws, lambda y: special.gammaincc(lam, -y)).statistic
    assert stat < 0.02


def test_error_model_validation():
    with pytest.raises(UnknownName):
        ErrorModel("gauss")
    with pytest.raises(InvalidConfig):
        ErrorModel("negexp", rate=0.0)
    with pytest.raises(InvalidConfig):
        ErrorModel("refgamma", lam=-1.0)
    with pytest.raises(InvalidConfig):
        ErrorModel("negexp", spatial=lambda x: x)
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
    args = (builtin_f("f2"), ErrorModel("negexp"), EstimatorConfig(), 60, 5, target)
    serial = mc_risk(*args, master_seed=3)
    assert serial[0] > 0.0
    assert mc_risk(*args, master_seed=3, threads=2) == serial


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
    for target in (("point", float("nan")), ("point", 0.0), ("point", 2.0), ("lq", 0.5)):
        with pytest.raises(InvalidConfig):
            mc_risk(f, em, cfg, 60, 5, target, master_seed=0)


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
