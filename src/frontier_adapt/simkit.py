"""Synthetic frontier samples, Monte Carlo risk, and empirical rate fits.

Error models all have support in (-inf, 0]: the observations never exceed
the frontier.  Replicate RNG streams derive from (master_seed, replicate)
so parallel fan-out reproduces the serial results exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .adapt import EstimatorConfig, adaptive_estimate
from .errors import (
    DegenerateInput,
    DomainError,
    FrontierAdaptError,
    InvalidConfig,
    PipelineError,
    UnknownName,
)
from .local_poly import Sample

ERROR_KINDS = ("negexp", "neggamma", "refgamma", "neguniform", "negweibull", "zero")


@dataclass(frozen=True)
class ErrorModel:
    """One-sided noise distribution.

    kinds: negexp(rate) = -Exponential(rate); neggamma(shape) = -Gamma(shape, 1),
    sharpness alpha = shape at the endpoint; refgamma(lam) = gamma density
    reflected to the negative axis; neguniform = Uniform[-1, 0], which has
    (alpha, scale, log-exponent) = (1, 1, 0) exactly; negweibull(shape);
    zero = no noise.  spatial, if set, maps x to a local shape for neggamma.
    """

    kind: str
    rate: float = 1.0
    shape: float = 1.0
    lam: float = 1.0
    spatial: object = None

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise UnknownName(f"unknown error model {self.kind!r}; choose from {ERROR_KINDS}")
        if self.kind == "negexp" and not self.rate > 0.0:
            raise InvalidConfig("negexp rate must be positive")
        if self.kind in ("neggamma", "negweibull") and self.spatial is None and not self.shape > 0.0:
            raise InvalidConfig(f"{self.kind} shape must be positive")
        if self.kind == "refgamma" and not self.lam > 0.0:
            raise InvalidConfig("refgamma lam must be positive")
        if self.spatial is not None and self.kind != "neggamma":
            raise InvalidConfig("spatial shape maps apply to neggamma only")


def draw_errors(model: ErrorModel, xs, rng) -> np.ndarray:
    """One error per design point; every draw is <= 0."""
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    k = model.kind
    if k == "negexp":
        return -rng.exponential(1.0 / model.rate, n)
    if k == "neggamma":
        if model.spatial is not None:
            shape = np.asarray(model.spatial(xs), dtype=float)
            if shape.shape != xs.shape or not np.all(shape > 0.0):
                raise InvalidConfig("spatial map must return positive shapes, one per point")
        else:
            shape = model.shape
        return -rng.gamma(shape, 1.0, size=n)
    if k == "refgamma":
        # the reflected density is the gamma density with negated argument,
        # so negating standard gamma draws samples it exactly
        return -rng.gamma(model.lam, 1.0, n)
    if k == "neguniform":
        return rng.uniform(-1.0, 0.0, n)
    if k == "negweibull":
        return -rng.weibull(model.shape, n)
    return np.zeros(n)


def _f1(x):
    x = np.asarray(x, dtype=float)
    return -2.0 * (x < 1 / 3) - 3.0 * ((1 / 3 <= x) & (x < 2 / 3)) - 1.0 * (x > 2 / 3)


def _f2(x):
    x = np.asarray(x, dtype=float)
    return -2.0 + 2.0 * np.cos(2.0 * np.pi * x) + 0.3 * np.sin(19.0 * np.pi * x)


def _absdip(x):
    x = np.asarray(x, dtype=float)
    return -np.abs(x - 0.5)


def _const(x):
    x = np.asarray(x, dtype=float)
    return np.full_like(x, -3.0)


_BUILTIN_F = {"f1": _f1, "f2": _f2, "absdip": _absdip, "const": _const}


def builtin_f(name: str):
    """Named regression functions for simulations.

    f1 is a three-level step, f2 a trigonometric frontier with a fast
    oscillation, absdip a downward kink at 1/2 (Hoelder smoothness 1),
    const the flat frontier -3.  Module-level functions so they survive
    pickling into worker processes.
    """
    try:
        return _BUILTIN_F[name]
    except KeyError:
        raise UnknownName(
            f"unknown regression function {name!r}; choose from f1, f2, absdip, const"
        ) from None


def alpha_profile(x):
    """Spatially varying sharpness: 2 at x=0, dip to about 0.134 at x=1/2,
    rise to 3 at x=1.  Defined on [0, 1] only."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("alpha_profile is defined on [0, 1]")
    return np.sin(2.0 * np.pi * x + np.pi / 2.0) - np.sqrt(1.0 - x**2) + 2.0


def _rng_for(seed):
    if isinstance(seed, (tuple, list)):
        ss = np.random.SeedSequence([int(s) for s in seed])
    else:
        ss = np.random.SeedSequence(int(seed))
    return np.random.default_rng(ss)


def gen_sample(f, em: ErrorModel, n: int, seed) -> Sample:
    """Y_j = f(j/n) + eps_j on the equidistant design, deterministic per seed.

    seed may be an int or a tuple of ints (e.g. (master_seed, replicate))."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidConfig("n must be an integer >= 2")
    xs = np.arange(1, n + 1, dtype=float) / n
    rng = _rng_for(seed)
    ys = np.asarray(f(xs), dtype=float) + draw_errors(em, xs, rng)
    return Sample(ys)


def _replicate_loss(args):
    """One Monte Carlo replicate; None signals a dropped replicate."""
    f, em, cfg, n, target, master_seed, r = args
    try:
        sample = gen_sample(f, em, n, (master_seed, r))
        if target[0] == "point":
            x0 = float(target[1])
            value, _ = adaptive_estimate(sample, replace(cfg, q=None), x=x0)
            if not np.isfinite(value):
                return None
            return (value - float(np.asarray(f(x0)))) ** 2
        q = float(target[1])
        xs = sample.xs()
        values, _ = adaptive_estimate(sample, replace(cfg, q=q), grid=xs)
        if not np.all(np.isfinite(values)):
            return None
        # a large q overflows to inf, which mc_risk rejects
        with np.errstate(over="ignore"):
            return float(np.mean(np.abs(values - np.asarray(f(xs))) ** q))
    except InvalidConfig:
        raise
    except FrontierAdaptError:
        return None


def check_target(target):
    """Raise InvalidConfig unless target is ("point", x0) with x0 in (0, 1]
    or ("lq", q) with q finite and >= 1."""
    if not (isinstance(target, tuple) and len(target) == 2 and target[0] in ("point", "lq")):
        raise InvalidConfig('target must be ("point", x0) or ("lq", q)')
    kind, value = target
    if kind == "point" and not 0.0 < value <= 1.0:
        raise InvalidConfig(f"target point must lie in (0, 1], got {value!r}")
    if kind == "lq" and not 1.0 <= value < math.inf:
        raise InvalidConfig(f"target q must be finite and >= 1, got {value!r}")


def mc_risk(f, em: ErrorModel, cfg: EstimatorConfig, n: int, reps: int, target, master_seed, threads: int = 1):
    """Monte Carlo risk of the adaptive estimator.

    target = ("point", x0) gives the squared pointwise risk at x0;
    target = ("lq", q) gives the empirical q-th power loss averaged over the
    design.  Failed replicates are dropped, not imputed; more than 5%
    failures raises PipelineError, and a loss that overflows a float (a
    large q) raises DegenerateInput.  Returns (risk, stderr).
    """
    if reps < 2:
        raise InvalidConfig("reps must be >= 2")
    check_target(target)
    tasks = [(f, em, cfg, n, target, master_seed, r) for r in range(reps)]
    # the pool starts all its workers at once, so never more than there are tasks
    workers = min(int(threads), reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_replicate_loss, tasks, chunksize=max(1, reps // (4 * workers))))
    else:
        raw = [_replicate_loss(t) for t in tasks]
    losses = [v for v in raw if v is not None]
    dropped = reps - len(losses)
    if dropped > 0.05 * reps:
        raise PipelineError(f"{dropped} of {reps} replicates failed")
    arr = np.asarray(losses, dtype=float)
    if not np.all(np.isfinite(arr)):
        # only the L_q loss can get here: a squared point loss is a finite float
        raise DegenerateInput(f"the loss |f_hat - f|^q overflows a float at q={target[1]!r}")
    risk = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return risk, stderr


@dataclass(frozen=True)
class RiskReport:
    """Per-n Monte Carlo risks with the fitted log-log slope."""

    n_values: list
    risks: list
    stderrs: list
    slope: float
    slope_ci: tuple


def rate_fit(n_values, risks, stderrs=None) -> RiskReport:
    """Least-squares slope of log(risk) on log(n); CI = slope +- 2 SE.

    Needs at least three distinct n and strictly positive risks (a zero risk
    means a noiseless run, whose log-log slope is undefined).
    """
    ns = np.asarray(n_values, dtype=float)
    rs = np.asarray(risks, dtype=float)
    if ns.size != rs.size:
        raise DegenerateInput("n_values and risks must have equal length")
    if np.unique(ns).size < 3:
        raise DegenerateInput("need at least 3 distinct n values")
    if not np.all(np.isfinite(rs)) or np.any(rs <= 0.0):
        raise DegenerateInput("risks must be finite and positive")
    ls = np.log(ns)
    lr = np.log(rs)
    xc = ls - ls.mean()
    sxx = float(xc @ xc)
    if sxx <= 0.0:
        raise DegenerateInput("log(n) values are degenerate")
    slope = float(xc @ (lr - lr.mean())) / sxx
    resid = lr - lr.mean() - slope * xc
    dof = ns.size - 2
    se = math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx) if dof > 0 else 0.0
    errs = list(np.asarray(stderrs, dtype=float)) if stderrs is not None else [0.0] * ns.size
    if len(errs) != ns.size:
        raise DegenerateInput("stderrs length must match n_values")
    return RiskReport(
        n_values=[int(v) for v in ns],
        risks=[float(v) for v in rs],
        stderrs=[float(v) for v in errs],
        slope=slope,
        slope_ci=(slope - 2.0 * se, slope + 2.0 * se),
    )
