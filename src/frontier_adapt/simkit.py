"""Synthetic frontier samples, Monte Carlo risk, and empirical rate fits.

Error models all have support in (-inf, 0]: the observations never exceed
the frontier.  Replicate RNG streams derive from (master_seed, replicate)
so parallel fan-out reproduces the serial results exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .adapt import EstimatorConfig, adaptive_estimate, check_seed, check_setting
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
# cap on the responses of one chunk of replicates, which either target holds
# at once: 1 MiB holds 81 samples at n = 1600, 20 at n = 6400 and 3 at n = 40,000
MC_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class ErrorModel:
    """One-sided noise distribution.

    kinds: negexp(rate) = -Exponential(rate); neggamma(shape) = -Gamma(shape, 1),
    sharpness alpha = shape at the endpoint; refgamma(shape) = the gamma
    density reflected to the negative axis, which is neggamma under its
    reflected-density name; neguniform = Uniform[-1, 0], which has
    (alpha, scale, log-exponent) = (1, 1, 0) exactly; negweibull(shape);
    zero = no noise.  spatial, if set, maps x to a local shape for neggamma.
    A rate or shape that the kind reads is finite and > 0, else InvalidConfig.
    """

    kind: str
    rate: float = 1.0
    shape: float = 1.0
    spatial: object = None

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise UnknownName(f"unknown error model {self.kind!r}; choose from {ERROR_KINDS}")
        if self.kind == "negexp":
            check_setting("negexp rate", self.rate, "positive")
        if self.kind in ("neggamma", "refgamma", "negweibull") and self.spatial is None:
            check_setting(f"{self.kind} shape", self.shape, "positive")
        if self.spatial is not None and self.kind != "neggamma":
            raise InvalidConfig("spatial shape maps apply to neggamma only")


def draw_errors(model: ErrorModel, xs, rng) -> np.ndarray:
    """One error per design point; every draw is <= 0."""
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    k = model.kind
    if k == "negexp":
        return -rng.exponential(1.0 / model.rate, n)
    if k in ("neggamma", "refgamma"):
        if model.spatial is not None:
            shape = np.asarray(model.spatial(xs), dtype=float)
            if shape.shape != xs.shape or not np.all(shape > 0.0):
                raise InvalidConfig("spatial map must return positive shapes, one per point")
        else:
            shape = model.shape
        return -rng.gamma(shape, 1.0, size=n)
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
    check_seed(seed)
    entropy = [int(s) for s in seed] if isinstance(seed, (tuple, list)) else int(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def gen_sample(f, em: ErrorModel, n: int, seed) -> Sample:
    """Y_j = f(j/n) + eps_j on the equidistant design, deterministic per seed.

    seed may be an int >= 0 or a tuple of them (e.g. (master_seed,
    replicate)).  An n too large to allocate, or an error model drawing a
    non-finite error, such as negexp at a subnormal rate, raises InvalidConfig."""
    check_setting("n", n)
    try:
        xs = np.arange(1, n + 1, dtype=float) / n
    except (ValueError, MemoryError):  # past numpy's index range, or past memory
        raise InvalidConfig("n is too large to allocate the design") from None
    rng = _rng_for(seed)
    errors = draw_errors(em, xs, rng)
    if not np.isfinite(errors).all():
        raise InvalidConfig(f"error model {em.kind} drew a non-finite error")
    return Sample(np.asarray(f(xs), dtype=float) + errors)


def _chunk_losses(args):
    """The losses of one chunk of Monte Carlo replicates, in order; None
    marks a dropped replicate.  Either target fits the chunk's samples in
    one adaptive_estimate call, which gives each the values it gets alone:
    a replicate with a non-finite value drops alone, and a failed call
    drops them all."""
    f, em, cfg, n, target, master_seed, reps = args
    seeds = [(master_seed, r) for r in reps]
    q = None if target[0] == "point" else float(target[1])
    try:
        samples = [gen_sample(f, em, n, seed) for seed in seeds]
        if q is None:
            x0 = float(target[1])
            values, _ = adaptive_estimate(samples, replace(cfg, q=q), x=x0)
            truth = float(np.asarray(f(x0)))
        else:
            xs = samples[0].xs()
            values, _ = adaptive_estimate(samples, replace(cfg, q=q), grid=xs)
            truth = np.asarray(f(xs))
    except InvalidConfig:
        raise
    except FrontierAdaptError:
        return [None] * len(seeds)
    losses = []
    for row in np.reshape(values, (len(seeds), -1)):
        if not np.isfinite(row).all():
            losses.append(None)
        elif q is None:
            # Python's x ** 2, which numpy's square does not match bit for bit
            try:
                losses.append((float(row[0]) - truth) ** 2)
            except OverflowError:  # a float power raises; mc_risk rejects the inf
                losses.append(math.inf)
        else:
            # a large q overflows to inf, which mc_risk rejects
            with np.errstate(over="ignore"):
                losses.append(float(np.mean(np.abs(row - truth) ** q)))
    return losses


def check_target(target):
    """Raise InvalidConfig unless target is ("point", x0) with x0 in (0, 1]
    or ("lq", q) with q finite and >= 1, x0 and q real numbers, never a bool."""
    if not (isinstance(target, tuple) and len(target) == 2 and target[0] in ("point", "lq")):
        raise InvalidConfig('target must be ("point", x0) or ("lq", q)')
    rule = "point" if target[0] == "point" else "q"
    check_setting(f"target {rule}", target[1], rule)


def mc_risk(f, em: ErrorModel, cfg: EstimatorConfig, n: int, reps: int, target, master_seed, threads: int = 1):
    """Monte Carlo risk of the adaptive estimator.

    target = ("point", x0) gives the squared pointwise risk at x0;
    target = ("lq", q) gives the empirical q-th power loss averaged over the
    design.  reps is an integer >= 2, threads an integer >= 1 and
    master_seed an integer >= 0.  Either target cuts the replicates into one
    chunk per worker, or into smaller chunks where a chunk's responses would
    pass MC_CHUNK_BYTES, and fits each chunk in one adaptive_estimate call;
    the pool holds at most min(threads, reps, CPUs) workers.  Failed
    replicates are dropped, not imputed: one with a non-finite value drops
    alone, and a library error in a chunk's call drops the chunk.  More than
    5% dropped raises PipelineError, and a loss that overflows a float (a
    large q, or errors near 1e300) raises DegenerateInput.  Returns (risk,
    stderr).
    """
    check_setting("reps", reps)
    check_setting("threads", threads)
    check_target(target)
    check_seed(master_seed)
    check_setting("n", n)
    # the pool starts all its workers at once: never more than replicates or CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, reps, cpus or 1)
    size = min(max(1, MC_CHUNK_BYTES // (8 * n)), -(-reps // workers))
    tasks = [(f, em, cfg, n, target, master_seed, range(lo, min(lo + size, reps)))
             for lo in range(0, reps, size)]
    if workers > 1:
        # imported here: the pool's imports cost about 20 ms that serial runs skip
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_losses, tasks,
                                   chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        chunks = [_chunk_losses(t) for t in tasks]
    raw = [v for chunk in chunks for v in chunk]
    losses = [v for v in raw if v is not None]
    dropped = reps - len(losses)
    if dropped > 0.05 * reps:
        raise PipelineError(f"{dropped} of {reps} replicates failed")
    arr = np.asarray(losses, dtype=float)
    if not np.all(np.isfinite(arr)):
        q = 2.0 if target[0] == "point" else target[1]
        raise DegenerateInput(f"the loss |f_hat - f|^q overflows a float at q={q!r}")
    risk = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))  # reps >= 2 and <= 5% dropped
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
    if sxx <= 0.0:  # distinct large n can share a log
        raise DegenerateInput("log(n) values are degenerate")
    slope = float(xc @ (lr - lr.mean())) / sxx
    resid = lr - lr.mean() - slope * xc
    dof = ns.size - 2
    se = math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx)  # 3 distinct n: dof >= 1
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
