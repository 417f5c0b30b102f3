"""Adaptive bandwidth selection for the envelope estimator.

A geometric bandwidth grid h_k = h_0 * rho^k is scanned by a Lepski-type
rule: the selected index is the first k at which the estimate with the next
bandwidth drifts away from some earlier estimate by more than the sum of
their critical values.  Critical values are plugged in from the estimated
tail parameters, either pointwise through the tail function A, or globally
for empirical L_q losses through the integral transform iu_n.
"""

from __future__ import annotations

import math
import numbers
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWindow, DomainError, InvalidConfig, NumericalBreakdown
from .local_poly import Sample, check_points, estimate_at, estimate_windows, window_bounds
from .lp import MIN_LOCKSTEP_BATCH, batch_size
from .tail import _bump, a_hat, estimate_tail_at, first_drift

# Calibrated defaults for the critical-value constants.  The theory only
# proves such constants exist; these values come from the pilot study in
# scripts/calibrate_defaults.py and both stay exposed in the config.
DEFAULT_C_BETA = 0.3
DEFAULT_J_BETA = 1


@dataclass
class EstimatorConfig:
    """Tuning knobs for the adaptive pipeline.

    q = None selects pointwise (sup-style) selection; a finite q >= 1
    selects empirical L_q selection with a single global bandwidth index.
    """

    beta_star: int = 2
    h0_exponent: float = 0.4
    rho: float = 2.0
    m_exponent: float = 2.0 / 3.0
    c_beta: float = DEFAULT_C_BETA
    j_beta: int = DEFAULT_J_BETA
    q: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in _RULES:
            if name != "q" or self.q is not None:
                _check_setting(name, getattr(self, name))
        check_seed(self.seed)


# (integer?, range test, rule) of each numeric setting, pointwise q = None aside
_RULES = {
    "beta_star": (True, lambda v: 0 <= v <= 10, "an integer in [0, 10]"),
    "h0_exponent": (False, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "rho": (False, lambda v: v > 1.0, "finite and > 1"),
    "m_exponent": (False, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "c_beta": (False, lambda v: v > 0.0, "finite and > 0"),
    "j_beta": (True, lambda v: v >= 1, "an integer >= 1 that fits a float"),
    "q": (False, lambda v: v >= 1.0, "finite and >= 1"),
}


def _check_setting(name, value):
    """Raise InvalidConfig unless value is a real number (an integer where the
    rule asks for one, never a bool) that a float holds and that its rule allows."""
    integer, allowed, rule = _RULES[name]
    kind = numbers.Integral if integer else numbers.Real
    try:
        ok = (isinstance(value, kind) and not isinstance(value, bool)
              and math.isfinite(value) and allowed(value))
    except OverflowError:  # an integer that no float holds
        ok = False
    if not ok:
        raise InvalidConfig(f"{name} must be {rule}")


def check_seed(seed):
    """Raise InvalidConfig unless seed is an integer >= 0 or a tuple or list of them."""
    for s in seed if isinstance(seed, (tuple, list)) else (seed,):
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0:
            raise InvalidConfig(f"seed must be an integer >= 0, got {s!r}")


# the largest K that build_grid allows: a rho just above 1 makes K astronomical
MAX_K = 1000


@dataclass(frozen=True)
class BandwidthGrid:
    """Geometric grid h_k = h0 * rho^k for k = 0..K+1 on a size-n design."""

    n: int
    h0: float
    rho: float
    K: int
    bandwidths: np.ndarray


def build_grid(n: int, h0_exponent: float, rho: float) -> BandwidthGrid:
    """Grid with h0 = n^(h0_exponent - 1) and K = floor(log_rho n^(1 - h0_exponent)),
    K at most MAX_K."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidConfig("n must be an integer >= 2")
    _check_setting("h0_exponent", h0_exponent)
    _check_setting("rho", rho)
    h0 = float(n) ** (h0_exponent - 1.0)
    # the 1e-9 nudge keeps exact powers (e.g. rho = n^(1-h0_exponent)) from
    # flooring one step low on last-ulp noise
    K = int(math.floor((1.0 - h0_exponent) * math.log(n) / math.log(rho) + 1e-9))
    K = max(K, 0)
    if K > MAX_K:
        raise InvalidConfig(f"rho={rho!r} gives K = {K} at n = {n}, more than {MAX_K}; raise rho")
    bandwidths = h0 * float(rho) ** np.arange(K + 2)
    return BandwidthGrid(n=int(n), h0=h0, rho=float(rho), K=K, bandwidths=bandwidths)


@dataclass(frozen=True)
class CriticalValues:
    """Raw and truncated critical values zeta_k, k = 0..K.

    truncated = running minimum of min(raw, 1), so it is nonincreasing, lies
    in [0, 1], and ends at the terminal raw[K] = 0.
    """

    raw: np.ndarray
    truncated: np.ndarray
    kind: str
    q: float | None = None


def _truncate_monotonize(raw) -> np.ndarray:
    return np.minimum.accumulate(np.minimum(raw, 1.0))


def _critical_values(grid: BandwidthGrid, term, q=None) -> CriticalValues:
    """zeta_k = term(k) for k < K, 1 where term raises DomainError, terminal 0."""
    raw = np.zeros(grid.K + 1)
    for k in range(grid.K):
        try:
            raw[k] = term(k)
        except DomainError:
            raw[k] = 1.0
    kind = "pointwise" if q is None else "lq"
    return CriticalValues(raw=raw, truncated=_truncate_monotonize(raw), kind=kind, q=q)


def critical_values_pointwise(grid: BandwidthGrid, tail, cfg: EstimatorConfig) -> CriticalValues:
    """zeta_k = 4 c |A(alpha n h_k / (4 J log n))| for k < K, terminal 0.

    Arguments of A below e are clamped to zeta_k = 1 (maximal truncation).
    """
    J = cfg.j_beta
    logn = math.log(grid.n)
    alpha = 1.0 / tail.inv_alpha

    def term(k):
        y = alpha * grid.n * grid.bandwidths[k] / (4.0 * J * logn)
        return 1.0 if y < math.e else 4.0 * cfg.c_beta * abs(a_hat(tail, y))

    return _critical_values(grid, term)


def iu_n(s: float, q: float, tail, n: int) -> float:
    """Integral transform of the plug-in tail function for L_q losses.

    iu_n(s, q) = ( integral_{n^(-2 inv_alpha)}^{min(sqrt n, s/e^2)}
                   d/dy[ (log(s/y))^(q b) (s/y)^(-q inv_alpha) ] e^(-y) dy )^(1/q)

    with the analytic derivative
        (log(s/y))^(q b - 1) (s/y)^(-q inv_alpha) (q inv_alpha log(s/y) - q b) / y.
    The upper clip at s/e^2 keeps log(s/y) >= 2.  An empty clipped domain,
    or an integrand that overflows a float (large q), raises DomainError;
    callers treat the corresponding zeta as 1.  The quadrature's absolute
    tolerance is fixed at 1e-8.
    """
    # imported here: scipy.integrate is most of the package's import time,
    # and only L_q selection needs it
    from scipy.integrate import IntegrationWarning, quad

    if s <= 0.0:
        raise DomainError("s must be positive")
    _check_setting("q", q)
    inv_a = tail.inv_alpha
    b = tail.b_hat
    lo = float(n) ** (-2.0 * inv_a)
    hi = min(math.sqrt(n), s / math.e**2)
    if not hi > lo:
        raise DomainError(f"empty integration domain for s={s!r}")
    qa = q * inv_a
    qb = q * b

    def deriv_weighted(y):
        u = math.log(s / y)
        return u ** (qb - 1.0) * (s / y) ** (-qa) * (qa * u - qb) / y * math.exp(-y)

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", IntegrationWarning)
        try:
            val, _ = quad(deriv_weighted, lo, hi, epsabs=1e-8, epsrel=1e-11, limit=200)
        except OverflowError as exc:
            raise DomainError(f"iu_n integrand overflows for q={q!r}") from exc
    return math.copysign(abs(val) ** (1.0 / q), val)


def critical_values_lq(grid: BandwidthGrid, tail, q: float, cfg: EstimatorConfig) -> CriticalValues:
    """zeta_k = sqrt(5) c |iu_n(n h_k / (6 J), q)| for k < K, terminal 0."""
    J = cfg.j_beta

    def term(k):
        s = grid.n * grid.bandwidths[k] / (6.0 * J)
        return math.sqrt(5.0) * cfg.c_beta * abs(iu_n(s, q, tail, grid.n))

    return _critical_values(grid, term, q)


def lepski_select(estimates, cvs: CriticalValues, q: float | None = None) -> int:
    """First k in 0..K-1 with ||f_{k+1} - f_l|| > zeta_l + zeta_{k+1} for some
    l <= k (truncated zetas); K when no such drift occurs.

    estimates[k] is the estimate at h_k: a scalar for pointwise selection
    (q = None), or a per-k curve for empirical L_q selection, where the norm
    averages |difference|^q over the points where both curves are defined.
    Only rows k <= min(k_hat + 1, K) are read, so estimates may be rows
    fitted on first access (see EnvelopeRows) as well as an array.
    """
    zt = cvs.truncated
    K = zt.size - 1
    if len(estimates) != K + 1:
        raise ValueError("estimates must cover k = 0..K")
    # On one-point rows the L_q norm with q = 1 equals |a - b| bit for bit,
    # but it takes about 9 us per call against 0.1 us (2-core x86-64), and
    # one mc_rates operation makes some 2,560 pointwise comparisons: so
    # pointwise selection keeps its own distance.
    if q is None:
        estimates = np.asarray(estimates, dtype=float)
        if estimates.ndim != 1:
            raise ValueError("pointwise selection expects one value per k")

        def dist(a, b):
            return abs(a - b)

    else:

        def dist(a, b):
            a = np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
            mask = np.isfinite(a) & np.isfinite(b)
            if not mask.any():
                return np.nan
            # a large q can overflow to inf, which distance() skips
            with np.errstate(over="ignore"):
                return float(np.mean(np.abs(a[mask] - b[mask]) ** q) ** (1.0 / q))

    def distance(k, l):
        # a pair at infinite distance is skipped like an undefined one
        d = dist(estimates[k + 1], estimates[l])
        return d if np.isfinite(d) else np.nan

    return first_drift(K, distance, lambda k, l: zt[l] + zt[k + 1])


class EnvelopeRows:
    """Envelope estimates at points, one row per bandwidth, fitted lazily.

    Reading row k fits every missing row below it first, so the fits, and
    the counters they bump, run in the order of a full sweep.  No point
    raises: a window of m < 2 points gives NaN (window_too_small), the degree
    is lowered to min(beta_star, m - 2) (degree_lowered), and an LP failure
    gives NaN (lp_failures).

    A row's interior, its points whose windows hold the row's most common
    size m at the full degree, is fitted in lockstep by estimate_windows
    when one lockstep batch holds at least lp.MIN_LOCKSTEP_BATCH of them;
    every other point, and each interior point that the batch leaves
    unsolved, is fitted by estimate_at.  The values are the same bit for
    bit either way.  fallbacks counts the interior points left to
    estimate_at.
    """

    def __init__(self, sample, points, bandwidths, beta_star, counters=None):
        self._sample = sample
        self._points = points
        self._bandwidths = bandwidths
        self._beta_star = beta_star
        self._counters = counters
        self._rows = []
        self._fallbacks = 0

    @property
    def fallbacks(self):
        return self._fallbacks

    def __len__(self):
        return len(self._bandwidths)

    def __getitem__(self, k):
        if not 0 <= k < len(self):
            raise IndexError(k)
        while len(self._rows) <= k:
            self._rows.append(self._fit_row(self._bandwidths[len(self._rows)]))
        return self._rows[k]

    def _fit_row(self, h):
        if len(self._points) < MIN_LOCKSTEP_BATCH:  # too few for a batch that pays
            return np.array([self._fit(xp, h) for xp in self._points])
        points = np.asarray(self._points, dtype=float)
        row = np.full(points.size, np.nan)
        fitted = np.zeros(points.size, dtype=bool)
        bounds = np.array([window_bounds(self._sample.n, xp, h) for xp in points], dtype=np.intp)
        sizes = bounds[:, 1] - bounds[:, 0]
        m = int(np.bincount(sizes).argmax())
        interior = np.flatnonzero(sizes == m)
        if (m >= self._beta_star + 2
                and min(interior.size, batch_size(m, self._beta_star + 1)) >= MIN_LOCKSTEP_BATCH):
            values, _, solved = estimate_windows(
                self._sample, points[interior], bounds[interior, 0], m, h, self._beta_star)
            row[interior] = values
            fitted[interior] = solved
            self._fallbacks += int(interior.size - solved.sum())
        # the other points in order, so the counters bump as in a sweep of
        # per-point fits: a solved interior point bumps none
        for i in np.flatnonzero(~fitted):
            row[i] = self._fit(self._points[i], h)
        return row

    def _fit(self, xp, h):
        start, stop = window_bounds(self._sample.n, xp, h)
        m = stop - start
        if m < 2:
            _bump(self._counters, "window_too_small")
            return np.nan
        degree = min(self._beta_star, m - 2)
        if degree < self._beta_star:
            _bump(self._counters, "degree_lowered")
        try:
            return estimate_at(self._sample, xp, h, degree)
        except NumericalBreakdown:
            _bump(self._counters, "lp_failures")
            return np.nan


@dataclass
class Diagnostics:
    """Selection trace for one adaptive_estimate call.

    Pointwise mode carries per-point arrays (k_alpha = -1 and alpha_hat = NaN
    mark points whose tail estimation was degenerate); L_q mode carries the
    single global selection.
    """

    mode: str
    points: np.ndarray
    k_hat: object
    alpha_hat: object
    b_hat: object
    k_alpha: object
    k_b: object
    zeta_raw: np.ndarray
    zeta_truncated: np.ndarray
    zeta_at_k_hat: object
    window_sizes: np.ndarray
    grid: BandwidthGrid
    counters: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


def _site_trace(K):
    """A site's Diagnostics fields before selection: degenerate-tail defaults, zeros elsewhere."""
    return dict(k_hat=0, alpha_hat=np.nan, b_hat=np.nan, k_alpha=-1, k_b=-1, zeta_raw=np.zeros(K + 1),
                zeta_truncated=np.zeros(K + 1), zeta_at_k_hat=np.nan, window_sizes=np.zeros(K + 1, int))


def _select_site(sample, cfg, grid, x_tail, estimates, counters):
    """One selection site: tail parameters at x_tail, critical values for
    cfg.q and the Lepski index over estimates, one entry per k = 0..K (a
    pointwise site's column, or the L_q rows, which it reads only up to
    min(k_hat + 1, K)).  Returns the site's per-site Diagnostics fields.
    """
    trace = _site_trace(grid.K)
    try:
        te = estimate_tail_at(sample, x_tail, grid, cfg.m_exponent, counters)
    except DegenerateWindow:
        _bump(counters, "tail_degenerate_points")
        cvs = _critical_values(grid, lambda k: 1.0, cfg.q)  # fully truncated
    else:
        trace.update(alpha_hat=1.0 / te.inv_alpha, b_hat=te.b_hat, k_alpha=te.k_alpha, k_b=te.k_b)
        cvs = (critical_values_pointwise(grid, te, cfg) if cfg.q is None
               else critical_values_lq(grid, te, cfg.q, cfg))

    k_hat = lepski_select(estimates, cvs, q=cfg.q)
    bandwidths = grid.bandwidths[: grid.K + 1]
    trace.update(k_hat=k_hat, zeta_raw=cvs.raw, zeta_truncated=cvs.truncated,
                 zeta_at_k_hat=cvs.truncated[k_hat],
                 window_sizes=np.diff([window_bounds(sample.n, x_tail, h) for h in bandwidths])[:, 0])
    return trace


def adaptive_estimate(sample: Sample, cfg: EstimatorConfig, x=None, grid=None):
    """Fully data-driven envelope estimate.

    Exactly one of x (single point) or grid (array of points) must be given.
    With cfg.q = None the bandwidth index is selected pointwise at each
    requested point; with cfg.q >= 1 a single index is selected from the
    empirical L_q distances between per-bandwidth curves over the design
    points, with tail parameters estimated once at x = 1/2.

    Returns (values, Diagnostics); failed points are NaN, never fatal.
    """
    if (x is None) == (grid is None):
        raise InvalidConfig("pass exactly one of x= or grid=")
    bgrid = build_grid(sample.n, cfg.h0_exponent, cfg.rho)
    counters: dict = {}
    warn: list = []
    if cfg.h0_exponent >= 0.5:
        warn.append(
            "h0_exponent >= 0.5: smallest windows may be too thin for stable tail estimation"
        )
    pts = check_points(grid if x is None else [x])
    bandwidths = bgrid.bandwidths[: bgrid.K + 1]
    if cfg.q is None:
        # every row, not only k <= k_hat + 1: the benchmark's seed-0 reference
        # counts an lp_failure from a fit above k_hat + 1, so pointwise rows
        # stay eager until that reference is regenerated
        rows = np.array(list(EnvelopeRows(sample, pts, bandwidths, cfg.beta_star, counters)))
        values, traces = [], []
        for xp, column in zip(pts, rows.T):
            traces.append(_select_site(sample, cfg, bgrid, xp, column, counters))
            k_hat = traces[-1]["k_hat"]
            if np.isnan(column[k_hat]):
                # nearest fit that succeeded at a smaller bandwidth, if any
                below = np.flatnonzero(np.isfinite(column[:k_hat]))
                if below.size:
                    k_hat = below[-1]
                    _bump(counters, "selected_estimate_missing")
            values.append(column[k_hat])
    else:
        xs = sample.xs()
        rows = EnvelopeRows(sample, xs, bandwidths, cfg.beta_star, counters)
        traces = [_select_site(sample, cfg, bgrid, 0.5, rows, counters)]
        k_hat = traces[0]["k_hat"]
        values = rows[k_hat]  # fits row k_hat, and counts it, when the selection read none (K = 0)
        if not (x is None and pts.size == sample.n and np.allclose(pts, xs, rtol=0.0, atol=1e-12)):
            values = EnvelopeRows(sample, pts, [bandwidths[k_hat]], cfg.beta_star, counters)[0]

    # stacked in the blank trace's dtypes and per-site shapes, which an empty grid keeps
    trace = {name: np.array([t[name] for t in traces], np.result_type(v)).reshape(-1, *np.shape(v))
             for name, v in _site_trace(bgrid.K).items()}
    if cfg.q is not None:
        # one global selection: scalars and per-k vectors, not per-point arrays
        trace = {name: v[0].item() if v.ndim == 1 else v[0] for name, v in trace.items()}
    diag = Diagnostics(
        mode="pointwise" if cfg.q is None else "lq",
        points=pts,
        grid=bgrid,
        counters=counters,
        warnings=warn,
        **trace,
    )
    return (float(values[0]) if x is not None else np.array(values, dtype=float)), diag
