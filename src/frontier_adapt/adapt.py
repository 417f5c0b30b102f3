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

from .errors import DomainError, InvalidConfig, NumericalBreakdown
from .local_poly import Sample, check_points, check_stack, estimate_at, estimate_windows, window_bounds
from .lp import lockstep_pays
from .tail import _bump, a_hat, estimate_tail_at, first_drift

# Calibrated defaults for the critical-value constants.  The theory only
# proves such constants exist; these values come from the pilot study in
# scripts/calibrate_defaults.py and both stay exposed in the config.
DEFAULT_C_BETA = 0.3
DEFAULT_J_BETA = 1


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs for the adaptive pipeline, checked on construction and frozen.

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
        for name, value in vars(self).items():
            if name == "seed":
                check_seed(value)
            elif name != "q" or value is not None:
                check_setting(name, value)


# (integer?, range test, rule) of each number a caller sets: the numeric settings
# (pointwise q = None aside), then the simulation layer's sizes, points and parameters
_RULES = {
    "beta_star": (True, lambda v: 0 <= v <= 10, "an integer in [0, 10]"),
    "h0_exponent": (False, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "rho": (False, lambda v: v > 1.0, "finite and > 1"),
    "m_exponent": (False, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "c_beta": (False, lambda v: v > 0.0, "finite and > 0"),
    "j_beta": (True, lambda v: v >= 1, "an integer >= 1 that fits a float"),
    "q": (False, lambda v: v >= 1.0, "finite and >= 1"),
    "n": (True, lambda v: v >= 2, ">= 2 and an integer that fits a float"),
    "reps": (True, lambda v: v >= 2, ">= 2 and an integer that fits a float"),
    "threads": (True, lambda v: v >= 1, ">= 1 and an integer that fits a float"),
    "point": (False, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "positive": (False, lambda v: v > 0.0, "finite and > 0"),
}


def check_setting(name, value, rule=None):
    """Raise InvalidConfig unless value is a real number (an integer where the
    rule asks for one, never a bool) that a float holds and that its rule
    allows.  rule is a key of _RULES, name by default."""
    integer, allowed, text = _RULES[rule or name]
    kind = numbers.Integral if integer else numbers.Real
    try:
        ok = (isinstance(value, kind) and not isinstance(value, bool)
              and math.isfinite(value) and allowed(value))
    except OverflowError:  # an integer that no float holds
        ok = False
    if not ok:
        raise InvalidConfig(f"{name} must be {text}")


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
    check_setting("n", n)
    check_setting("h0_exponent", h0_exponent)
    check_setting("rho", rho)
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


def _truncate_monotonize(raw) -> np.ndarray:
    return np.minimum.accumulate(np.minimum(raw, 1.0))


def _critical_values(grid: BandwidthGrid, term) -> CriticalValues:
    """zeta_k = term(k) for k < K, 1 where term raises DomainError, terminal 0."""
    raw = np.zeros(grid.K + 1)
    for k in range(grid.K):
        try:
            raw[k] = term(k)
        except DomainError:
            raw[k] = 1.0
    return CriticalValues(raw=raw, truncated=_truncate_monotonize(raw))


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
    check_setting("q", q)
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

    return _critical_values(grid, term)


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
    """Envelope estimates at sites, one row per bandwidth, fitted lazily.

    samples is one Sample or a non-empty sequence of Samples of one n, and
    points lie in [0, 1] (else InvalidConfig).  Site r * P + p is sample r
    at point p of P, as in adaptive_estimate; a row computes each point's
    window once for all samples.  Reading row k fits every missing row below
    it first, so the fits, and the counters they bump, run in the order of a
    full sweep.  No site raises: a window of m < 2 points gives NaN
    (window_too_small), the degree is lowered to min(beta_star, m - 2)
    (degree_lowered), and an LP failure gives NaN (lp_failures).

    A row's interior, its sites whose windows hold the row's most common
    size m at the full degree, is fitted in lockstep by estimate_windows
    when lp.lockstep_pays: one lockstep batch holds at least
    lp.MIN_LOCKSTEP_BATCH of them, and from degree 7 on, m exceeds
    3 (degree + 1).  Every other site, and each interior site that the
    batch leaves unsolved, is fitted by estimate_at.  The values are the
    same bit for bit either way.  fallbacks counts the interior sites left
    to estimate_at.
    """

    def __init__(self, samples, points, bandwidths, beta_star, counters=None):
        self._samples = check_stack(samples)
        self._points = check_points(points)
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
        points, n = self._points, self._samples[0].n
        bounds = np.array([window_bounds(n, x, h) for x in points.tolist()], np.intp)
        bounds = np.tile(bounds.reshape(-1, 2), (len(self._samples), 1))  # shared by the samples
        sizes = bounds[:, 1] - bounds[:, 0]
        row = np.full(sizes.size, np.nan)
        fitted = np.zeros(sizes.size, dtype=bool)
        m = int(np.bincount(sizes, minlength=1).argmax())  # 0 on an empty grid
        interior = np.flatnonzero(sizes == m)
        if m >= self._beta_star + 2 and lockstep_pays(interior.size, m, self._beta_star + 1):
            values, _, solved = estimate_windows(
                [self._samples[i // points.size] for i in interior], points[interior % points.size],
                bounds[interior, 0], m, h, self._beta_star)
            row[interior] = values
            fitted[interior] = solved
            self._fallbacks += int(interior.size - solved.sum())
        # the other sites in order, so the counters bump as in a sweep of
        # per-site fits: a solved interior site bumps none
        for i in np.flatnonzero(~fitted):
            row[i] = self._fit(i, h, int(sizes[i]))
        return row

    def _fit(self, i, h, m):
        """Site i's fit at bandwidth h, whose window holds m points."""
        sample, xp = self._samples[i // self._points.size], self._points[i % self._points.size]
        if m < 2:
            _bump(self._counters, "window_too_small")
            return np.nan
        degree = min(self._beta_star, m - 2)
        if degree < self._beta_star:
            _bump(self._counters, "degree_lowered")
        try:
            return estimate_at(sample, xp, h, degree)
        except NumericalBreakdown:
            _bump(self._counters, "lp_failures")
            return np.nan


@dataclass
class Diagnostics:
    """Selection trace for one adaptive_estimate call.

    points holds the point of each value.  The per-selection fields hold one
    entry per selection: per site in pointwise mode, per sample in L_q mode
    (k_alpha = -1 and alpha_hat = NaN mark selections whose tail estimation
    was degenerate).  One Sample in L_q mode has one global selection, whose
    fields are scalars and per-k vectors.
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


def _blank_trace(K):
    """A selection's Diagnostics fields before it runs: degenerate-tail defaults, else zeros."""
    return dict(k_hat=0, alpha_hat=np.nan, b_hat=np.nan, k_alpha=-1, k_b=-1, zeta_raw=np.zeros(K + 1),
                zeta_truncated=np.zeros(K + 1), zeta_at_k_hat=np.nan, window_sizes=np.zeros(K + 1, int))


def _window_sizes(n, x, bandwidths):
    return np.diff([window_bounds(n, x, h) for h in bandwidths])[:, 0]


def _select(te, cfg, grid, estimates, window_sizes, counters):
    """One selection: critical values for cfg.q from its tail estimate te
    (None where its tail estimation was degenerate) and the Lepski index
    over estimates, one entry per k = 0..K (a pointwise site's column, or an
    L_q sample's rows, which it reads only up to min(k_hat + 1, K)).
    Returns the selection's Diagnostics fields.
    """
    trace = _blank_trace(grid.K)
    if te is None:
        _bump(counters, "tail_degenerate_points")
        cvs = _critical_values(grid, lambda k: 1.0)  # fully truncated
    else:
        trace.update(alpha_hat=1.0 / te.inv_alpha, b_hat=te.b_hat, k_alpha=te.k_alpha, k_b=te.k_b)
        cvs = (critical_values_pointwise(grid, te, cfg) if cfg.q is None
               else critical_values_lq(grid, te, cfg.q, cfg))

    k_hat = lepski_select(estimates, cvs, q=cfg.q)
    trace.update(k_hat=k_hat, zeta_raw=cvs.raw, zeta_truncated=cvs.truncated,
                 zeta_at_k_hat=cvs.truncated[k_hat], window_sizes=window_sizes)
    return trace


def adaptive_estimate(sample, cfg: EstimatorConfig, x=None, grid=None):
    """Fully data-driven envelope estimate.

    Exactly one of x (single point) or grid (array of points) must be given.
    With cfg.q = None the bandwidth index is selected pointwise at each
    requested point; with cfg.q >= 1 a single index is selected from the
    empirical L_q distances between per-bandwidth curves over the design
    points, with tail parameters estimated at x = 1/2.

    sample may also be a sequence of R Samples of one n, such as Monte Carlo
    replicates.  Each (sample, point) pair is a site, sample-major, so site
    r * P + p is sample r at point p of P.  A selection is a site in
    pointwise mode and a sample in L_q mode, and every value and per-selection
    Diagnostics field is the one that sample alone gives.  The samples share
    one estimate_tail_at call per tail point: each requested point in
    pointwise mode, 1/2 in L_q mode.  Counters are summed over the
    selections, in selection order.

    Returns (values, Diagnostics); values is a float for one Sample at x,
    else one per site.  Failed points are NaN, never fatal.
    """
    if (x is None) == (grid is None):
        raise InvalidConfig("pass exactly one of x= or grid=")
    stack = not isinstance(sample, Sample)
    samples = check_stack(sample)
    n = samples[0].n
    bgrid = build_grid(n, cfg.h0_exponent, cfg.rho)
    counters: dict = {}
    warn: list = []
    if cfg.h0_exponent >= 0.5:
        warn.append(
            "h0_exponent >= 0.5: smallest windows may be too thin for stable tail estimation"
        )
    pts = check_points(grid if x is None else [x])
    bandwidths = bgrid.bandwidths[: bgrid.K + 1]
    sites = np.tile(pts, len(samples))
    if cfg.q is None:
        tail_points = pts
        # every row, not only k <= k_hat + 1: the benchmark's seed-0 reference
        # counts an lp_failure from a fit above k_hat + 1, so pointwise rows
        # stay eager until that reference is regenerated
        rows = np.array(list(EnvelopeRows(samples, pts, bandwidths, cfg.beta_star, counters)))
    else:
        tail_points, xs = np.array([0.5]), samples[0].xs()
        on_design = x is None and pts.size == n and np.allclose(pts, xs, rtol=0.0, atol=1e-12)
    # selection i reads the tail of sample i // T at tail point i % T
    T = tail_points.size
    tails, tail_counters = [None] * (T * len(samples)), [{} for _ in range(T * len(samples))]
    for p, xp in enumerate(tail_points):
        tails[p::T] = estimate_tail_at(samples, xp, bgrid, cfg.m_exponent, tail_counters[p::T])
    sizes = [_window_sizes(n, xp, bandwidths) for xp in tail_points]
    values, traces = [], []
    for i, te in enumerate(tails):
        for key, by in tail_counters[i].items():
            _bump(counters, key, by)
        # a site reads its column of the eager rows; an L_q sample (T = 1)
        # its own lazy rows over the design, dropped once its value is taken
        estimates = (rows[:, i] if cfg.q is None
                     else EnvelopeRows(samples[i], xs, bandwidths, cfg.beta_star, counters))
        traces.append(_select(te, cfg, bgrid, estimates, sizes[i % T], counters))
        k_hat = traces[-1]["k_hat"]
        # off the design an L_q sample's value is its refit at the grid alone; on it, row
        # k_hat is fitted (and counted) here when the selection read none (K = 0)
        value = (EnvelopeRows(samples[i], pts, [bandwidths[k_hat]], cfg.beta_star, counters)[0]
                 if cfg.q is not None and not on_design else estimates[k_hat])
        if cfg.q is None and np.isnan(value) and np.isfinite(estimates[:k_hat]).any():
            # nearest fit that succeeded at a smaller bandwidth
            value = estimates[np.flatnonzero(np.isfinite(estimates[:k_hat]))[-1]]
            _bump(counters, "selected_estimate_missing")
        values.append(value)

    # stacked in the blank trace's dtypes and per-selection shapes, which an empty grid keeps
    trace = {name: np.array([t[name] for t in traces], np.result_type(v)).reshape(-1, *np.shape(v))
             for name, v in _blank_trace(bgrid.K).items()}
    if cfg.q is not None and not stack:
        # one global selection: scalars and per-k vectors, not per-sample arrays
        trace = {name: v[0].item() if v.ndim == 1 else v[0] for name, v in trace.items()}
    diag = Diagnostics(
        mode="pointwise" if cfg.q is None else "lq",
        points=sites,
        grid=bgrid,
        counters=counters,
        warnings=warn,
        **trace,
    )
    values = np.array(values, dtype=float).reshape(-1)
    if x is not None and not stack:
        return float(values[0]), diag
    return values, diag
