"""Tail estimation for the one-sided error distribution.

The errors are nonpositive with survival behavior near zero governed by a
sharpness index alpha and a logarithmic correction exponent b.  Both are
estimated from the top order statistics of local windows, using a negative
Hill estimator for 1/alpha that is invariant to adding a constant to the
responses, and a companion estimator for b.  Per-bandwidth estimates are
stabilized by nested comparison selectors that stop as soon as successive
estimates drift more than a shrinking threshold apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindow, DomainError, InvalidConfig
from .local_poly import Sample, check_points, spread_overflows, window_indices

INV_ALPHA_CAP = 10.0  # selected 1/alpha capped here (alpha >= 0.1), counted
_TIE_JITTER = 1e-12   # relative to the window range


@dataclass(frozen=True)
class TailEstimate:
    """Selected tail parameters at a point.

    inv_alpha is 1/alpha after capping; k_alpha and k_b are the selected
    bandwidth indices for the two estimators; m_used is the order-statistic
    count at k_alpha.  Invariants: inv_alpha in (0, INV_ALPHA_CAP],
    0 <= k_b <= k_alpha <= K.
    """

    inv_alpha: float
    b_hat: float
    k_alpha: int
    k_b: int
    m_used: int


@dataclass(frozen=True)
class TailFunction:
    """Plug-in tail quantile function A(y) = -(log y)^b_hat * y^(-inv_alpha)."""

    inv_alpha: float
    b_hat: float


def _bump(counters, key, by=1):
    if counters is not None:
        counters[key] = counters.get(key, 0) + by


def _order_desc(window_ys, counters=None):
    """Descending order statistics with deterministic tie breaking.

    Tied values are pushed apart by a jitter of _TIE_JITTER * range * rank so
    downstream log-gap formulas stay finite; the number of tied pairs is
    counted.  Raises DegenerateWindow when every value is identical.
    """
    w = np.sort(np.asarray(window_ys, dtype=float))[::-1]
    if w.size == 0:
        raise DegenerateWindow("empty window")
    ties = int(np.count_nonzero(np.diff(w) == 0.0))
    if ties:
        rng = w[0] - w[-1]
        if rng <= 0.0:
            raise DegenerateWindow("all window values identical")
        _bump(counters, "ties_jittered", ties)
        w = w - (_TIE_JITTER * rng) * np.arange(w.size)
    return w


def neg_hill_inv_alpha(window_ys, m: int, counters=None) -> float:
    """Negative Hill estimate of 1/alpha from the top m order statistics.

    With Y_(1) >= ... >= Y_(nbar) the window order statistics,

        1/alpha = (1/m) * sum_{i=2}^{m-1} log(|Y_(m) - Y_(1)| / |Y_(i) - Y_(1)|).

    Exactly invariant to adding a constant to, or rescaling, the window.
    """
    w = _order_desc(window_ys, counters)
    if not 3 <= m <= w.size:
        raise InvalidConfig(f"m={m} outside [3, {w.size}]")
    top = w[0]
    if spread_overflows(top, w[m - 1]):
        raise DegenerateWindow("span of the top order statistics overflows")
    span = top - w[m - 1]
    gaps = top - w[1 : m - 1]
    if span <= 0.0 or np.any(gaps <= 0.0):
        raise DegenerateWindow("zero gap between top order statistics")
    inv_alpha = float(np.sum(np.log(span / gaps)) / m)
    if inv_alpha <= 0.0:
        # Y_(2..m) tie: the jitter vanished in rounding next to a large level
        raise DegenerateWindow("tied order statistics below the maximum")
    return inv_alpha


def estimate_b(window_ys, m: int, inv_alpha: float, n_bar: int | None = None,
               counters=None) -> float:
    """Estimate the log-correction exponent b given 1/alpha.

    b_hat = (1/(m loglog nbar)) * sum_{i=2}^{m-1}
            log(|Y_(i) - Y_(1)| / ((nbar/i)^(-inv_alpha) - nbar^(-inv_alpha))),

    with magnitudes inside the log (the numerator and denominator carry
    opposite signs in the raw display).  nbar defaults to the window size.
    """
    w = _order_desc(window_ys, counters)
    if n_bar is None:
        n_bar = w.size
    if n_bar < 3:
        raise InvalidConfig("n_bar must be >= 3 for loglog scaling")
    if not 3 <= m <= w.size:
        raise InvalidConfig(f"m={m} outside [3, {w.size}]")
    if inv_alpha <= 0.0:
        raise InvalidConfig("inv_alpha must be positive")
    top = w[0]
    i = np.arange(2, m)
    num = top - w[i - 1]
    if np.any(num <= 0.0):
        raise DegenerateWindow("zero gap between top order statistics")
    den = (n_bar / i) ** (-inv_alpha) - float(n_bar) ** (-inv_alpha)
    # for a large inv_alpha both powers can underflow, so num / den may be
    # inf; such a window is degenerate
    with np.errstate(divide="ignore", over="ignore"):
        b_hat = float(np.sum(np.log(num / den)) / (m * math.log(math.log(n_bar))))
    if not math.isfinite(b_hat):
        raise DegenerateWindow("non-finite b estimate")
    return b_hat


def tail_m(n_bar: int, m_exponent: float) -> int:
    """Order-statistic count m = max(3, round(2 * nbar^m_exponent)), clamped to nbar."""
    return int(min(n_bar, max(3, round(2.0 * n_bar**m_exponent))))


def per_k_inv_alphas(sample: Sample, x: float, grid, m_exponent: float,
                     counters=None):
    """Per-bandwidth (1/alpha, m, window) for k = 0..K; NaN where degenerate."""
    K = grid.K
    invs = np.full(K + 1, np.nan)
    ms = np.zeros(K + 1, dtype=int)
    windows = []
    for k in range(K + 1):
        idx = window_indices(sample.n, x, grid.bandwidths[k])
        w = sample.ys[idx]
        windows.append(w)
        if w.size < 3:
            _bump(counters, "tail_k_skipped")
            continue
        ms[k] = tail_m(w.size, m_exponent)
        try:
            invs[k] = neg_hill_inv_alpha(w, ms[k], counters)
        except DegenerateWindow:
            _bump(counters, "tail_k_skipped")
    return invs, ms, windows


def first_drift(K: int, distance, threshold) -> int:
    """First k in 0..K-1 with distance(k, l) > threshold(k, l) for some l <= k;
    K when no such drift occurs.  A NaN distance never fires.

    This is the comparison rule shared by the nested tail selectors and the
    Lepski bandwidth selection (Lepski, Mammen & Spokoiny 1997): stop at the
    first k whose next estimate drifts from an earlier one.
    """
    for k in range(K):
        for l in range(k + 1):
            if distance(k, l) > threshold(k, l):
                return k
    return K


def _nested_select(values, K, rho, scale, what, counters=None):
    """Nested selector over per-k estimates values[0..K].

    The index is the first drift of |values[k+1] - values[l]| beyond
    rho^(-k) / scale.  A NaN estimate there is replaced by the nearest valid
    one above it, else by the last valid one, and counted.  Returns
    (k, value at k); raises DegenerateWindow when no estimate is valid.
    """
    if np.all(np.isnan(values)):
        raise DegenerateWindow(f"no usable window for {what}")
    k = first_drift(K, lambda k, l: abs(values[k + 1] - values[l]),
                    lambda k, l: rho**(-k) / scale)
    value = values[k]
    if np.isnan(value):
        valid = np.flatnonzero(~np.isnan(values))
        above = valid[valid > k]
        value = values[above[0]] if above.size else values[valid[-1]]
        _bump(counters, "selected_estimate_missing")
    return int(k), float(value)


def estimate_tail_at(sample: Sample, x: float, grid, m_exponent: float,
                     counters=None) -> TailEstimate:
    """Full tail-parameter estimation at a point over the bandwidth grid.

    k_alpha is the nested selection over the per-k 1/alpha estimates with
    threshold rho^(-k) / log(n); k_b selects over k = 0..k_alpha among the b
    estimates built from the matching window and 1/alpha, with threshold
    rho^(-k) / loglog(n).
    """
    check_points(x)
    invs, ms, windows = per_k_inv_alphas(sample, x, grid, m_exponent, counters)
    k_alpha, inv_alpha = _nested_select(invs, grid.K, grid.rho, math.log(grid.n),
                                        "tail estimation", counters)
    bs = np.full(k_alpha + 1, np.nan)
    for k in range(k_alpha + 1):
        if np.isnan(invs[k]):
            continue
        try:
            bs[k] = estimate_b(windows[k], ms[k], invs[k], windows[k].size, counters)
        except DegenerateWindow:
            _bump(counters, "tail_k_skipped")
    k_b, b_hat = _nested_select(bs, k_alpha, grid.rho, math.log(math.log(grid.n)),
                                "the b estimator", counters)
    if inv_alpha > INV_ALPHA_CAP:
        _bump(counters, "inv_alpha_capped")
        inv_alpha = INV_ALPHA_CAP
    return TailEstimate(
        inv_alpha=float(inv_alpha),
        b_hat=float(b_hat),
        k_alpha=k_alpha,
        k_b=k_b,
        m_used=int(ms[k_alpha]),
    )


def a_hat(tf, y):
    """Plug-in tail function A(y) = -(log y)^b * y^(-inv_alpha), y >= e."""
    y = np.asarray(y, dtype=float)
    if np.any(y < math.e * (1.0 - 1e-12)):
        raise DomainError("a_hat needs y >= e")
    val = -(np.log(y) ** tf.b_hat) * y ** (-tf.inv_alpha)
    return float(val) if val.ndim == 0 else val
