"""Tail estimation for the one-sided error distribution.

The errors are nonpositive with survival behavior near zero governed by a
sharpness index alpha and a logarithmic correction exponent b.  Both are
estimated from the top order statistics of local windows, using a negative
Hill estimator for 1/alpha that is invariant to adding a constant to the
responses, and a companion estimator for b.  Per-bandwidth estimates are
stabilized by nested comparison selectors that stop as soon as successive
estimates drift more than a shrinking threshold apart.

The estimators work row-wise on a stack of windows, one row per sample, so
the Monte Carlo replicates at one point share each sort and sum; a single
window is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindow, DomainError, InvalidConfig
from .local_poly import Sample, check_points, check_stack, spread_overflows, window_bounds

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


def _fail(why, rows, message):
    """Give message to each row of the mask rows that has no reason yet."""
    for r in np.asarray(rows).nonzero()[0]:
        if why[r] is None:
            why[r] = message


def _raise_first(why):
    """The one-row case: raise row 0's reason, if it has one."""
    if why[0] is not None:
        raise DegenerateWindow(why[0])


def _order_one(window_ys, m, counters):
    """_order_rows on a copy of one window; returns (top row, window size)
    or raises the window's DegenerateWindow."""
    w = np.array(window_ys, dtype=float, ndmin=2)
    top, why = _order_rows(w, m, [counters])
    _raise_first(why)
    return top, w.shape[1]


def _check_m(m, size):
    if not 3 <= m <= size:
        raise InvalidConfig(f"m={m} outside [3, {size}]")


def _order_rows(stack, m, counters):
    """The top m descending order statistics of each row of the (R, size)
    stack, with deterministic tie breaking; stack is sorted in place.

    A row's tied values are pushed apart by a jitter of _TIE_JITTER * range *
    rank so downstream log-gap formulas stay finite, and its tied pairs are
    counted.  Returns (top, why): top is a fresh (R, min(m, size)) array, and
    why[r] says why row r is degenerate (all its values tie, or the jitter
    overflows), else None.
    """
    R, size = stack.shape
    if size == 0:
        return stack, ["empty window"] * R
    stack.sort(axis=1)
    top = stack[:, ::-1][:, : max(m, 0)].copy()
    why = [None] * R
    tied = stack[:, 1:] == stack[:, :-1]  # np.diff can overflow
    if np.count_nonzero(tied):
        # per row: tied rows are rare outside constant stretches of data
        for r, ties in enumerate(map(np.count_nonzero, tied)):
            if not ties:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                rng = stack[r, -1] - stack[r, 0]
                top[r] -= (_TIE_JITTER * rng) * np.arange(top.shape[1])
                lowest = stack[r, 0] - (_TIE_JITTER * rng) * (size - 1)  # the largest jitter
            if rng <= 0.0:
                why[r] = "all window values identical"
            elif not math.isfinite(lowest):
                why[r] = "the window's range or tie jitter overflows"
            else:
                _bump(counters[r], "ties_jittered", int(ties))
    return top, why


def neg_hill_inv_alpha(window_ys, m: int, counters=None) -> float:
    """Negative Hill estimate of 1/alpha from the top m order statistics.

    With Y_(1) >= ... >= Y_(nbar) the window order statistics,

        1/alpha = (1/m) * sum_{i=2}^{m-1} log(|Y_(m) - Y_(1)| / |Y_(i) - Y_(1)|).

    Exactly invariant to adding a constant to, or rescaling, the window.
    The one-row case of _neg_hill_rows.
    """
    top, size = _order_one(window_ys, m, counters)
    _check_m(m, size)
    inv_alpha, why = _neg_hill_rows(top)
    _raise_first(why)
    return float(inv_alpha[0])


def _neg_hill_rows(top):
    """neg_hill_inv_alpha of each row of top, the (R, m) order statistics
    that _order_rows gives; returns (1/alpha per row, why as in _order_rows)."""
    m = top.shape[1]
    first, last = top[:, 0], top[:, m - 1]
    # rows that fail a check below may overflow or divide by zero on the way
    with np.errstate(all="ignore"):
        gaps = first[:, None] - top[:, 1 : m - 1]
        span = first - last
        inv_alpha = np.sum(np.log(span[:, None] / gaps), axis=1) / m
    why = [None] * top.shape[0]
    overflows = [spread_overflows(a, b) for a, b in zip(first.tolist(), last.tolist())]
    # a zero gap gives an infinite or NaN 1/alpha, so a row with a finite,
    # positive one and no overflowing span passes every check
    if any(overflows) or not ((inv_alpha > 0.0) & (inv_alpha < math.inf)).all():
        _fail(why, overflows, "span of the top order statistics overflows")
        _fail(why, (span <= 0.0) | np.any(gaps <= 0.0, axis=1),
              "zero gap between top order statistics")
        _fail(why, ~np.isfinite(inv_alpha), "non-finite 1/alpha estimate")
        # Y_(2..m) tie: the jitter vanished in rounding next to a large level
        _fail(why, inv_alpha <= 0.0, "tied order statistics below the maximum")
    return inv_alpha, why


def estimate_b(window_ys, m: int, inv_alpha: float, n_bar: int | None = None,
               counters=None) -> float:
    """Estimate the log-correction exponent b given 1/alpha.

    b_hat = (1/(m loglog nbar)) * sum_{i=2}^{m-1}
            log(|Y_(i) - Y_(1)| / ((nbar/i)^(-inv_alpha) - nbar^(-inv_alpha))),

    with magnitudes inside the log (the numerator and denominator carry
    opposite signs in the raw display).  nbar defaults to the window size.
    The one-row case of _estimate_b_rows.
    """
    top, size = _order_one(window_ys, m, counters)
    if n_bar is None:
        n_bar = size
    if n_bar < 3:
        raise InvalidConfig("n_bar must be >= 3 for loglog scaling")
    _check_m(m, size)
    if inv_alpha <= 0.0:
        raise InvalidConfig("inv_alpha must be positive")
    b_hat, why = _estimate_b_rows(top, np.array([inv_alpha], dtype=float), n_bar)
    _raise_first(why)
    return float(b_hat[0])


def _estimate_b_rows(top, inv_alpha, n_bar: int):
    """estimate_b of each row of top, the (R, m) order statistics that
    _order_rows gives, with 1/alpha inv_alpha[r] > 0 (or NaN, for a row
    that is not read); returns (b per row, why as in _order_rows)."""
    m = top.shape[1]
    i = np.arange(2, m)
    # per row, as one row computes it: numpy's power takes a shortcut for a
    # scalar exponent of -1 that a row of a broadcast exponent does not
    den = np.full((top.shape[0], m - 2), np.nan)
    for r in np.isfinite(inv_alpha).nonzero()[0]:
        den[r] = (n_bar / i) ** (-inv_alpha[r]) - float(n_bar) ** (-inv_alpha[r])
    # the gaps may overflow; for a large inv_alpha both powers
    # can underflow, so num / den may be inf; such a window is degenerate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num = top[:, :1] - top[:, 1 : m - 1]
        b_hat = np.sum(np.log(num / den), axis=1) / (m * math.log(math.log(n_bar)))
    why = [None] * top.shape[0]
    _fail(why, np.any(num <= 0.0, axis=1), "zero gap between top order statistics")
    _fail(why, ~np.isfinite(b_hat), "non-finite b estimate")
    return b_hat, why


def tail_m(n_bar: int, m_exponent: float) -> int:
    """Order-statistic count m = max(3, round(2 * nbar^m_exponent)), clamped to nbar."""
    return int(min(n_bar, max(3, round(2.0 * n_bar**m_exponent))))


def _per_k_rows(ys, x: float, grid, m_exponent: float, counters):
    """Per-bandwidth 1/alpha for k = 0..K of R samples of one n at once: ys
    holds their responses, counters one dict (or None) per sample.

    Each window of at least 3 points is sorted once, as one (R, size) stack,
    so a row's tied pairs count once in ties_jittered, and only its top m
    order statistics are kept for the b estimator.  Returns (invs (R, K+1),
    ms, sizes, tops): 1/alpha, NaN where degenerate, the order-statistic
    counts, the window sizes, and the top order statistics per k ((R, m_k),
    or None where the window is too small).
    """
    R, n, K = len(ys), ys[0].size, grid.K
    invs = np.full((R, K + 1), np.nan)
    ms = np.zeros(K + 1, dtype=int)
    sizes = np.zeros(K + 1, dtype=int)
    tops = [None] * (K + 1)
    for k in range(K + 1):
        start, stop = window_bounds(n, x, grid.bandwidths[k])
        sizes[k] = stop - start
        if stop - start < 3:
            for c in counters:
                _bump(c, "tail_k_skipped")
            continue
        ms[k] = tail_m(stop - start, m_exponent)
        stack = np.empty((R, stop - start))
        for r, y in enumerate(ys):
            stack[r] = y[start:stop]
        tops[k], why = _order_rows(stack, int(ms[k]), counters)
        del stack
        inv_alpha, hill_why = _neg_hill_rows(tops[k])
        for r, (order_fails, hill_fails) in enumerate(zip(why, hill_why)):
            if order_fails is None and hill_fails is None:
                invs[r, k] = inv_alpha[r]
            else:
                _bump(counters[r], "tail_k_skipped")
    return invs, ms, sizes, tops


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


def estimate_tail_at(sample, x: float, grid, m_exponent: float, counters=None):
    """Full tail-parameter estimation at a point over the bandwidth grid.

    k_alpha is the nested selection over the per-k 1/alpha estimates with
    threshold rho^(-k) / log(n); k_b selects over k = 0..k_alpha among the b
    estimates built from the matching window and 1/alpha, with threshold
    rho^(-k) / loglog(n).

    sample is one Sample, which gives its TailEstimate or raises
    DegenerateWindow, or a sequence of R Samples of one n, such as Monte
    Carlo replicates, with counters None or one dict (or None) per sample.
    Then each window is sorted once for all R, the estimators run row-wise,
    and the result lists per sample its TailEstimate, or None where that
    sample alone raises; every value and counter is the one that sample
    alone gives.  The selectors run per row: they stop after a few
    comparisons, which vectorising across rows does not beat.
    """
    check_points(x)
    one = isinstance(sample, Sample)
    samples = check_stack(sample)
    R = len(samples)
    counters = [counters] if one else [None] * R if counters is None else list(counters)
    if len(counters) != R:
        raise InvalidConfig(f"{len(counters)} counters for {R} samples")
    invs, ms, sizes, tops = _per_k_rows([s.ys for s in samples], x, grid, m_exponent, counters)
    k_alpha = np.full(R, -1)  # -1: no usable window, and no b estimate read
    inv_alpha = np.full(R, np.nan)
    why = [None] * R
    for r in range(R):
        try:
            k_alpha[r], inv_alpha[r] = _nested_select(invs[r], grid.K, grid.rho, math.log(grid.n),
                                                      "tail estimation", counters[r])
        except DegenerateWindow as exc:
            why[r] = str(exc)
    bs = np.full((R, grid.K + 1), np.nan)
    for k in range(int(k_alpha.max()) + 1):
        read = (k <= k_alpha) & ~np.isnan(invs[:, k])
        if read.any():
            b_hat, b_why = _estimate_b_rows(tops[k], np.where(read, invs[:, k], np.nan),
                                            int(sizes[k]))
            for r in read.nonzero()[0]:
                if b_why[r] is None:
                    bs[r, k] = b_hat[r]
                else:
                    _bump(counters[r], "tail_k_skipped")
    del tops
    tails = [None] * R
    for r in (k_alpha >= 0).nonzero()[0]:
        try:
            k_b, b_hat = _nested_select(bs[r, : k_alpha[r] + 1], k_alpha[r], grid.rho,
                                        math.log(math.log(grid.n)), "the b estimator", counters[r])
        except DegenerateWindow as exc:
            why[r] = str(exc)
            continue
        if inv_alpha[r] > INV_ALPHA_CAP:
            _bump(counters[r], "inv_alpha_capped")
            inv_alpha[r] = INV_ALPHA_CAP
        tails[r] = TailEstimate(
            inv_alpha=float(inv_alpha[r]),
            b_hat=float(b_hat),
            k_alpha=int(k_alpha[r]),
            k_b=int(k_b),
            m_used=int(ms[k_alpha[r]]),
        )
    if one:
        _raise_first(why)
        return tails[0]
    return tails


def a_hat(tail, y):
    """Plug-in tail function A(y) = -(log y)^b * y^(-inv_alpha), y >= e.

    Reads tail.inv_alpha and tail.b_hat (a TailEstimate or TailFunction).
    A huge b_hat, as on data of scale 1e300, overflows to inf or NaN quietly.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < math.e * (1.0 - 1e-12)):
        raise DomainError("a_hat needs y >= e")
    with np.errstate(over="ignore", invalid="ignore"):
        val = -(np.log(y) ** tail.b_hat) * y ** (-tail.inv_alpha)
    return float(val) if val.ndim == 0 else val
