"""Local polynomial envelope fits on an equidistant design.

A sample holds responses y_1..y_n observed at x_j = j/n.  The fit at a point
x with bandwidth h is the polynomial of the requested degree that lies on or
above every observation in the window |x_j - x| <= h while minimizing the
sum of its values over the window; the boundary estimate is its value at x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NumericalBreakdown, WindowTooSmall
from .lp import OPTIMAL, _unchecked_lp, batch_size, solve_lp, solve_lp_batch

_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class Sample:
    """Responses on the equidistant design x_j = j/n, j = 1..n."""

    ys: np.ndarray

    def __post_init__(self):
        ys = np.atleast_1d(np.asarray(self.ys, dtype=float))
        if ys.ndim != 1 or ys.size < 2:
            raise ValueError("sample needs at least two observations")
        if not np.isfinite(ys).all():
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.ys.size

    def xs(self) -> np.ndarray:
        return np.arange(1, self.n + 1) / self.n


def check_stack(sample) -> list:
    """sample as a list of Samples: [sample] for one Sample; InvalidConfig
    unless it is one or a non-empty sequence of Samples of one n."""
    samples = [sample] if isinstance(sample, Sample) else list(sample)
    if not (samples and all(isinstance(s, Sample) and s.n == samples[0].n for s in samples)):
        raise InvalidConfig("a sequence of samples needs one or more Samples of one n")
    return samples


def spread_overflows(top, bottom):
    """True where top - bottom (top >= bottom, both finite) may overflow, elementwise.

    Tested without subtracting the two, so no overflow warning is raised;
    only spreads within an ulp of the largest float are flagged needlessly.
    """
    return (top > 0.0) & (0.0 > bottom) & (bottom <= np.maximum(top, 0.0) - _FLOAT_MAX)


def window_bounds(n: int, x: float, h: float) -> tuple[int, int]:
    """Zero-based slice (start, stop) of the design points j/n with
    |j/n - x| <= h (tiny fp slack included); stop == start when empty.

    A bandwidth reaching past the design, infinite included, gives the whole
    design.
    """
    x, h = float(x), float(h)  # Python floats overflow to inf without a warning
    lo = max(1, math.ceil(max(n * (x - h) - 1e-9, 0.0)))
    hi = min(n, math.floor(min(n * (x + h) + 1e-9, n)))
    return lo - 1, max(lo - 1, hi)


def _window_scale(h):
    """min(h, 2): every h >= 1 spans the whole design, and a huge h would
    squeeze the window coordinates to zeros and flatten the fit."""
    return min(h, 2.0)


def window_indices(n: int, x: float, h: float) -> np.ndarray:
    """Zero-based indices j-1 with |j/n - x| <= h (tiny fp slack included)."""
    return np.arange(*window_bounds(n, x, h), dtype=np.intp)


def check_points(points) -> np.ndarray:
    """points as a 1-d float array; InvalidConfig unless they form at most
    one dimension and every one is finite and lies in [0, 1], the span of
    the design."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim != 1:
        raise InvalidConfig(f"estimation points must be finite numbers in one dimension, "
                            f"got shape {pts.shape}")
    # NaN fails both comparisons
    bad = pts[~((pts >= 0.0) & (pts <= 1.0))]
    if bad.size:
        raise InvalidConfig(
            f"estimation points must be finite and lie in [0, 1], got {float(bad[0])!r}"
        )
    return pts


@dataclass(frozen=True)
class PolyFit:
    """Fitted envelope polynomial sum_j coeffs[j] * (x - center)^j."""

    center: float
    bandwidth: float
    degree: int
    coeffs: np.ndarray
    window_size: int
    objective_value: float

    def __call__(self, x):
        t = np.asarray(x, dtype=float) - self.center
        return np.polynomial.polynomial.polyval(t, self.coeffs)


def _solve_window(sample: Sample, x: float, h: float, degree: int):
    """Envelope LP at x with bandwidth h in centered, scaled coordinates.

    Returns (solution, shift, scale, window size); the solution's
    coefficients are in t = (x_j - x)/scale, scale = _window_scale(h), and
    its responses are shifted down by shift.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not 0.0 < h:
        raise ValueError("bandwidth must be positive")
    start, stop = window_bounds(sample.n, x, h)
    meff = stop - start
    if meff < degree + 2:
        raise WindowTooSmall(
            f"window at x={x} with h={h} has {meff} points, needs {degree + 2}"
        )
    _, powers, objective, rhs, shift = _window_lps(sample, x, start, meff, h, degree)
    sol = solve_lp(_unchecked_lp(objective, powers.T, rhs))
    if sol.status != OPTIMAL:
        # feasible by construction (raising the constant term clears all
        # constraints) and bounded below by sum(yw), so anything else is
        # a numerical failure
        raise NumericalBreakdown(f"envelope LP returned status {sol.status}")
    return sol, shift, _window_scale(h), meff


def fit_local(sample: Sample, x: float, h: float, degree: int) -> PolyFit:
    """LP envelope fit at x with bandwidth h.

    Coordinates are centered and scaled to t = (x_j - x)/min(h, 2) in [-1, 1]
    and the responses shifted by their window maximum before the solve; both
    are undone on the returned coefficients.  Needs degree + 2 window points.
    """
    sol, shift, scale, meff = _solve_window(sample, x, h, degree)
    coeffs = sol.variables / scale ** np.arange(degree + 1)
    coeffs[0] += shift
    return PolyFit(
        center=float(x),
        bandwidth=float(h),
        degree=degree,
        coeffs=coeffs,
        window_size=int(meff),
        objective_value=float(sol.objective_value + meff * shift),
    )


def estimate_at(sample: Sample, x: float, h: float, degree: int) -> float:
    """Envelope estimate at a single point (constant coefficient of the fit)."""
    sol, shift, _, _ = _solve_window(sample, x, h, degree)
    return float(sol.variables[0] + shift)


def estimate_windows(samples, xs, starts, meff: int, h: float, degree: int):
    """Envelope estimates at sites whose windows all hold meff points.

    Site i is the point xs[i] of the Sample samples[i]; all share one n.
    Its window starts at the zero-based design index starts[i]; the caller
    has it from window_bounds, with meff >= degree + 2.  _window_lps stacks
    their LPs, which are solved in lockstep batches of lp.batch_size.
    Returns (values, iterations, solved).  Where solved, values[i] is
    estimate_at(samples[i], xs[i], h, degree) bit for bit and iterations[i]
    counts its LP's pivots; elsewhere values[i] is NaN, and estimate_at
    gives the value or raises NumericalBreakdown.
    """
    xs = np.asarray(xs, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    values = np.full(xs.size, np.nan)
    iterations = np.zeros(xs.size, dtype=int)
    solved = np.zeros(xs.size, dtype=bool)
    step = batch_size(meff, degree + 1)
    for lo in range(0, xs.size, step):
        at = slice(lo, lo + step)
        fits, powers, objective, rhs, shift = _window_lps(
            samples[at], xs[at], starts[at], meff, h, degree)
        b, iterations[at], solved[at] = solve_lp_batch(np.swapaxes(powers, -1, -2), rhs, objective)
        solved[at] &= fits
        values[at] = np.where(fits, b[:, 0] + shift[:, 0], np.nan)
    return values, iterations, solved


def _window_lps(samples, xs, starts, meff, h, degree):
    """The envelope LPs of _solve_window at points xs whose windows hold
    the meff design points from the zero-based index starts.

    xs and starts are a float and an int for one window of the Sample
    samples, whose responses stay a view of it, or 1-D arrays for a stack
    of windows, one per row, where row i is the window of the Sample
    samples[i].  Returns (fits, powers, objective, rhs, shift): powers has
    shape (..., degree + 1, meff), the constraint matrix transposed, and
    rhs holds the responses less their maximum, shift.  A stack whose
    windows all sit at one point, as replicates do, gets that point's
    powers and objective, one for every row.  Where the shift would
    overflow, one window raises NumericalBreakdown, and in a stack fits
    marks the window False and its rhs holds zeros.
    """
    if isinstance(starts, np.ndarray):
        n = samples[0].n
        yw = np.array([s.ys[a : a + meff] for s, a in zip(samples, starts.tolist())])
        shift = yw.max(axis=1, keepdims=True)
        fits = ~spread_overflows(shift[:, 0], yw.min(axis=1))
        if not fits.all():
            yw = np.where(fits[:, None], yw, shift)
        if (xs == xs[0]).all() and (starts == starts[0]).all():  # one basis for the stack
            xs, starts = float(xs[0]), int(starts[0])
    else:
        n, yw = samples.n, samples.ys[starts : starts + meff]
        shift, fits = yw.max(), True
        if spread_overflows(shift, yw.min()):  # finite responses such as 1e308 and -1e308
            raise NumericalBreakdown(f"shifted responses at x={xs} with h={h} overflow")
    if isinstance(starts, np.ndarray):
        t = np.arange(1.0, meff + 1) + starts[:, None]
        xs = xs[:, None]
    else:
        t = np.arange(starts + 1, starts + meff + 1, dtype=float)
    t /= n
    t -= xs
    t /= _window_scale(h)
    powers, objective = _power_basis(t, degree)
    return fits, powers, objective, yw - shift, shift


def _power_basis(t, degree):
    """The envelope LP's basis and objective at window coordinates t.

    t has shape (..., m).  powers has shape (..., degree + 1, m), row j
    holding t**j, one product per row; the LP's constraint matrix is its
    transpose.  objective holds each row's sum with its terms added in
    order, by np.add.accumulate along the contiguous row, as sum(axis=0)
    adds the columns of a C-ordered (m, degree + 1) basis; the constant
    row's sum is m exactly.
    """
    m = t.shape[-1]
    powers = np.empty(t.shape[:-1] + (degree + 1, m))
    row = powers[..., 0, :]
    row[...] = 1.0
    for j in range(1, degree + 1):
        row = np.multiply(row, t, out=powers[..., j, :])
    objective = np.empty(powers.shape[:-1])
    objective[..., 0] = m
    objective[..., 1:] = np.add.accumulate(powers[..., 1:, :], axis=-1)[..., -1]
    return powers, objective
