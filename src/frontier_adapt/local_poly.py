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
from .lp import OPTIMAL, LinearProgram, solve_lp

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


def spread_overflows(top: float, bottom: float) -> bool:
    """True when top - bottom (top >= bottom, both finite) may overflow.

    Tested without subtracting the two, so no overflow warning is raised;
    only spreads within an ulp of the largest float are flagged needlessly.
    """
    return top > 0.0 > bottom and bottom <= top - _FLOAT_MAX


def window_indices(n: int, x: float, h: float) -> np.ndarray:
    """Zero-based indices j-1 with |j/n - x| <= h (tiny fp slack included)."""
    lo = max(1, math.ceil(n * (x - h) - 1e-9))
    hi = min(n, math.floor(n * (x + h) + 1e-9))
    if hi < lo:
        return np.empty(0, dtype=np.intp)
    return np.arange(lo - 1, hi, dtype=np.intp)


def check_points(points) -> np.ndarray:
    """points as an at least 1-d float array; InvalidConfig unless every one
    is finite and lies in [0, 1], the span of the design."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
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


def fit_local(sample: Sample, x: float, h: float, degree: int) -> PolyFit:
    """LP envelope fit at x with bandwidth h.

    Coordinates are centered and scaled to t = (x_j - x)/h in [-1, 1] and the
    responses shifted by their window maximum before the solve; both are
    undone on the returned coefficients.  Needs degree + 2 window points.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not 0.0 < h:
        raise ValueError("bandwidth must be positive")
    idx = window_indices(sample.n, x, h)
    meff = idx.size
    if meff < degree + 2:
        raise WindowTooSmall(
            f"window at x={x} with h={h} has {meff} points, needs {degree + 2}"
        )
    t = (idx + 1) / sample.n - x
    t /= h
    yw = sample.ys[idx]
    shift = yw.max()
    if spread_overflows(shift, yw.min()):
        # finite responses such as 1e308 and -1e308
        raise NumericalBreakdown(f"shifted responses at x={x} with h={h} overflow")
    rhs = yw - shift

    # np.vander(t, degree + 1, increasing=True) without its wrapper cost
    powers = np.empty((meff, degree + 1))
    powers[:, 0] = 1.0
    powers[:, 1:] = t[:, None]
    np.multiply.accumulate(powers[:, 1:], axis=1, out=powers[:, 1:])
    lp = LinearProgram(
        objective=powers.sum(axis=0),
        constraint_matrix=powers,
        constraint_rhs=rhs,
    )
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        # feasible by construction (raising the constant term clears all
        # constraints) and bounded below by sum(yw), so anything else is
        # a numerical failure
        raise NumericalBreakdown(f"envelope LP returned status {sol.status}")

    coeffs = sol.variables / h ** np.arange(degree + 1)
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
    return float(fit_local(sample, x, h, degree).coeffs[0])


def estimate_curve(sample: Sample, grid, h: float, degree: int) -> np.ndarray:
    """Envelope estimates over a grid; windows too small give NaN entries."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    out = np.full(grid.size, np.nan)
    for i, x in enumerate(grid):
        try:
            out[i] = estimate_at(sample, x, h, degree)
        except WindowTooSmall:
            pass
    return out
