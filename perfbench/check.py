"""Output checks: stored reference, exact repeat, and independent LP re-solves."""

from __future__ import annotations

import math

import numpy as np

from frontier_adapt.errors import NumericalBreakdown
from frontier_adapt.local_poly import fit_local, window_indices

REL_TOL = 1e-12       # estimates, risks and stderrs against the reference
OBJECTIVE_TOL = 1e-7  # envelope LP objective against HiGHS


def compare(ref, got, rel_tol=REL_TOL, path="") -> list:
    """Differences between two output records.

    Floats agree within ``rel_tol`` relative (NaN matches only NaN); ints,
    strings, None and dict keys must match exactly.  Returns one message per
    difference, naming where it is.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path or 'record'}: keys {sorted(ref)} != {sorted(got or {})}"]
        out = []
        for key in sorted(ref):
            out += compare(ref[key], got[key], rel_tol, f"{path}.{key}" if path else key)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length {len(ref)} != {len(got) if isinstance(got, list) else got!r}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += compare(a, b, rel_tol, f"{path}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, float):
        if math.isnan(ref) and math.isnan(got):
            return []
        if abs(ref - got) <= rel_tol * max(abs(ref), abs(got)):
            return []
        return [f"{path}: {got!r} differs from {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def count_gaps(values) -> int:
    return int(np.count_nonzero(~np.isfinite(np.asarray(values, dtype=float))))


def gap_budget(counters) -> int:
    """NaN estimates that the program's counters account for."""
    return counters.get("window_too_small", 0) + counters.get("lp_failures", 0)


def resolve_selected_fit(sample, x, h, beta_star, reported, counters) -> list:
    """Re-solve the envelope LP behind one selected estimate.

    The degree rule matches the pipeline's small-window fallback.  The
    reported estimate must be the constant coefficient of the package's fit,
    and the fit's objective must agree with scipy's HiGHS on the same LP.
    """
    from scipy.optimize import linprog

    idx = window_indices(sample.n, x, h)
    degree = min(beta_star, idx.size - 2)
    where = f"fit at x={x!r}, h={h!r}"
    if degree < 0:
        return []  # window_too_small: the pipeline reports NaN or a fallback
    try:
        fit = fit_local(sample, x, h, degree)
    except NumericalBreakdown:
        if counters.get("lp_failures", 0):
            return []
        return [f"{where}: LP breakdown not accounted for by the counters"]
    problems = compare(float(fit.coeffs[0]), float(reported), path=where)

    t = ((idx + 1) / sample.n - x) / h
    y = sample.ys[idx]
    shift = y.max()
    powers = np.vander(t, degree + 1, increasing=True)
    res = linprog(
        powers.sum(axis=0),
        A_ub=-powers,
        b_ub=-(y - shift),
        bounds=[(None, None)] * (degree + 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        return problems + [f"{where}: HiGHS status {res.status} ({res.message})"]
    highs = float(res.fun) + idx.size * shift
    ours = fit.objective_value
    if abs(highs - ours) > OBJECTIVE_TOL * max(abs(highs), abs(ours), 1.0):
        problems.append(f"{where}: objective {ours!r} but HiGHS gives {highs!r}")
    return problems
