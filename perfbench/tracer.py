"""Per-layer spans recorded from the benchmark's side of each call.

The package binds names with ``from .lp import solve_lp`` and the like, so a
wrapper only sees the calls that go through the name it replaces.  Every
wrapper is therefore installed at the call site (``local_poly.solve_lp``,
``adapt.estimate_at``, ``cli.mc_risk``, ...), never in the defining module.
A span's self time is its duration minus the time of the spans nested in it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from frontier_adapt import adapt, cli, local_poly, simkit
from frontier_adapt.errors import DegenerateWindow
from frontier_adapt.lp import OPTIMAL

# Diagnostics.counters keys summed over every adaptive_estimate call.
COUNTER_KEYS = (
    "degree_lowered",
    "window_too_small",
    "lp_failures",
    "selected_estimate_missing",
    "tail_degenerate_points",
    "tail_k_skipped",
    "ties_jittered",
    "inv_alpha_capped",
)

SPANS = (
    "cli",
    "simkit.mc_risk",
    "simkit.gen_sample",
    "adapt",
    "tail",
    "adapt.cv",
    "adapt.iu_n",
    "local_poly",
    "lp",
    "adapt.lepski",
)


class Tracer:
    """Call counts, busy and self time per span, plus layer counts.

    ``installed(tracer.call_sites(bench))`` patches the call sites for the
    duration of one traced operation and restores them afterwards, so
    untraced operations in the same process run the package's own functions.
    """

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.fit_s = 0.0
        self.fit_s_needed = 0.0
        self._child_s = []   # per open span: time spent in nested spans
        self._fits = None    # (x, h, seconds) of the fits in the open adapt span

    def _enter(self):
        self._child_s.append(0.0)
        return perf_counter()

    def _exit(self, name, t0):
        dt = perf_counter() - t0
        child = self._child_s.pop()
        self.calls[name] += 1
        self.busy[name] += dt
        self.self_s[name] += dt - child
        if self._child_s:
            self._child_s[-1] += dt
        return dt

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)

        return wrapper

    def _solve_lp(self, fn):
        def solve_lp(lp):
            t0 = self._enter()
            try:
                sol = fn(lp)
            except Exception:
                self.counts["lp.failed"] += 1
                raise
            finally:
                self._exit("lp", t0)
            self.counts["lp.pivots"] += sol.iterations
            self.counts["lp.rows"] += lp.n_constraints
            if sol.status != OPTIMAL:
                self.counts["lp.failed"] += 1
            return sol

        return solve_lp

    def _estimate_at(self, fn):
        def estimate_at(sample, x, h, degree):
            t0 = self._enter()
            try:
                return fn(sample, x, h, degree)
            finally:
                dt = self._exit("local_poly", t0)
                if self._fits is not None:
                    self._fits.append((float(x), float(h), dt))

        return estimate_at

    def _estimate_tail_at(self, fn):
        def estimate_tail_at(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            except DegenerateWindow:
                self.counts["tail.degenerate"] += 1
                raise
            finally:
                self._exit("tail", t0)

        return estimate_tail_at

    def _adaptive_estimate(self, fn, count_replicates=False):
        def adaptive_estimate(*args, **kwargs):
            outer, self._fits = self._fits, []
            fits = self._fits
            t0 = self._enter()
            try:
                values, diag = fn(*args, **kwargs)
            finally:
                self._exit("adapt", t0)
                self._fits = outer
            self._account(diag, fits)
            if count_replicates and np.all(np.isfinite(values)):
                self.counts["simkit.replicates_kept"] += 1
            return values, diag

        return adaptive_estimate

    def _mc_risk(self, fn):
        timed = self._timed("simkit.mc_risk", fn)

        def mc_risk(f, em, cfg, n, reps, *args, **kwargs):
            self.counts["simkit.replicates"] += reps
            return timed(f, em, cfg, n, reps, *args, **kwargs)

        return mc_risk

    def _account(self, diag, fits):
        """Fit time at k <= k_hat + 1 (what the Lepski rule reads) and counters."""
        k_of = {float(h): k for k, h in enumerate(diag.grid.bandwidths)}
        if diag.mode == "lq":
            limit = {x: int(diag.k_hat) + 1 for x, _, _ in fits}
        else:
            limit = {float(p): int(k) + 1 for p, k in zip(diag.points, diag.k_hat)}
        for x, h, dt in fits:
            self.fit_s += dt
            if k_of.get(h, np.inf) <= limit.get(x, -1):
                self.fit_s_needed += dt
        for key in COUNTER_KEYS:
            self.counts["adapt.counters." + key] += diag.counters.get(key, 0)

    def call_sites(self, bench):
        """(module, name, wrapper) for every traced call site.

        ``bench`` is the benchmark module whose own calls into the package
        (``adaptive_estimate``, ``cli_main``) are traced like the package's.
        """
        return [
            (bench, "cli_main", self._timed("cli", bench.cli_main)),
            (bench, "adaptive_estimate", self._adaptive_estimate(bench.adaptive_estimate)),
            (cli, "adaptive_estimate", self._adaptive_estimate(cli.adaptive_estimate)),
            (cli, "mc_risk", self._mc_risk(cli.mc_risk)),
            (simkit, "adaptive_estimate",
             self._adaptive_estimate(simkit.adaptive_estimate, count_replicates=True)),
            (simkit, "gen_sample", self._timed("simkit.gen_sample", simkit.gen_sample)),
            (adapt, "estimate_tail_at", self._estimate_tail_at(adapt.estimate_tail_at)),
            (adapt, "critical_values_pointwise",
             self._timed("adapt.cv", adapt.critical_values_pointwise)),
            (adapt, "critical_values_lq", self._timed("adapt.cv", adapt.critical_values_lq)),
            (adapt, "iu_n", self._timed("adapt.iu_n", adapt.iu_n)),
            (adapt, "lepski_select", self._timed("adapt.lepski", adapt.lepski_select)),
            (adapt, "estimate_at", self._estimate_at(adapt.estimate_at)),
            (local_poly, "solve_lp", self._solve_lp(local_poly.solve_lp)),
        ]

    def fired(self):
        return {name for name in SPANS if self.calls[name] > 0}

    def per_op(self, ops: int) -> dict:
        """Per-layer metrics per traced operation: name -> (value, unit)."""
        c, b, s, n = self.calls, self.busy, self.self_s, self.counts

        def share(num, den):
            return num / den if den else 0.0

        out = {
            "lp.calls": (c["lp"] / ops, "count/op"),
            "lp.busy_s": (b["lp"] / ops, "s/op"),
            "lp.us_per_call": (1e6 * share(b["lp"], c["lp"]), "us"),
            "lp.pivots": (n["lp.pivots"] / ops, "count/op"),
            "lp.pivots_per_call": (share(n["lp.pivots"], c["lp"]), "count"),
            "lp.rows": (n["lp.rows"] / ops, "count/op"),
            "lp.failed": (n["lp.failed"] / ops, "count/op"),
            "local_poly.calls": (c["local_poly"] / ops, "count/op"),
            "local_poly.busy_s": (b["local_poly"] / ops, "s/op"),
            "local_poly.self_s": (s["local_poly"] / ops, "s/op"),
            "tail.calls": (c["tail"] / ops, "count/op"),
            "tail.busy_s": (b["tail"] / ops, "s/op"),
            "tail.degenerate": (n["tail.degenerate"] / ops, "count/op"),
            "adapt.busy_s": (b["adapt"] / ops, "s/op"),
            "adapt.self_s": (s["adapt"] / ops, "s/op"),
            "adapt.cv.calls": (c["adapt.cv"] / ops, "count/op"),
            "adapt.cv.busy_s": (b["adapt.cv"] / ops, "s/op"),
            "adapt.iu_n.calls": (c["adapt.iu_n"] / ops, "count/op"),
            "adapt.iu_n.busy_s": (b["adapt.iu_n"] / ops, "s/op"),
            "adapt.lepski.calls": (c["adapt.lepski"] / ops, "count/op"),
            "adapt.lepski.busy_s": (b["adapt.lepski"] / ops, "s/op"),
            "adapt.fit_s_needed_share": (share(self.fit_s_needed, self.fit_s), "ratio"),
        }
        for key in COUNTER_KEYS:
            out["adapt.counters." + key] = (n["adapt.counters." + key] / ops, "count/op")
        out.update({
            "simkit.gen_sample.calls": (c["simkit.gen_sample"] / ops, "count/op"),
            "simkit.gen_sample.busy_s": (b["simkit.gen_sample"] / ops, "s/op"),
            "simkit.mc_risk.busy_s": (b["simkit.mc_risk"] / ops, "s/op"),
            "simkit.self_s": (s["simkit.mc_risk"] / ops, "s/op"),
            "simkit.replicates": (n["simkit.replicates"] / ops, "count/op"),
            "simkit.replicates_kept_share": (
                share(n["simkit.replicates_kept"], n["simkit.replicates"]), "ratio"),
            "cli.busy_s": (b["cli"] / ops, "s/op"),
            "cli.self_s": (s["cli"] / ops, "s/op"),
        })
        return out


@contextmanager
def installed(sites):
    """Patch every call site for the duration of the block, then restore it."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in sites]
    for module, name, wrapper in sites:
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
