"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload draws a pool of inputs from the benchmark seed and cycles
through it, so one run averages over several inputs.  ``run`` is the timed
operation; ``read``, ``invariants`` and ``resolve`` run after the timed
region.  ``read`` turns an operation's outputs into a JSON-able record that
is compared with the stored reference, and with earlier repeats of the same
input.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from check import count_gaps, gap_budget, resolve_selected_fit
from frontier_adapt.adapt import EstimatorConfig, adaptive_estimate
from frontier_adapt.cli import main as cli_main
from frontier_adapt.simkit import ErrorModel, alpha_profile, builtin_f, gen_sample

BETA_STAR = EstimatorConfig().beta_star


class OpFailed(Exception):
    """The CLI returned a nonzero exit code."""


def _cli(argv):
    code = cli_main(argv)
    if code != 0:
        raise OpFailed(f"exit {code} from {' '.join(argv)}")


def _floats(values):
    return [float(v) for v in values]


def _sub_seeds(seed, count):
    """Independent nonnegative int seeds, one per pool entry."""
    return [int(s) for s in np.random.SeedSequence([seed, 7]).generate_state(count)]


class LqDesign:
    """CLI ``estimate --q 1``: one L_q fit over every design point."""

    name = "lq_design"
    pool = 4
    n = 1600
    params = {"argv": "estimate <sample.csv> --q 1", "n": n, "f": "f2",
              "noise": "negexp(rate=1)", "pool": pool}
    spans = {"cli", "adapt", "tail", "adapt.cv", "adapt.iu_n", "local_poly", "lp", "adapt.lepski"}
    # design indices whose selected fits are re-solved with HiGHS
    resolve_points = (0, 159, 799, 1279, 1599)

    def make_inputs(self, seed, workdir):
        inputs = []
        for i in range(self.pool):
            sample = gen_sample(builtin_f("f2"), ErrorModel("negexp", rate=1.0), self.n, (seed, i))
            path = f"{workdir}/lq_sample_{i}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("x,y\n")
                for x, y in zip(sample.xs(), sample.ys):
                    fh.write("%.17g,%.17g\n" % (x, y))
            inputs.append((path, sample))
        return inputs

    def warm_up(self, workdir):
        sample = gen_sample(builtin_f("f2"), ErrorModel("negexp"), 200, 0)
        path = f"{workdir}/warm.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y\n" + "".join("%.17g\n" % y for y in sample.ys))
        _cli(["estimate", path, "--q", "1", "--out", f"{workdir}/warm_out.csv"])

    def run(self, inp, out):
        _cli(["estimate", inp[0], "--q", "1", "--out", out + ".csv"])
        return out

    def read(self, inp, out):
        with open(out + ".csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        with open(out + ".diagnostics.json", encoding="utf-8") as fh:
            diag = json.load(fh)
        return {
            "x_is_design": [float(r[0]) for r in rows] == inp[1].xs().tolist(),
            "f_hat": [float(r[1]) for r in rows],
            "k_hat_column": sorted({int(r[2]) for r in rows}),
            "k_hat": diag["k_hat"],
            "K": diag["grid"]["K"],
            "bandwidths": diag["grid"]["bandwidths"],
            "alpha_hat": diag["alpha_hat"],
            "b_hat": diag["b_hat"],
            "k_alpha": diag["k_alpha"],
            "k_b": diag["k_b"],
            "zeta_truncated": diag["zeta_truncated"],
            "counters": diag["counters"],
        }

    def invariants(self, inp, rec):
        problems = []
        if not rec["x_is_design"]:
            problems.append("x column differs from the input design")
        if not 0 <= rec["k_hat"] <= rec["K"] or rec["k_hat_column"] != [rec["k_hat"]]:
            problems.append(f"k_hat {rec['k_hat']} outside [0, {rec['K']}] or not constant")
        if count_gaps(rec["f_hat"]) > gap_budget(rec["counters"]):
            problems.append("NaN estimates not accounted for by the counters")
        return problems

    def resolve(self, inp, rec):
        sample = inp[1]
        h = rec["bandwidths"][rec["k_hat"]]
        problems = []
        for j in self.resolve_points:
            problems += resolve_selected_fit(
                sample, (j + 1) / sample.n, h, BETA_STAR, rec["f_hat"][j], rec["counters"])
        return problems


class PointwiseSparse:
    """Library ``adaptive_estimate`` at 19 scattered points of a large sample."""

    name = "pointwise_sparse"
    pool = 8
    n = 100_000
    grid = np.linspace(0.05, 0.95, 19)
    params = {"call": "adaptive_estimate(sample, EstimatorConfig(), grid=linspace(0.05, 0.95, 19))",
              "n": n, "f": "f2", "noise": "neggamma(spatial=alpha_profile)", "pool": pool}
    spans = {"adapt", "tail", "adapt.cv", "local_poly", "lp", "adapt.lepski"}
    resolve_points = (0, 9, 18)

    @staticmethod
    def _model():
        return ErrorModel("neggamma", spatial=alpha_profile)

    def make_inputs(self, seed, workdir):
        return [gen_sample(builtin_f("f2"), self._model(), self.n, (seed, i))
                for i in range(self.pool)]

    def warm_up(self, workdir):
        adaptive_estimate(gen_sample(builtin_f("f2"), self._model(), 2000, 0),
                          EstimatorConfig(), grid=self.grid)

    def run(self, inp, out):
        return adaptive_estimate(inp, EstimatorConfig(), grid=self.grid)

    def read(self, inp, out):
        values, diag = out
        return {
            "values": _floats(values),
            "k_hat": [int(k) for k in diag.k_hat],
            "K": int(diag.grid.K),
            "bandwidths": _floats(diag.grid.bandwidths),
            "alpha_hat": _floats(diag.alpha_hat),
            "b_hat": _floats(diag.b_hat),
            "zeta_at_k_hat": _floats(diag.zeta_at_k_hat),
            "counters": {str(k): int(v) for k, v in diag.counters.items()},
        }

    def invariants(self, inp, rec):
        problems = []
        if len(rec["values"]) != self.grid.size:
            problems.append(f"{len(rec['values'])} values for {self.grid.size} points")
        if not all(0 <= k <= rec["K"] for k in rec["k_hat"]):
            problems.append(f"k_hat {rec['k_hat']} outside [0, {rec['K']}]")
        if count_gaps(rec["values"]) > gap_budget(rec["counters"]):
            problems.append("NaN estimates not accounted for by the counters")
        return problems

    def resolve(self, inp, rec):
        problems = []
        for i in self.resolve_points:
            problems += resolve_selected_fit(
                inp, float(self.grid[i]), rec["bandwidths"][rec["k_hat"][i]], BETA_STAR,
                rec["values"][i], rec["counters"])
        return problems


class McRates:
    """CLI ``rates``: serial Monte Carlo risks of the pointwise estimate at 1/2."""

    name = "mc_rates"
    pool = 8
    n_list = (400, 1600, 6400)
    reps = 40
    params = {"argv": "rates --f absdip --em negexp --n-list 400,1600,6400 --reps 40 "
                      "--target point:0.5 --threads 1 --seed <s>", "pool": pool}
    spans = {"cli", "simkit.mc_risk", "simkit.gen_sample", "adapt", "tail", "adapt.cv",
             "local_poly", "lp", "adapt.lepski"}

    def make_inputs(self, seed, workdir):
        return _sub_seeds(seed, self.pool)

    def _argv(self, master, out, n_list, reps):
        return ["rates", "--f", "absdip", "--em", "negexp", "--n-list", n_list,
                "--reps", str(reps), "--target", "point:0.5", "--threads", "1",
                "--seed", str(master), "--out", out]

    def warm_up(self, workdir):
        _cli(self._argv(1, f"{workdir}/warm_rates.csv", "100,200,400", 4))

    def run(self, inp, out):
        _cli(self._argv(inp, out + ".csv", ",".join(map(str, self.n_list)), self.reps))
        return out

    def read(self, inp, out):
        with open(out + ".csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        with open(out + ".report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        return {
            "n": [int(r[0]) for r in rows],
            "risks": [float(r[1]) for r in rows],
            "stderrs": [float(r[2]) for r in rows],
            "slope": report["slope"],
            "slope_ci": report["slope_ci"],
        }

    def invariants(self, inp, rec):
        problems = []
        if rec["n"] != list(self.n_list):
            problems.append(f"n column {rec['n']}")
        if not all(math.isfinite(r) and r > 0.0 for r in rec["risks"]):
            problems.append(f"risks {rec['risks']} not finite and positive")
        if not all(math.isfinite(e) and e >= 0.0 for e in rec["stderrs"]):
            problems.append(f"stderrs {rec['stderrs']} not finite and nonnegative")
        lo, hi = rec["slope_ci"]
        if not lo <= rec["slope"] <= hi:
            problems.append(f"slope {rec['slope']} outside its interval {rec['slope_ci']}")
        return problems

    def resolve(self, inp, rec):
        """Replicate 0 at each n: rerun its pipeline and re-solve the selected fit."""
        f = builtin_f("absdip")
        problems = []
        for n in self.n_list:
            sample = gen_sample(f, ErrorModel("negexp"), n, (inp, 0))
            value, diag = adaptive_estimate(sample, EstimatorConfig(seed=inp), x=0.5)
            h = float(diag.grid.bandwidths[int(diag.k_hat[0])])
            problems += resolve_selected_fit(sample, 0.5, h, BETA_STAR, value, diag.counters)
        return problems


WORKLOADS = {w.name: w for w in (LqDesign(), PointwiseSparse(), McRates())}
