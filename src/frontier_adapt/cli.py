"""Command line front end.

Subcommands:
  estimate  fit the adaptive envelope to a CSV sample -> fitted.csv + diagnostics.json
  simulate  draw a synthetic sample -> sample.csv
  tail      estimate tail parameters at one point -> tail.json
  rates     Monte Carlo risks over a list of n with a log-log slope fit
            -> rates.csv + report.json

Every run writes <out>.manifest.json (config echo, library versions, seed,
input digests, timing).  CSV numeric fields are printed with 17 significant
digits and '\\n' line endings so reruns are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .adapt import EstimatorConfig, adaptive_estimate, build_grid
from .errors import (
    DegenerateWindow,
    FrontierAdaptError,
    InvalidConfig,
    NonEquidistantDesign,
    ParseError,
    UnknownName,
)
from .local_poly import Sample
from .simkit import (
    ERROR_KINDS,
    ErrorModel,
    alpha_profile,
    builtin_f,
    check_target,
    gen_sample,
    mc_risk,
    rate_fit,
)
from .tail import TailFunction, a_hat, estimate_tail_at

_CFG_FIELDS = {f.name for f in fields(EstimatorConfig)}
_FLAG_FIELDS = ("beta_star", "h0_exponent", "rho", "m_exponent", "c_beta", "j_beta", "q")


def _g17(v) -> str:
    return "%.17g" % float(v)


def _load_config_file(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InvalidConfig(f"config file {path}: expected a JSON object")
    return data


def _build_config(args) -> EstimatorConfig:
    merged = _load_config_file(args.config)
    unknown = set(merged) - _CFG_FIELDS
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    for name in _FLAG_FIELDS:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    if args.seed is not None:
        merged["seed"] = args.seed
    return EstimatorConfig(**merged)


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return max(1, int(args.threads))
    env = os.environ.get("FRONTIER_ADAPT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise InvalidConfig("FRONTIER_ADAPT_THREADS must be an integer") from exc
    return 1


def _read_table(path, headers):
    """Rows of a numeric CSV whose columns are one of ``headers`` (name tuples).

    Blank rows are skipped.  A non-numeric first row is a header and must
    name the columns (case-insensitive); without one, the first row's width
    picks the columns and every later row must have that width.  Every cell
    must be a finite number.  Returns (columns, [(line, values), ...])."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, newline="", encoding="utf-8") as fh:
        raw = [(ln, [c.strip() for c in row]) for ln, row in enumerate(csv.reader(fh), start=1)]
    rows = [(ln, row) for ln, row in raw if any(row)]
    if not rows:
        raise ParseError(f"{path}: no data rows")

    def _floats(cells):
        try:
            return [float(c) for c in cells]
        except ValueError:
            return None

    first_ln, first = rows[0]
    if _floats(first) is None:
        names = tuple(c.lower() for c in first)
        if names not in headers:
            allowed = " or ".join(repr(",".join(h)) for h in headers)
            raise ParseError(f"{path}: line {first_ln}: header must be {allowed}, got {first!r}")
        rows = rows[1:]
    else:
        by_width = {len(h): h for h in headers}
        names = by_width.get(len(first))
        if names is None:
            allowed = " or ".join(map(str, sorted(by_width)))
            raise ParseError(f"{path}: line {first_ln}: expected {allowed} columns, got {len(first)}")
    table = []
    for ln, cells in rows:
        if len(cells) != len(names):
            raise ParseError(f"{path}: line {ln}: expected {len(names)} columns, got {len(cells)}")
        vals = _floats(cells)
        if vals is None:
            raise ParseError(f"{path}: line {ln}: non-numeric value in {cells!r}")
        if not all(math.isfinite(v) for v in vals):
            raise ParseError(f"{path}: line {ln}: non-finite value in {cells!r}")
        table.append((ln, vals))
    return names, table


def _load_sample(path):
    """Sample CSV: columns x,y (equidistant x) or a single y column, with x
    implied as j/n.  Returns (xs or None, Sample)."""
    names, table = _read_table(path, (("x", "y"), ("y",)))
    if len(table) < 2:
        raise ParseError(f"{path}: need at least 2 data rows")
    xs = None
    if names == ("x", "y"):
        xs = np.asarray([vals[0] for _, vals in table])
        _check_equidistant(xs)
    return xs, Sample(np.asarray([vals[-1] for _, vals in table]))


def _check_equidistant(xs):
    d = np.diff(xs)
    if np.any(d <= 0.0):
        raise NonEquidistantDesign("x must be strictly increasing")
    mean = float(d.mean())
    if float(np.max(np.abs(d - mean))) > 1e-6 * abs(mean):
        raise NonEquidistantDesign(
            "x spacing varies by more than 1e-6 relative; the method assumes an equidistant design"
        )


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else None
    return v


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(primary_out, command, cfg, seed, input_paths, output_paths, t0):
    import scipy

    from . import __version__

    manifest = {
        "command": command,
        "config": asdict(cfg),
        "seed": seed,
        "inputs": {p: _sha256(p) for p in input_paths},
        "outputs": {p: _sha256(p) for p in output_paths},
        "versions": {
            "frontier_adapt": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "elapsed_seconds": time.perf_counter() - t0,
    }
    path = primary_out + ".manifest.json"
    _write_json(path, manifest)
    return path


def _grid_payload(grid):
    return {
        "n": grid.n,
        "h0": grid.h0,
        "rho": grid.rho,
        "K": grid.K,
        "bandwidths": grid.bandwidths,
    }


def _error_model_from_args(args) -> ErrorModel:
    spatial = None
    if getattr(args, "alpha_profile", None) is not None:
        if args.alpha_profile != "builtin":
            raise UnknownName(f"unknown alpha profile {args.alpha_profile!r}; only 'builtin'")
        spatial = alpha_profile
    return ErrorModel(
        kind=args.em, rate=args.rate, shape=args.shape, lam=args.lam, spatial=spatial
    )


def cmd_estimate(args) -> int:
    t0 = time.perf_counter()
    cfg = _build_config(args)
    xs_in, sample = _load_sample(args.input)
    pts = sample.xs()
    values, diag = adaptive_estimate(sample, cfg, grid=pts)
    x_out = xs_in if xs_in is not None else pts
    if diag.mode == "pointwise":
        k_col = np.asarray(diag.k_hat)
        z_col = np.asarray(diag.zeta_at_k_hat)
    else:
        k_col = np.full(sample.n, diag.k_hat, dtype=int)
        z_col = np.full(sample.n, diag.zeta_at_k_hat)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,f_hat,k_hat,zeta_at_khat\n")
        for xv, fv, kv, zv in zip(x_out, values, k_col, z_col):
            fh.write(f"{_g17(xv)},{_g17(fv)},{int(kv)},{_g17(zv)}\n")
    diag_path = os.path.splitext(args.out)[0] + ".diagnostics.json"
    _write_json(
        diag_path,
        {
            "mode": diag.mode,
            "n": sample.n,
            "grid": _grid_payload(diag.grid),
            "alpha_hat": diag.alpha_hat,
            "b_hat": diag.b_hat,
            "k_alpha": diag.k_alpha,
            "k_b": diag.k_b,
            "k_hat": diag.k_hat,
            "zeta_raw": diag.zeta_raw,
            "zeta_truncated": diag.zeta_truncated,
            "zeta_at_k_hat": diag.zeta_at_k_hat,
            "counters": diag.counters,
            "warnings": diag.warnings,
        },
    )
    _write_manifest(
        args.out, "estimate", cfg, cfg.seed, [args.input], [args.out, diag_path], t0
    )
    print(f"wrote {args.out} ({sample.n} rows) and {diag_path}")
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    cfg = _build_config(args)
    f = builtin_f(args.f)
    em = _error_model_from_args(args)
    sample = gen_sample(f, em, args.n, cfg.seed)
    xs = sample.xs()
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y\n")
        for xv, yv in zip(xs, sample.ys):
            fh.write(f"{_g17(xv)},{_g17(yv)}\n")
    _write_manifest(args.out, "simulate", cfg, cfg.seed, [], [args.out], t0)
    print(f"wrote {args.out} ({args.n} rows)")
    return 0


def cmd_tail(args) -> int:
    t0 = time.perf_counter()
    cfg = _build_config(args)
    _, sample = _load_sample(args.input)
    grid = build_grid(sample.n, cfg.h0_exponent, cfg.rho)
    counters: dict = {}
    te = estimate_tail_at(sample, args.x, grid, cfg.m_exponent, counters)
    tf = TailFunction(inv_alpha=te.inv_alpha, b_hat=te.b_hat)
    lo = max(math.e, math.log(sample.n))
    ygrid = np.geomspace(lo, float(sample.n) ** 4, 41)
    _write_json(
        args.out,
        {
            "x": args.x,
            "n": sample.n,
            "grid": _grid_payload(grid),
            "alpha_hat": 1.0 / te.inv_alpha,
            "inv_alpha": te.inv_alpha,
            "b_hat": te.b_hat,
            "k_alpha": te.k_alpha,
            "k_b": te.k_b,
            "m_used": te.m_used,
            "a_hat": {"y": ygrid, "value": a_hat(tf, ygrid)},
            "counters": counters,
        },
    )
    _write_manifest(args.out, "tail", cfg, cfg.seed, [args.input], [args.out], t0)
    print(f"wrote {args.out}")
    return 0


def _parse_target(text):
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in ("point", "lq"):
        raise InvalidConfig("target must look like point:0.5 or lq:1")
    try:
        value = float(parts[1])
    except ValueError as exc:
        raise InvalidConfig(f"bad target value {parts[1]!r}") from exc
    target = (parts[0], value)
    check_target(target)
    return target


def _parse_n_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad --n-list {text!r}") from exc
    if not values:
        raise InvalidConfig("--n-list is empty")
    return values


def _read_risks_file(path):
    _, table = _read_table(path, (("n", "risk"), ("n", "risk", "stderr")))
    for ln, vals in table:
        if vals[0] < 1 or not vals[0].is_integer():
            raise ParseError(f"{path}: line {ln}: n must be a positive integer, got {vals[0]!r}")
    ns = [int(vals[0]) for _, vals in table]
    risks = [vals[1] for _, vals in table]
    errs = [vals[2] if len(vals) == 3 else 0.0 for _, vals in table]
    return ns, risks, errs


def cmd_rates(args) -> int:
    t0 = time.perf_counter()
    cfg = _build_config(args)
    threads = _resolve_threads(args)
    target = _parse_target(args.target)
    inputs = []
    if args.risks_file:
        ns, risks, errs = _read_risks_file(args.risks_file)
        inputs.append(args.risks_file)
    else:
        if args.f is None or args.em is None or args.n_list is None:
            raise InvalidConfig("rates needs --f, --em and --n-list (or --risks-file)")
        f = builtin_f(args.f)
        em = _error_model_from_args(args)
        ns = _parse_n_list(args.n_list)
        risks, errs = [], []
        for n in ns:
            risk, err = mc_risk(f, em, cfg, n, args.reps, target, cfg.seed, threads=threads)
            risks.append(risk)
            errs.append(err)
    report = rate_fit(ns, risks, errs)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,risk,stderr\n")
        for n, r, e in zip(report.n_values, report.risks, report.stderrs):
            fh.write(f"{n},{_g17(r)},{_g17(e)}\n")
    theory = None
    if args.alpha is not None and args.beta is not None:
        ab1 = args.alpha * args.beta + 1.0
        power = 2.0 if target[0] == "point" else target[1]
        theory = -power * args.beta / ab1
    report_path = os.path.splitext(args.out)[0] + ".report.json"
    _write_json(
        report_path,
        {
            "target": {"kind": target[0], "value": target[1]},
            "n_values": report.n_values,
            "risks": report.risks,
            "stderrs": report.stderrs,
            "slope": report.slope,
            "slope_ci": list(report.slope_ci),
            "theoretical_exponent": theory,
        },
    )
    _write_manifest(args.out, "rates", cfg, cfg.seed, inputs, [args.out, report_path], t0)
    print(f"wrote {args.out} and {report_path} (slope {report.slope:.4f})")
    return 0


def _add_shared_flags(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="primary output path")
    p.add_argument("--beta-star", dest="beta_star", type=int, default=None)
    p.add_argument("--h0-exponent", dest="h0_exponent", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--m-exponent", dest="m_exponent", type=float, default=None)
    p.add_argument("--c-beta", dest="c_beta", type=float, default=None)
    p.add_argument("--j-beta", dest="j_beta", type=int, default=None)
    p.add_argument("--q", type=float, default=None,
                   help="L_q selection (default: pointwise selection)")


def _add_model_flags(p):
    p.add_argument("--em", choices=ERROR_KINDS, help="error model kind")
    p.add_argument("--rate", type=float, default=1.0, help="negexp rate")
    p.add_argument("--shape", type=float, default=1.0, help="neggamma/negweibull shape")
    p.add_argument("--lam", type=float, default=1.0, help="refgamma parameter")
    p.add_argument("--alpha-profile", dest="alpha_profile", default=None,
                   help="'builtin' for the spatially varying neggamma shape")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="frontier-adapt",
        description="Adaptive frontier estimation from samples lying below an unknown boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit the adaptive envelope to a CSV sample")
    p.add_argument("input", help="CSV with columns x,y (equidistant x) or a single y column")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="draw a synthetic sample")
    _add_shared_flags(p)
    _add_model_flags(p)
    p.add_argument("--f", required=True, help="regression function: f1, f2, absdip, const")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tail", help="estimate tail parameters at one point")
    p.add_argument("input", help="CSV sample as for estimate")
    _add_shared_flags(p)
    p.add_argument("--x", type=float, default=0.5, help="estimation point (default 0.5)")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("rates", help="Monte Carlo risks over n with a log-log slope fit")
    _add_shared_flags(p)
    _add_model_flags(p)
    p.add_argument("--f", default=None, help="regression function: f1, f2, absdip, const")
    p.add_argument("--n-list", dest="n_list", default=None, help="comma list, e.g. 200,400,800")
    p.add_argument("--reps", type=int, default=100, help="Monte Carlo replications per n")
    p.add_argument("--target", default="point:0.5", help="point:X0 or lq:Q")
    p.add_argument("--alpha", type=float, default=None, help="true sharpness for the theory line")
    p.add_argument("--beta", type=float, default=None, help="true smoothness for the theory line")
    p.add_argument("--risks-file", dest="risks_file", default=None,
                   help="CSV n,risk[,stderr]: fit the slope without simulating")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: FRONTIER_ADAPT_THREADS or 1)")
    p.set_defaults(func=cmd_rates)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, UnknownName) as exc:
        print(f"error[config] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ParseError, NonEquidistantDesign) as exc:
        print(f"error[input] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error[input] FileNotFoundError: missing file {exc}", file=sys.stderr)
        return 3
    except DegenerateWindow as exc:
        print(
            f"error[numeric] DegenerateWindow: {exc} "
            "(hint: tied or constant y values; enlarge the window via --h0-exponent/--rho, "
            "or check the input for repeated measurements)",
            file=sys.stderr,
        )
        return 4
    except FrontierAdaptError as exc:
        print(f"error[numeric] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
