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
from dataclasses import fields, is_dataclass

import numpy as np

from .adapt import EstimatorConfig, adaptive_estimate, build_grid, check_setting
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
from .tail import a_hat, estimate_tail_at

_CFG_FIELDS = {f.name for f in fields(EstimatorConfig)}

# (type, help) of the flag --<name with dashes> for each EstimatorConfig
# field; each subcommand adds the flags it reads
_CONFIG_FLAGS = {
    "beta_star": (int, "local polynomial degree"),
    "h0_exponent": (float, "smallest bandwidth n^(h0_exponent - 1)"),
    "rho": (float, "bandwidth grid ratio"),
    "m_exponent": (float, "order statistics per window ~ 2 nbar^m_exponent"),
    "c_beta": (float, "critical value constant"),
    "j_beta": (int, "critical value scale factor"),
    "q": (float, "L_q selection (default: pointwise selection)"),
    "seed": (int, "RNG seed"),
}
_ESTIMATOR_FLAGS = ("beta_star", "h0_exponent", "rho", "m_exponent", "c_beta", "j_beta")


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InvalidConfig(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InvalidConfig(f"config file {path}: expected a JSON object")
    return data


def _build_config(args) -> EstimatorConfig:
    merged = _load_config_file(args.config)
    unknown = set(merged) - _CFG_FIELDS
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    for name in _CFG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return EstimatorConfig(**merged)


def _read_table(path, headers):
    """Rows of a numeric CSV whose columns are one of ``headers`` (name tuples).

    Blank rows are skipped.  A non-numeric first row is a header and must
    name the columns (case-insensitive); without one, the first row's width
    picks the columns and every later row must have that width.  Every cell
    must be a finite number.  Returns (columns, [(line, values), ...])."""
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


def _fields(record, *skip):
    """The fields of a dataclass record by name, without those in skip."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}


def _jsonable(v):
    if is_dataclass(v):
        return _jsonable(_fields(v))
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


def _write_csv(path, header, columns):
    """One row per entry of the columns: an integer column as integers, any
    other with 17 significant digits."""
    line = ",".join("%d" if isinstance(c[0], (int, np.integer)) else "%.17g" for c in columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row + "\n" for row in zip(*columns))


def _write_manifest(primary_out, command, cfg, input_paths, output_paths, t0):
    import scipy

    from . import __version__

    manifest = {
        "command": command,
        "config": cfg,
        "seed": cfg.seed,
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
    _write_json(primary_out + ".manifest.json", manifest)


def _error_model_from_args(args) -> ErrorModel:
    spatial = None
    if args.alpha_profile is not None:
        if args.alpha_profile != "builtin":
            raise UnknownName(f"unknown alpha profile {args.alpha_profile!r}; only 'builtin'")
        spatial = alpha_profile
    return ErrorModel(kind=args.em, rate=args.rate, shape=args.shape, spatial=spatial)


def cmd_estimate(args, cfg):
    xs_in, sample = _load_sample(args.input)
    pts = sample.xs()
    values, diag = adaptive_estimate(sample, cfg, grid=pts)
    # per-point columns in pointwise mode, one global value in L_q mode
    columns = (xs_in if xs_in is not None else pts, values,
               np.broadcast_to(diag.k_hat, sample.n), np.broadcast_to(diag.zeta_at_k_hat, sample.n))
    _write_csv(args.out, "x,f_hat,k_hat,zeta_at_khat", columns)
    diag_path = os.path.splitext(args.out)[0] + ".diagnostics.json"
    _write_json(diag_path, {**_fields(diag, "points", "window_sizes"), "n": sample.n})
    message = f"wrote {args.out} ({sample.n} rows) and {diag_path}"
    return [args.input], [args.out, diag_path], message


def cmd_simulate(args, cfg):
    sample = gen_sample(builtin_f(args.f), _error_model_from_args(args), args.n, cfg.seed)
    _write_csv(args.out, "x,y", (sample.xs(), sample.ys))
    return [], [args.out], f"wrote {args.out} ({args.n} rows)"


def cmd_tail(args, cfg):
    _, sample = _load_sample(args.input)
    grid = build_grid(sample.n, cfg.h0_exponent, cfg.rho)
    counters: dict = {}
    te = estimate_tail_at(sample, args.x, grid, cfg.m_exponent, counters)
    lo = max(math.e, math.log(sample.n))
    ygrid = np.geomspace(lo, float(sample.n) ** 4, 41)
    _write_json(args.out, {**_fields(te), "x": args.x, "n": sample.n, "grid": grid,
                           "alpha_hat": 1.0 / te.inv_alpha,
                           "a_hat": {"y": ygrid, "value": a_hat(te, ygrid)}, "counters": counters})
    return [args.input], [args.out], f"wrote {args.out}"


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
        if len(vals) == 3 and vals[2] < 0.0:
            raise ParseError(f"{path}: line {ln}: stderr must be >= 0, got {vals[2]!r}")
    ns = [int(vals[0]) for _, vals in table]
    risks = [vals[1] for _, vals in table]
    errs = [vals[2] if len(vals) == 3 else 0.0 for _, vals in table]
    return ns, risks, errs


def _theory_exponent(alpha, beta, power):
    """-power * beta / (alpha * beta + 1), the paper's rate exponent, when
    both --alpha and --beta are given (each finite and > 0), else None."""
    if alpha is None and beta is None:
        return None
    if alpha is None or beta is None:
        raise InvalidConfig("--alpha and --beta go together")
    check_setting("--alpha", alpha, "positive")
    check_setting("--beta", beta, "positive")
    return -power * beta / (alpha * beta + 1.0)


def cmd_rates(args, cfg):
    check_setting("--threads", args.threads, "threads")
    target = _parse_target(args.target)
    theory = _theory_exponent(args.alpha, args.beta, 2.0 if target[0] == "point" else target[1])
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
            risk, err = mc_risk(f, em, cfg, n, args.reps, target, cfg.seed, threads=args.threads)
            risks.append(risk)
            errs.append(err)
    report = rate_fit(ns, risks, errs)
    _write_csv(args.out, "n,risk,stderr", (report.n_values, report.risks, report.stderrs))
    report_path = os.path.splitext(args.out)[0] + ".report.json"
    _write_json(report_path, {**_fields(report), "target": {"kind": target[0], "value": target[1]},
                              "theoretical_exponent": theory})
    message = f"wrote {args.out} and {report_path} (slope {report.slope:.4f})"
    return inputs, [args.out, report_path], message


def _add_config_flags(p, names):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", required=True, help="primary output path")
    for name in names:
        kind, text = _CONFIG_FLAGS[name]
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, help=text)


def _add_model_flags(p, em_required):
    p.add_argument("--em", choices=ERROR_KINDS, required=em_required, help="error model kind")
    p.add_argument("--rate", type=float, default=1.0, help="negexp rate")
    p.add_argument("--shape", type=float, default=1.0, help="neggamma/refgamma/negweibull shape")
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
    _add_config_flags(p, _ESTIMATOR_FLAGS + ("q",))
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="draw a synthetic sample")
    _add_config_flags(p, ("seed",))
    _add_model_flags(p, em_required=True)
    p.add_argument("--f", required=True, help="regression function: f1, f2, absdip, const")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tail", help="estimate tail parameters at one point")
    p.add_argument("input", help="CSV sample as for estimate")
    _add_config_flags(p, ("h0_exponent", "rho", "m_exponent"))
    p.add_argument("--x", type=float, default=0.5, help="estimation point (default 0.5)")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("rates", help="Monte Carlo risks over n with a log-log slope fit")
    # --target sets the loss, so rates takes no --q
    _add_config_flags(p, _ESTIMATOR_FLAGS + ("seed",))
    # rates needs --em only when it simulates, so cmd_rates checks it
    _add_model_flags(p, em_required=False)
    p.add_argument("--f", default=None, help="regression function: f1, f2, absdip, const")
    p.add_argument("--n-list", dest="n_list", default=None, help="comma list, e.g. 200,400,800")
    p.add_argument("--reps", type=int, default=100, help="Monte Carlo replications per n")
    p.add_argument("--target", default="point:0.5", help="point:X0 or lq:Q")
    p.add_argument("--alpha", type=float, default=None,
                   help="true sharpness for the theory line, with --beta")
    p.add_argument("--beta", type=float, default=None,
                   help="true smoothness for the theory line, with --alpha")
    p.add_argument("--risks-file", dest="risks_file", default=None,
                   help="CSV n,risk[,stderr]: fit the slope without simulating")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    p.set_defaults(func=cmd_rates)
    return parser


def main(argv=None) -> int:
    """Run one subcommand: build its config, call cmd_<name>(args, cfg) for
    (inputs, outputs, message), write the manifest and print the message."""
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = _build_config(args)
        inputs, outputs, message = args.func(args, cfg)
        _write_manifest(args.out, args.command, cfg, inputs, outputs, t0)
        print(message)
        return 0
    except (InvalidConfig, UnknownName) as exc:
        print(f"error[config] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ParseError, NonEquidistantDesign, OSError, UnicodeDecodeError) as exc:
        print(f"error[input] {type(exc).__name__}: {exc}", file=sys.stderr)
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
