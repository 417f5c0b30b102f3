"""CLI contract: subcommands, file formats, exit codes, reproducibility."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frontier_adapt.cli import _build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "sample.csv"
    rc = main(
        ["simulate", "--f", "f2", "--em", "negexp", "--n", "50", "--seed", "3",
         "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["x", "y"] and len(rows) == 50
    xs = np.array([float(r[0]) for r in rows])
    np.testing.assert_allclose(xs, np.arange(1, 51) / 50, rtol=1e-15)
    manifest = json.loads((tmp_path / "sample.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert str(out) in manifest["outputs"]
    assert "frontier_adapt" in manifest["versions"]


def test_simulate_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--f", "f1", "--em", "neguniform", "--n", "40", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_bad_n_exits_2(tmp_path):
    rc = main(
        ["simulate", "--f", "f1", "--em", "negexp", "--n", "1", "--out",
         str(tmp_path / "x.csv")]
    )
    assert rc == 2


def test_estimate_envelope_lies_above_sample(tmp_path):
    sample_csv = tmp_path / "s.csv"
    main(["simulate", "--f", "f1", "--em", "negexp", "--n", "80", "--seed", "5",
          "--out", str(sample_csv)])
    out = tmp_path / "fit.csv"
    rc = main(["estimate", str(sample_csv), "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["x", "f_hat", "k_hat", "zeta_at_khat"]
    fit = np.array([float(r[1]) for r in rows])
    _, srows = _read_csv(sample_csv)
    ys = np.array([float(r[1]) for r in srows])
    assert np.all(fit >= ys - 1e-6)
    diag = json.loads((tmp_path / "fit.diagnostics.json").read_text())
    assert diag["mode"] == "pointwise" and diag["n"] == 80
    assert len(diag["k_hat"]) == 80
    assert (tmp_path / "fit.csv.manifest.json").exists()


def test_estimate_headerless_single_column(tmp_path):
    data = tmp_path / "ys.csv"
    rng = np.random.default_rng(0)
    data.write_text("".join(f"{v}\n" for v in -rng.exponential(size=30)))
    rc = main(["estimate", str(data), "--out", str(tmp_path / "fit.csv")])
    assert rc == 0


def test_estimate_malformed_row_cites_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("x,y\n0.5,-1.0\n1.0,oops\n")
    rc = main(["estimate", str(data), "--out", str(tmp_path / "f.csv")])
    assert rc == 3
    assert "line 3" in capsys.readouterr().err


def test_estimate_non_equidistant_exits_3(tmp_path, capsys):
    data = tmp_path / "skew.csv"
    data.write_text("x,y\n" + "".join(f"{x},-1.0\n" for x in (0.1, 0.2, 0.5, 0.6)))
    rc = main(["estimate", str(data), "--out", str(tmp_path / "f.csv")])
    assert rc == 3
    assert "equidistant" in capsys.readouterr().err


def test_missing_input_exits_3(tmp_path):
    rc = main(["estimate", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.csv")])
    assert rc == 3


def test_unknown_error_model_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--f", "f1", "--em", "gauss", "--n", "10",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_tail_constant_sample_exits_4_with_hint(tmp_path, capsys):
    data = tmp_path / "const.csv"
    data.write_text("y\n" + "-2.0\n" * 40)
    rc = main(["tail", str(data), "--out", str(tmp_path / "t.json")])
    assert rc == 4
    assert "hint" in capsys.readouterr().err


def test_tail_shift_invariance(tmp_path):
    rng = np.random.default_rng(12)
    ys = -rng.exponential(size=400)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("y\n" + "".join(f"{float(v)!r}\n" for v in ys))
    b.write_text("y\n" + "".join(f"{float(v) + 10.0!r}\n" for v in ys))
    assert main(["tail", str(a), "--out", str(tmp_path / "ta.json")]) == 0
    assert main(["tail", str(b), "--out", str(tmp_path / "tb.json")]) == 0
    ta = json.loads((tmp_path / "ta.json").read_text())
    tb = json.loads((tmp_path / "tb.json").read_text())
    assert tb["alpha_hat"] == pytest.approx(ta["alpha_hat"], rel=1e-9)
    assert tb["b_hat"] == pytest.approx(ta["b_hat"], rel=1e-9)
    assert tb["k_alpha"] == ta["k_alpha"] and tb["k_b"] == ta["k_b"]
    assert len(ta["a_hat"]["y"]) == 41


def test_rates_risks_file_passthrough(tmp_path):
    risks = tmp_path / "risks.csv"
    ns = [100, 200, 400, 800]
    risks.write_text("n,risk\n" + "".join(f"{n},{5.0 / n}\n" for n in ns))
    out = tmp_path / "rates.csv"
    rc = main(["rates", "--risks-file", str(risks), "--out", str(out)])
    assert rc == 0
    report = json.loads((tmp_path / "rates.report.json").read_text())
    assert report["slope"] == pytest.approx(-1.0, abs=1e-12)
    assert report["n_values"] == ns
    header, rows = _read_csv(out)
    assert header == ["n", "risk", "stderr"] and len(rows) == 4
    # a headerless file, and rates.csv fed back as n,risk,stderr, fit the same slope
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(f"{n},{5.0 / n}\n" for n in ns))
    for src, name in ((bare, "bare_out"), (out, "refit")):
        dest = tmp_path / f"{name}.csv"
        assert main(["rates", "--risks-file", str(src), "--out", str(dest)]) == 0
        again = json.loads((tmp_path / f"{name}.report.json").read_text())
        assert again["slope"] == report["slope"] and again["n_values"] == ns
        assert dest.read_bytes() == out.read_bytes()


def test_rates_theory_exponent_in_report(tmp_path):
    risks = tmp_path / "risks.csv"
    risks.write_text("n,risk\n100,0.1\n200,0.05\n400,0.025\n")
    rc = main(["rates", "--risks-file", str(risks), "--alpha", "1.0", "--beta", "1.0",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    report = json.loads((tmp_path / "r.report.json").read_text())
    # pointwise squared loss: -2 beta / (alpha beta + 1)
    assert report["theoretical_exponent"] == pytest.approx(-1.0)


def test_rates_two_n_values_exits_4(tmp_path):
    risks = tmp_path / "risks.csv"
    risks.write_text("n,risk\n100,0.1\n200,0.05\n")
    rc = main(["rates", "--risks-file", str(risks), "--out", str(tmp_path / "r.csv")])
    assert rc == 4


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"rho": 4.0, "h0_exponent": 0.45}))
    sample = tmp_path / "s.csv"
    main(["simulate", "--f", "const", "--em", "negexp", "--n", "60", "--seed", "1",
          "--out", str(sample)])
    out = tmp_path / "fit.csv"
    rc = main(["estimate", str(sample), "--config", str(cfgfile), "--rho", "2.5",
               "--out", str(out)])
    assert rc == 0
    diag = json.loads((tmp_path / "fit.diagnostics.json").read_text())
    assert diag["grid"]["rho"] == 2.5  # flag wins over file
    manifest = json.loads((tmp_path / "fit.csv.manifest.json").read_text())
    assert manifest["config"]["rho"] == 2.5
    assert manifest["config"]["h0_exponent"] == 0.45


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"rh": 2.0}))
    data = tmp_path / "s.csv"
    data.write_text("y\n-1.0\n-2.0\n-1.5\n")
    rc = main(["estimate", str(data), "--config", str(cfgfile),
               "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    assert "rh" in capsys.readouterr().err


def test_config_file_invalid_json_exits_2(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("{not json")
    data = tmp_path / "s.csv"
    data.write_text("y\n-1.0\n-2.0\n")
    rc = main(["estimate", str(data), "--config", str(cfgfile),
               "--out", str(tmp_path / "f.csv")])
    assert rc == 2


def test_threads_below_one_exits_2(tmp_path, capsys):
    risks = tmp_path / "risks.csv"
    risks.write_text("n,risk\n100,0.1\n200,0.05\n400,0.025\n")
    argv = ["rates", "--risks-file", str(risks), "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    assert main(argv + ["--threads", "2"]) == 0
    for bad in ("0", "-3"):
        assert main(argv + ["--threads", bad]) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err


def test_threads_only_on_rates(tmp_path):
    data = tmp_path / "ok.csv"
    rng = np.random.default_rng(1)
    data.write_text("y\n" + "".join(f"{v}\n" for v in -rng.exponential(size=30)))
    for cmd in (["estimate", str(data)], ["tail", str(data)],
                ["simulate", "--f", "f1", "--em", "negexp", "--n", "10"]):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--threads", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


# The options each subcommand takes: every one of them is read.  Estimator
# flags go to estimate and rates (where --target sets the loss, not --q),
# tail reads the grid and order-statistic settings, and simulate the seed.
_ESTIMATOR_OPTIONS = {"--beta-star", "--h0-exponent", "--rho", "--m-exponent", "--c-beta",
                      "--j-beta"}
_MODEL_OPTIONS = {"--em", "--rate", "--shape", "--lam", "--alpha-profile", "--f"}
_SUBCOMMAND_OPTIONS = {
    "estimate": {"--config", "--out", "--q"} | _ESTIMATOR_OPTIONS,
    "simulate": {"--config", "--out", "--seed", "--n"} | _MODEL_OPTIONS,
    "tail": {"--config", "--out", "--h0-exponent", "--rho", "--m-exponent", "--x"},
    "rates": {"--config", "--out", "--seed", "--n-list", "--reps", "--target", "--alpha",
              "--beta", "--risks-file", "--threads"} | _ESTIMATOR_OPTIONS | _MODEL_OPTIONS,
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert taken == _SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv", [
    ["simulate", "--f", "f1", "--em", "negexp", "--n", "10", "--rho", "0.5"],
    ["tail", "s.csv", "--q", "2"],
    ["estimate", "s.csv", "--seed", "99"],
    ["rates", "--risks-file", "r.csv", "--q", "7"],
])
def test_option_a_subcommand_does_not_read_exits_2(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _source_env():
    """Environment that imports frontier_adapt from src/, ahead of any install."""
    pythonpath = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "frontier_adapt.cli", *args],
        capture_output=True, text=True, timeout=120, env=_source_env(), cwd=cwd,
    )


_NON_FINITE_CASES = (
    [(cmd, row, "non-finite") for cmd in ("estimate", "tail")
     for row in ("0.1,nan", "0.1,inf", "0.1,-inf", "nan,-1.0")]
    + [("rates", row, "non-finite") for row in ("nan,0.1", "inf,0.1", "200,nan", "200,inf")]
    + [("rates", "200.5,0.1", "positive integer")]
)


@pytest.mark.parametrize(
    "command, bad_row, reason",
    [pytest.param(*case, id=f"{case[1]}-{case[0]}") for case in _NON_FINITE_CASES],
)
def test_non_finite_cell_exits_3(tmp_path, command, bad_row, reason):
    if command == "rates":
        header, rows, argv = "n,risk", ["100,0.1", "200,0.05", "400,0.025"], ["--risks-file"]
    else:
        header, rows, argv = "x,y", [f"{j / 10},-{j % 3 + 1}.5" for j in range(1, 11)], []
    rows[0] = bad_row
    (tmp_path / "bad.csv").write_text(header + "\n" + "\n".join(rows) + "\n")
    proc = _run_cli([command, *argv, "bad.csv", "--out", "out.csv"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "line 2" in proc.stderr and reason in proc.stderr


def test_overflowing_sample_gives_counted_nan(tmp_path):
    (tmp_path / "big.csv").write_text("1e308\n-1e308\n0\n-1\n")
    for extra in ([], ["--q", "1"]):
        proc = _run_cli(["estimate", "big.csv", *extra, "--out", "fit.csv"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        _, rows = _read_csv(tmp_path / "fit.csv")
        nans = sum(r[1] == "nan" for r in rows)
        counters = json.loads((tmp_path / "fit.diagnostics.json").read_text())["counters"]
        assert nans > 0 and counters.get("lp_failures", 0) > 0
        assert nans <= counters.get("window_too_small", 0) + counters["lp_failures"]


@pytest.mark.parametrize("target", ["point:nan", "point:2", "lq:0"])
def test_rates_rejects_out_of_range_target(tmp_path, target):
    proc = _run_cli(["rates", "--f", "const", "--em", "negexp", "--reps", "2",
                     "--n-list", "40,60,90", "--target", target, "--out", "r.csv"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "InvalidConfig" in proc.stderr
    assert not (tmp_path / "r.csv").exists()


def test_rates_overflowing_lq_loss_exits_4_without_warnings(tmp_path):
    proc = _run_cli(["rates", "--f", "f2", "--em", "negexp", "--n-list", "40,60,90",
                     "--reps", "2", "--target", "lq:1e20", "--out", "r.csv"], tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error[numeric] DegenerateInput:"), proc.stderr
    assert proc.stderr.count("\n") == 1 and "q=1e+20" in proc.stderr
    assert "Warning" not in proc.stderr
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv, code", [
    (["tail", "s.csv", "--x", "nan"], 2),
    (["tail", "s.csv", "--x", "inf"], 2),
    (["estimate", "s.csv", "--q", "inf"], 2),
    (["rates", "--f", "const", "--em", "negexp", "--reps", "2", "--n-list", "40,60,90",
      "--target", "lq:inf"], 2),
    (["rates", "--risks-file", "r.csv", "--threads", "0"], 2),
    (["estimate", "s.csv", "--q", "1e20"], 0),
    (["tail", "s.csv", "--x", "5"], 2),
    (["tail", "s.csv", "--x", "-1"], 2),
])
def test_hostile_setting_exits_cleanly(tmp_path, argv, code):
    main(["simulate", "--f", "f2", "--em", "negexp", "--n", "60", "--seed", "4",
          "--out", str(tmp_path / "s.csv")])
    (tmp_path / "r.csv").write_text("n,risk\n100,0.1\n200,0.05\n400,0.025\n")
    proc = _run_cli([*argv, "--out", "out.csv"], tmp_path)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith("error[config] InvalidConfig:"), proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "out.csv").exists()


def test_package_import_leaves_scipy_integrate_unloaded():
    code = "import sys, frontier_adapt; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_rates_monte_carlo_with_worker_pool(tmp_path):
    out = tmp_path / "rates.csv"
    rc = main(["rates", "--f", "const", "--em", "negexp", "--n-list", "40,60,90",
               "--reps", "4", "--target", "point:0.5", "--seed", "2", "--threads", "2",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((tmp_path / "rates.report.json").read_text())
    assert len(report["risks"]) == 3
    assert all(r > 0 for r in report["risks"])


def _golden_cli_outputs(tmp):
    """Every non-manifest output of one run of each subcommand, in run order."""
    risks = tmp / "risks.csv"
    risks.write_text("n,risk,stderr\n100,0.1,0.01\n200,0.061,0.004\n400,0.026,0.002\n")
    runs = [
        (["simulate", "--f", "f2", "--em", "negexp", "--n", "80", "--seed", "3",
          "--out", str(tmp / "sample.csv")], ["sample.csv"]),
        (["estimate", str(tmp / "sample.csv"), "--out", str(tmp / "fit.csv")],
         ["fit.csv", "fit.diagnostics.json"]),
        (["estimate", str(tmp / "sample.csv"), "--q", "1", "--out", str(tmp / "fit_l1.csv")],
         ["fit_l1.csv", "fit_l1.diagnostics.json"]),
        (["tail", str(tmp / "sample.csv"), "--x", "0.5", "--out", str(tmp / "tail.json")],
         ["tail.json"]),
        (["rates", "--risks-file", str(risks), "--out", str(tmp / "refit.csv")],
         ["refit.csv", "refit.report.json"]),
        (["rates", "--f", "const", "--em", "negexp", "--n-list", "40,60,90", "--reps", "4",
          "--threads", "1", "--seed", "2", "--out", str(tmp / "rates.csv")],
         ["rates.csv", "rates.report.json"]),
    ]
    for argv, outputs in runs:
        assert main(argv) == 0, argv
        yield from outputs


# One SHA-256 over the bytes of every output above (manifests excluded: they
# hold the elapsed time).  It pins the CLI's files across refactors of the
# parser and the config plumbing.
GOLDEN_CLI_DIGEST = "14c7399a02772a8a25b59f0c3c5692ec8ea31fb2504f8f3eb50e88e369dc8096"


def test_golden_cli_digest(tmp_path):
    h = hashlib.sha256()
    for name in _golden_cli_outputs(tmp_path):
        h.update(name.encode() + b"\0")
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == GOLDEN_CLI_DIGEST


def _declared_entry_point(name):
    """Return the ``module:attr`` target of ``name`` in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_help():
    # Start the declared target the way pip's generated wrapper does, from the
    # source tree, so the check does not depend on the package being installed.
    module, attr = _declared_entry_point("frontier-adapt").split(":")
    wrapper = (
        f"import sys; from {module} import {attr} as f; "
        "sys.argv[0] = 'frontier-adapt'; sys.exit(f())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, timeout=60, env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[0].startswith("usage: frontier-adapt")
    for sub in ("estimate", "simulate", "tail", "rates"):
        assert sub in proc.stdout


def test_calibrate_script_help():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "calibrate_defaults.py"), "--help"],
        capture_output=True, text=True, timeout=60, env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.skipif(
    shutil.which("frontier-adapt") is None,
    reason="frontier-adapt console script not installed",
)
def test_installed_console_script_help():
    exe = shutil.which("frontier-adapt")
    assert exe is not None, "console script not on PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for sub in ("estimate", "simulate", "tail", "rates"):
        assert sub in proc.stdout
