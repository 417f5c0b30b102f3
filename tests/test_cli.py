"""CLI contract: subcommands, file formats, exit codes, reproducibility."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontier_adapt import local_poly
from frontier_adapt.adapt import EstimatorConfig
from frontier_adapt.cli import _build_parser, main
from frontier_adapt.simkit import ERROR_KINDS

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


def test_every_subcommand_writes_the_same_manifest(tmp_path):
    (tmp_path / "r.csv").write_text("n,risk\n100,0.1\n200,0.05\n400,0.025\n")
    runs = [
        ("simulate", ["--f", "f2", "--em", "negexp", "--n", "60", "--seed", "4"], [], "s.csv"),
        ("estimate", ["s.csv"], ["s.csv"], "fit.csv"),
        ("tail", ["s.csv"], ["s.csv"], "tail.json"),
        ("rates", ["--risks-file", "r.csv"], ["r.csv"], "rates.csv"),
    ]
    key_sets = []
    for command, argv, inputs, out in runs:
        before = set(os.listdir(tmp_path))
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert main([command, *argv, "--out", str(tmp_path / out)]) == 0
        manifest_name = out + ".manifest.json"
        written = set(os.listdir(tmp_path)) - before - {manifest_name}
        manifest = json.loads((tmp_path / manifest_name).read_text())
        key_sets.append(set(manifest))
        assert manifest["command"] == command
        assert set(manifest["outputs"]) == {str(tmp_path / name) for name in written}
        assert set(manifest["inputs"]) == {str(tmp_path / name) for name in inputs}
    assert all(keys == key_sets[0] for keys in key_sets)


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


@pytest.mark.parametrize("argv, error", [
    (["estimate", "."], "IsADirectoryError"),
    (["estimate", "s.csv", "--config", "."], "IsADirectoryError"),
    (["estimate", "utf16.csv"], "UnicodeDecodeError"),
])
def test_unreadable_input_exits_3_without_traceback(tmp_path, argv, error):
    (tmp_path / "s.csv").write_text("y\n-1\n-2\n-3\n")
    (tmp_path / "utf16.csv").write_bytes("y\n-1\n-2\n".encode("utf-16"))
    proc = _run_cli([*argv, "--out", "out.csv"], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error[input] {error}:"), proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_unknown_error_model_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--f", "f1", "--em", "gauss", "--n", "10",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_simulate_without_error_model_names_the_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--f", "f1", "--n", "10", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "required: --em" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    # rates reads --em only when it simulates, so it checks the flag itself
    assert main(["rates", "--f", "f1", "--n-list", "50", "--out", str(tmp_path / "r.csv")]) == 2
    assert "rates needs --f, --em" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


_BAD_CONFIGS = ['{"h0_exponent": "0.4"}', '{"c_beta": null}', '{"q": "1"}', '{"rho": [2]}',
                '{"m_exponent": {}}', '{"j_beta": 1%s}' % ("0" * 400), '{"beta_star": true}',
                '{"rho": Infinity}', '{"c_beta": Infinity}', '{"seed": "x"}', '{"seed": -1}',
                '{"seed": 1.5}', '{"beta_star": %s}' % ("9" * 5000)]


@pytest.mark.parametrize("command", ["estimate", "tail"])
@pytest.mark.parametrize("config", _BAD_CONFIGS,
                         ids=lambda c: c if len(c) < 40 else c[:20] + "...}")
def test_config_value_of_a_wrong_type_exits_2(tmp_path, command, config):
    # a string, null, bool, list, object, infinity, an integer beyond the
    # float range or a bad seed: one error[config] line, no traceback
    cfg, data = tmp_path / "cfg.json", tmp_path / "s.csv"
    cfg.write_text(config)
    data.write_text("y\n-1.0\n-2.0\n-1.5\n")
    code, err = _run_quietly([command, str(data), "--config", str(cfg),
                              "--out", str(tmp_path / "out.csv")])
    assert code == 2, err
    assert err.startswith("error[config] InvalidConfig:") and err.count("\n") == 1, err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv, config", [
    (["--rho", "1.000000000000001"], None),
    (["--rho", "1.001"], None),
    (["--q", "1", "--rho", "1.001"], None),
    ([], '{"beta_star": %d}' % 10**30),
    ([], '{"beta_star": 11}'),
])
def test_settings_beyond_their_bounds_exit_2_at_once(tmp_path, argv, config):
    # a rho near 1 (K in the quadrillions, or 2,457 at rho = 1.001) and a
    # huge beta_star used to run out of memory or for minutes
    data = tmp_path / "s.csv"
    assert _run_quietly(["simulate", "--f", "f2", "--em", "negexp", "--n", "60", "--seed", "1",
                         "--out", str(data)])[0] == 0
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    start = time.perf_counter()
    code, err = _run_quietly(["estimate", str(data), *argv, "--out", str(tmp_path / "f.csv")])
    assert time.perf_counter() - start < 5.0
    assert code == 2, err
    assert err.startswith("error[config] InvalidConfig:") and err.count("\n") == 1, err
    assert not (tmp_path / "f.csv").exists()


_CONFIG_VALUES = st.sampled_from([
    '"0.4"', '"x"', "null", "true", "false", "[2]", "{}", "-1", "0", "1", "2", "5", "1.5", "0.5",
    "0.999", "1e-300", "5e-324", "1e300", "1.7976931348623157e308", "Infinity", "-Infinity",
    "NaN", "1" + "0" * 300, "1" + "0" * 400,
])
_CONFIG_ENTRIES = st.tuples(st.sampled_from(["beta_star", "h0_exponent", "rho", "m_exponent",
                                            "c_beta", "j_beta", "q", "seed"]), _CONFIG_VALUES)


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(_CONFIG_ENTRIES, min_size=1, max_size=3),
       command=st.sampled_from([["estimate"], ["estimate", "--q", "1"], ["tail"]]))
def test_config_file_values_exit_cleanly(entries, command):
    # any config-file value gives a result or one error[config] line
    config = "{" + ", ".join(f'"{key}": {value}' for key, value in entries) + "}"
    with tempfile.TemporaryDirectory() as tmp:
        sample, cfg = os.path.join(tmp, "s.csv"), os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(config)
        assert _run_quietly(["simulate", "--f", "f2", "--em", "negexp", "--n", "60", "--seed", "1",
                             "--out", sample])[0] == 0
        code, err = _run_quietly([command[0], sample, *command[1:], "--config", cfg,
                                  "--out", os.path.join(tmp, "out.csv")])
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error[config] InvalidConfig:") and err.count("\n") == 1, err


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
_MODEL_OPTIONS = {"--em", "--rate", "--shape", "--alpha-profile", "--f"}
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


# Every value a caller sets: the EstimatorConfig fields (8) and each
# subcommand's arguments, positional ones by name (10, 9, 7 and 21).  A new
# knob fails here until this list, and the change log, say why it is needed.
_SETTABLE_VALUES = {
    "EstimatorConfig": ["beta_star", "h0_exponent", "rho", "m_exponent", "c_beta", "j_beta", "q",
                        "seed"],
    "estimate": ["input", "--config", "--out", "--beta-star", "--h0-exponent", "--rho",
                 "--m-exponent", "--c-beta", "--j-beta", "--q"],
    "simulate": ["--config", "--out", "--seed", "--em", "--rate", "--shape", "--alpha-profile",
                 "--f", "--n"],
    "tail": ["input", "--config", "--out", "--h0-exponent", "--rho", "--m-exponent", "--x"],
    "rates": ["--config", "--out", "--beta-star", "--h0-exponent", "--rho", "--m-exponent",
              "--c-beta", "--j-beta", "--seed", "--em", "--rate", "--shape", "--alpha-profile",
              "--f", "--n-list", "--reps", "--target", "--alpha", "--beta", "--risks-file",
              "--threads"],
}


def test_settable_values_are_pinned():
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    settable = {"EstimatorConfig": [f.name for f in dataclasses.fields(EstimatorConfig)]}
    for name, sub in subparsers.choices.items():
        settable[name] = [action.option_strings[-1] if action.option_strings else action.dest
                          for action in sub._actions if action.dest != "help"]
    assert settable == _SETTABLE_VALUES


@pytest.mark.parametrize("argv", [
    ["simulate", "--f", "f1", "--em", "negexp", "--n", "10", "--rho", "0.5"],
    ["tail", "s.csv", "--q", "2"],
    ["estimate", "s.csv", "--seed", "99"],
    ["rates", "--risks-file", "r.csv", "--q", "7"],
    ["simulate", "--f", "f1", "--em", "refgamma", "--n", "10", "--lam", "2"],
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
    + [("rates", "200.5,0.1", "positive integer"), ("rates", "100,0.1,-0.5", "stderr must be >= 0")]
)


@pytest.mark.parametrize(
    "command, bad_row, reason",
    [pytest.param(*case, id=f"{case[1]}-{case[0]}") for case in _NON_FINITE_CASES],
)
def test_non_finite_cell_exits_3(tmp_path, command, bad_row, reason):
    if command == "rates":
        # a bad stderr cell goes into a file with the stderr column
        width = bad_row.count(",") + 1
        header, argv = ",".join(("n", "risk", "stderr")[:width]), ["--risks-file"]
        rows = [row + ",0.01" * (width - 2) for row in ("100,0.1", "200,0.05", "400,0.025")]
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


@pytest.mark.parametrize("ys", [
    -1.7e308 * np.random.default_rng(0).uniform(size=50),
    np.ldexp(-np.random.default_rng(1).exponential(size=40), 1020),
], ids=["uniform-1.7e308", "exponential-2^1020"])
def test_sample_near_the_largest_float_gives_counted_nan_without_warnings(tmp_path, ys):
    (tmp_path / "huge.csv").write_text("y\n" + "".join(f"{float(v)!r}\n" for v in ys))
    for extra in ([], ["--q", "1"]):
        proc = _run_cli(["estimate", "huge.csv", *extra, "--out", "fit.csv"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        _, rows = _read_csv(tmp_path / "fit.csv")
        f_hat = np.array([float(r[1]) for r in rows])
        counters = json.loads((tmp_path / "fit.diagnostics.json").read_text())["counters"]
        nans = int(np.isnan(f_hat).sum())
        assert nans <= counters.get("window_too_small", 0) + counters.get("lp_failures", 0)
        # every estimate that came back is an envelope value above its datum
        ok = np.isfinite(f_hat)
        assert np.all(f_hat[ok] >= ys[ok] - 1e-9 * np.abs(ys[ok]))


@pytest.mark.parametrize("ys", [
    "1e308,-1e308,0,0,-1,-2,-3,-4",
    "4.94980235563709e16,-4.43714358588106e16,1,0,1e-300,1e-300,0,-4.43714358588106e16,"
    "-9.433840340363874e-79,1e-300,-5.393380182549928e237",
], ids=["tied-range-overflows", "span-over-gap-overflows"])
def test_overflowing_tail_window_exits_0_without_warnings(tmp_path, capsys, ys):
    (tmp_path / "s.csv").write_text(ys.replace(",", "\n") + "\n")
    for extra in ([], ["--q", "1"]):
        code = main(["estimate", str(tmp_path / "s.csv"), *extra,
                     "--out", str(tmp_path / "fit.csv")])
        assert code == 0
        assert capsys.readouterr().err == ""


def test_overflowing_window_in_a_lockstep_batch_exits_0_without_warnings(
        tmp_path, capsys, monkeypatch):
    # 64 responses with 1e308 next to -1e308: rows of the design hold 22 to
    # 54 interior windows, enough for a lockstep batch, and the windows over
    # the pair overflow when shifted; each is a counted NaN in both modes
    overflowing = []
    build = local_poly._window_lps

    def recording(sample, xs, starts, *args):
        fits, *rest = build(sample, xs, starts, *args)
        if isinstance(starts, np.ndarray):
            overflowing.append(int(np.count_nonzero(~fits)))
        return (fits, *rest)

    monkeypatch.setattr(local_poly, "_window_lps", recording)
    ys = -(np.arange(64) % 5).astype(float)
    ys[30], ys[31] = 1e308, -1e308
    (tmp_path / "s.csv").write_text("".join(f"{y!r}\n" for y in ys.tolist()))
    for extra in ([], ["--q", "1"]):
        overflowing.clear()
        code = main(["estimate", str(tmp_path / "s.csv"), *extra, "--out", str(tmp_path / "fit.csv")])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert sum(overflowing) > 0
        _, rows = _read_csv(tmp_path / "fit.csv")
        counters = json.loads((tmp_path / "fit.diagnostics.json").read_text())["counters"]
        assert counters["lp_failures"] > 0 and any(row[1] == "nan" for row in rows)


@st.composite
def _hostile_csv(draw):
    """(CSV text, y values) with a wrong, missing or reordered header, 0-40
    rows, tied or constant y, extreme or non-finite values and reversed x."""
    header = draw(st.sampled_from(["x,y", "X,Y", "y", None, None, "y,x", "a,b", "x"]))
    two_columns = header in ("x,y", "X,Y", "y,x", "a,b") or (header is None and draw(st.booleans()))
    n = draw(st.integers(0, 40))
    value = st.one_of(st.floats(-10.0, 10.0), st.integers(-3, 3).map(float),
                      st.sampled_from([1e308, -1e308, 5e-324, -5e-324]))
    if draw(st.booleans()):
        ys = [draw(value)] * n
    else:
        ys = draw(st.lists(value, min_size=n, max_size=n))
    if n and draw(st.integers(0, 3)) == 0:
        ys[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    xs = [j / n for j in range(1, n + 1)]
    if draw(st.integers(0, 3)) == 0:
        xs.reverse()
    rows = [f"{x!r},{y!r}" if two_columns else repr(y) for x, y in zip(xs, ys)]
    return "\n".join(([header] if header else []) + rows) + "\n", ys


@settings(max_examples=50, deadline=None)
@given(case=_hostile_csv(), q=st.sampled_from([[], ["--q", "1"]]))
def test_estimate_on_hostile_csv_exits_cleanly(case, q):
    text, ys = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["estimate", path, *q, "--out", os.path.join(tmp, "fit.csv")])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        if code != 0:
            return
        assert err.getvalue() == ""
        _, rows = _read_csv(os.path.join(tmp, "fit.csv"))
    f_hat = np.array([float(r[1]) for r in rows])
    y = np.array(ys)
    ok = np.isfinite(f_hat)
    assert np.all(f_hat[ok] >= y[ok] - 1e-9 * max(1.0, float(np.abs(y).max())))


def _run_quietly(argv):
    """(exit code, stderr) of main(argv), asserting that it raised no warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(case=_hostile_csv(), x=st.sampled_from([[], ["--x", "0.25"], ["--x", "1"]]))
def test_tail_on_hostile_csv_exits_cleanly(case, x):
    text, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = _run_quietly(["tail", path, *x, "--out", os.path.join(tmp, "t.json")])
        assert code in (0, 2, 3, 4), err
        if code == 0:
            assert err == ""
            with open(os.path.join(tmp, "t.json"), encoding="utf-8") as fh:
                json.load(fh)


@st.composite
def _hostile_risks_file(draw):
    """A risks file with a wrong, missing or reordered header, 0-12 rows,
    repeated, fractional, non-positive, huge or non-finite n, and zero,
    negative, tiny, huge or non-finite risks and stderrs."""
    header = draw(st.sampled_from(["n,risk", "n,risk,stderr", "risk,n", "a,b", None]))
    width = 3 if header == "n,risk,stderr" else draw(st.sampled_from([2, 2, 3]))
    n_value = st.one_of(st.integers(-2, 5000).map(str),
                        st.sampled_from(["0.5", "1e308", "nan", "inf", "-inf", "100.0", "x"]))
    value = st.one_of(st.floats(1e-6, 10.0).map(repr),
                      st.sampled_from(["0", "-0.1", "5e-324", "1e308", "nan", "inf", "-inf", ""]))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(n_value), draw(value)] + ([draw(value)] if width == 3 else [])
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:1]
        rows.append(",".join(cells))
    if rows and draw(st.booleans()):
        rows.append(rows[0])
    return "\n".join(([header] if header else []) + rows) + "\n"


@settings(max_examples=50, deadline=None)
@given(text=_hostile_risks_file(),
       theory=st.sampled_from([[], ["--alpha", "1", "--beta", "1"], ["--target", "lq:2"]]))
def test_rates_on_hostile_risks_file_exits_cleanly(text, theory):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "risks.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = _run_quietly(["rates", "--risks-file", path, *theory,
                                  "--out", os.path.join(tmp, "r.csv")])
        assert code in (0, 2, 3, 4), err
        if code == 0:
            assert err == ""
            _, rows = _read_csv(os.path.join(tmp, "r.csv"))
            assert len(rows) >= 3


def test_tail_on_a_huge_scale_writes_no_warning(tmp_path):
    ys = -1e300 * np.random.default_rng(0).exponential(size=200)
    (tmp_path / "huge.csv").write_text("y\n" + "".join(f"{float(v)!r}\n" for v in ys))
    proc = _run_cli(["tail", "huge.csv", "--out", "t.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # b_hat is not scale invariant: here (log y)^b_hat overflows, written as null
    tail = json.loads((tmp_path / "t.json").read_text())
    assert tail["b_hat"] > 100.0 and None in tail["a_hat"]["value"]


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
    (["rates", "--risks-file", "r.csv", "--alpha", "-1", "--beta", "1"], 2),
    (["rates", "--risks-file", "r.csv", "--alpha", "0", "--beta", "1"], 2),
    (["rates", "--risks-file", "r.csv", "--alpha", "nan", "--beta", "1"], 2),
    (["rates", "--risks-file", "r.csv", "--alpha", "1", "--beta", "inf"], 2),
    (["rates", "--risks-file", "r.csv", "--alpha", "1", "--beta", "-2"], 2),
    (["rates", "--risks-file", "r.csv", "--alpha", "1"], 2),
    (["rates", "--risks-file", "r.csv", "--beta", "1"], 2),
    (["rates", "--risks-file", "r.csv", "--alpha", "1", "--beta", "2"], 0),
    # checked before any of the million replicates runs
    (["rates", "--f", "const", "--em", "negexp", "--reps", "1000000", "--n-list", "40,60,90",
      "--alpha", "-1", "--beta", "1"], 2),
    # a size that no float holds, which numpy once refused with a traceback
    (["simulate", "--f", "f2", "--em", "negexp", "--n", str(10**400)], 2),
    (["rates", "--f", "const", "--em", "negexp", "--reps", "2", "--n-list",
      f"100,200,{10**400}"], 2),
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


_SIMULATE = ["simulate", "--f", "f2", "--n", "40"]
_RATES = ["rates", "--f", "f2", "--n-list", "30,40,50", "--reps", "2"]


@pytest.mark.parametrize("command", [_SIMULATE, _RATES, _RATES + ["--threads", "2"]])
@pytest.mark.parametrize("model", [
    ["--em", "negexp", "--seed", "-1"],
    ["--em", "neggamma", "--shape", "inf"],
    ["--em", "negexp", "--rate", "1e-320"],
    ["--em", "negweibull", "--shape", "1e-320"],
])
def test_negative_seed_or_non_finite_draws_exit_2(tmp_path, command, model):
    # a negative seed, an infinite shape, and finite parameters whose draws
    # overflow: one error[config] line, before or inside the worker pool
    code, err = _run_quietly([*command, *model, "--out", str(tmp_path / "out.csv")])
    assert code == 2, err
    assert err.startswith("error[config] InvalidConfig:") and err.count("\n") == 1, err
    assert not (tmp_path / "out.csv").exists()


_MODEL_VALUES = st.sampled_from(["5e-324", "-5e-324", "1e-320", "1e-300", "0", "-1", "2.5",
                                 "1e300", "1.7976931348623157e308", "inf", "-inf", "nan"])


@settings(max_examples=30, deadline=None)
@given(rates=st.booleans(), em=st.sampled_from(ERROR_KINDS), rate=_MODEL_VALUES,
       shape=_MODEL_VALUES, profile=st.booleans(),
       seed=st.sampled_from(["0", "3", "-1", "-9223372036854775808", "18446744073709551616",
                             "1" + "0" * 30]))
def test_model_flags_and_seeds_exit_cleanly(rates, em, rate, shape, profile, seed):
    # hostile error-model parameters and seeds give a result or one
    # error[config] line; errors near -1e300 make the Monte Carlo loss
    # overflow a float, the documented numeric error.  No traceback or warning.
    command = _RATES + ["--threads", "1"] if rates else ["simulate", "--f", "f2", "--n", "60"]
    argv = [*command, "--em", em, f"--rate={rate}", f"--shape={shape}", f"--seed={seed}"]
    if profile and em == "neggamma":
        argv += ["--alpha-profile", "builtin"]
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_quietly([*argv, "--out", os.path.join(tmp, "out.csv")])
    assert code in (0, 2, 4), err
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1, err
        assert err.startswith("error[config]" if code == 2 else "error[numeric]"), err


def test_package_import_leaves_scipy_integrate_unloaded():
    code = "import sys, frontier_adapt; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_import_leaves_multiprocessing_unloaded():
    # only mc_risk with more than one worker starts a process pool
    code = "import sys, frontier_adapt; print('multiprocessing' in sys.modules)"
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
