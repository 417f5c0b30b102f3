"""Benchmark of the frontier_adapt package from a source checkout.

    python3 perfbench/run.py --workload lq_design --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One process, one client, closed loop: each operation starts when the
previous one has returned.  The run cycles through a pool of seeded inputs
for ``--seconds``, then checks every operation's output: against the stored
reference for seed 0, against earlier repeats of the same input, against
the workload's invariants, and by re-solving selected envelope fits with
scipy's HiGHS.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced operations on the same
inputs and reports per-layer metrics per traced operation.  The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from time import perf_counter

# One client, serial: keep BLAS and OpenMP from starting threads of their own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCE = os.path.join(HERE, "reference_seed0.json")
REFERENCE_SEED = 0
WORKLOAD_NAMES = ("lq_design", "pointwise_sparse", "mc_rates")
SETUP_REPEATS = 7
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile


def import_package():
    """Import frontier_adapt from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "frontier_adapt", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no package source at {init}")
    sys.path.insert(0, SRC)
    import frontier_adapt

    if os.path.realpath(frontier_adapt.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: imported {frontier_adapt.__file__}, expected {init}")


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_record(wl, args):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the config layout differs across numpy versions
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "FRONTIER_ADAPT_THREADS")},
        "workload": wl.name,
        "params": wl.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(args, workdir):
    """Median seconds from starting a fresh interpreter to workload-ready."""
    times = []
    for i in range(SETUP_REPEATS):
        child_dir = os.path.join(workdir, f"setup{i}")
        os.mkdir(child_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", child_dir]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: setup child failed (exit {code}, said {line!r})")
    return statistics.median(times)


def run_op(wl, inp, out, failures):
    """One timed operation; an exception is a failed operation, not a crash."""
    t0 = perf_counter()
    try:
        raw = wl.run(inp, out)
    except Exception:
        failures.append(traceback.format_exc())
        raw = None
    return perf_counter() - t0, raw


def measure(wl, inputs, seconds, workdir, sites=None):
    """Closed loop for ``seconds``.

    Returns (ops, wall seconds).  Each op is a dict with the input index,
    seconds, raw output, whether it ran traced, and its errors.  With trace
    call sites, ops come in pairs on the same input, untraced and traced,
    with the order alternating between pairs.
    """
    from tracer import installed

    ops = []
    with open(os.devnull, "w", encoding="utf-8") as null, redirect_stdout(null):
        start = perf_counter()
        i = 0
        while True:
            k = i % len(inputs)
            modes = (False,) if sites is None else ((False, True) if i % 2 == 0 else (True, False))
            for traced in modes:
                errors = []
                out = os.path.join(workdir, f"op{len(ops)}")
                if traced:
                    with installed(sites):
                        dt, raw = run_op(wl, inputs[k], out, errors)
                else:
                    dt, raw = run_op(wl, inputs[k], out, errors)
                ops.append({"input": k, "seconds": dt, "raw": raw, "traced": traced,
                            "errors": errors})
            i += 1
            if perf_counter() - start >= seconds:
                break
        wall = perf_counter() - start
    return ops, wall


def verify(wl, inputs, ops, seed):
    """Fill each op's errors from the output checks; run after the timed region."""
    from check import compare

    reference = None
    if seed == REFERENCE_SEED:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[wl.name]
    first = {}     # input -> record of its first operation
    resolved = {}  # input -> problems from the HiGHS re-solve, done once per input
    for op in ops:
        if op["raw"] is None:
            continue
        k = op["input"]
        try:
            rec = wl.read(inputs[k], op["raw"])
            op["errors"] += wl.invariants(inputs[k], rec)
            if reference is not None:
                op["errors"] += ["reference: " + m for m in compare(reference[k], rec)]
            if k in first:
                op["errors"] += ["repeat: " + m for m in compare(first[k], rec, rel_tol=0.0)]
            else:
                first[k] = rec
                resolved[k] = ["HiGHS: " + m for m in wl.resolve(inputs[k], rec)]
            op["errors"] += resolved[k]
            op["record"] = rec
        except Exception:
            op["errors"].append(traceback.format_exc())


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.make_inputs(args.seed, args.setup_only)
        print("ready", flush=True)
        return 0

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    try:
        return bench(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it


def bench(wl, args, workdir):
    import workloads
    from check import compare
    from tracer import Tracer

    setup_s = None if args.trace else measure_setup(args, workdir)
    inputs = wl.make_inputs(args.seed, workdir)
    with open(os.devnull, "w", encoding="utf-8") as null, redirect_stdout(null):
        wl.warm_up(workdir)

    tracer = Tracer() if args.trace else None
    sites = tracer.call_sites(workloads) if args.trace else None
    ops, wall = measure(wl, inputs, args.seconds, workdir, sites)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verify(wl, inputs, ops, args.seed)

    if args.trace:
        for untraced_op, traced_op in pairs(ops):
            if "record" in untraced_op and "record" in traced_op:
                traced_op["errors"] += ["traced output differs: " + m for m in compare(
                    untraced_op["record"], traced_op["record"], rel_tol=0.0)]

    failed = sum(1 for op in ops if op["errors"])
    for op in ops:
        for err in op["errors"]:
            print(f"FAILED op on input {op['input']}: {err}", file=sys.stderr)
    if args.trace and tracer.fired() != wl.spans:
        sys.exit(f"perfbench: trace wiring for {wl.name}: expected spans {sorted(wl.spans)}, "
                 f"fired {sorted(tracer.fired())}; a call site has moved")

    print("run: " + json.dumps(run_record(wl, args), sort_keys=True))
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        layer = tracer.per_op(len(traced_ops))
        overhead = sum(op["seconds"] for op in traced_ops) / sum(untraced) - 1.0
        layer["trace.overhead_share"] = (overhead, "ratio")
        metrics = {k: metric(v, u) for k, (v, u) in layer.items()}
    else:
        metrics = {
            "ops_per_s": metric((len(ops) - failed) / wall, "1/s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        n = len(untraced)
        p90 = (f"{statistics.quantiles(untraced, n=10)[-1]:.6g} s" if n >= P90_MIN_OPS
               else f"n/a (needs >= {P90_MIN_OPS} ops)")
        print(f"{wl.name} op_s_p50 = {statistics.median(untraced):.6g} s (n={n})")
        print(f"{wl.name} op_s_p90 = {p90} (n={n})")
    print(f"{wl.name} failed_share = {failed / len(ops):.6g} ({failed} of {len(ops)})")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def pairs(ops):
    """(untraced, traced) op pairs of a traced run, in run order."""
    for a, b in zip(ops[::2], ops[1::2]):
        yield (a, b) if not a["traced"] else (b, a)


def run_all(args):
    """Each workload in its own fresh process; prints every metric by name and unit."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("run: "):
                print(line)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = ok and bool(result and result["correct"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
