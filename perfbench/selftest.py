"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the output checker accepts the stored reference and flags a
value perturbed by 1e-9 relative, a changed k_hat and a changed counter;
that trace wrappers are removed again after a traced operation; and that a
short traced run of every workload passes, which asserts in the run itself
that each wrapper fired where expected and that traced and untraced outputs
are bit-identical.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import run

# (workload, path to one float, path to one int) inside a reference record
PROBES = {
    "lq_design": (("f_hat", 800), ("k_hat",)),
    "pointwise_sparse": (("values", 9), ("k_hat", 9)),
    "mc_rates": (("risks", 1), ("n", 0)),
}


def _get(rec, path):
    for key in path[:-1]:
        rec = rec[key]
    return rec, path[-1]


def check_checker(reference):
    from check import compare

    for name, (float_path, int_path) in PROBES.items():
        rec = reference[name][0]
        assert compare(rec, copy.deepcopy(rec)) == [], name
        bumped = copy.deepcopy(rec)
        parent, key = _get(bumped, float_path)
        parent[key] *= 1.0 + 1e-9
        assert compare(rec, bumped), f"{name}: 1e-9 relative change not flagged"
        bumped = copy.deepcopy(rec)
        parent, key = _get(bumped, int_path)
        parent[key] += 1
        assert compare(rec, bumped), f"{name}: integer change not flagged"
    rec = copy.deepcopy(reference["pointwise_sparse"][0])
    rec["counters"]["lp_failures"] = rec["counters"].get("lp_failures", 0) + 1
    assert compare(reference["pointwise_sparse"][0], rec), "counter change not flagged"
    print("checker: flags 1e-9 relative, k_hat and counter changes")


def check_patching():
    import workloads
    from frontier_adapt import local_poly
    from tracer import Tracer, installed

    original = local_poly.solve_lp
    tracer = Tracer()
    with installed(tracer.call_sites(workloads)):
        assert local_poly.solve_lp is not original
    assert local_poly.solve_lp is original, "trace wrapper left installed"
    print("tracer: wrappers restored after the traced block")


def check_traced_runs():
    for name in run.WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
               "--seed", str(run.REFERENCE_SEED), "--seconds", "0", "--trace", "1"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
        assert proc.returncode == 0, f"{name}: traced run exited {proc.returncode}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], f"{name}: traced run not correct"
        lp_calls = result["metrics"]["lp.calls"]["value"]
        print(f"trace {name}: wiring and bit-identity hold, lp.calls per op = {lp_calls:g}")


def main():
    run.import_package()
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    check_checker(reference)
    check_patching()
    check_traced_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()
