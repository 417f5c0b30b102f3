"""Write reference_seed0.json: every seed-0 pool input's output record.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are the accepted ones; the benchmark
compares every seed-0 run against this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout

import run


def main():
    run.import_package()
    from workloads import WORKLOADS

    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
    reference = {}
    try:
        for name, wl in WORKLOADS.items():
            inputs = wl.make_inputs(run.REFERENCE_SEED, workdir)
            records = []
            for k, inp in enumerate(inputs):
                with open(os.devnull, "w", encoding="utf-8") as null, redirect_stdout(null):
                    raw = wl.run(inp, os.path.join(workdir, f"{name}{k}"))
                rec = wl.read(inp, raw)
                problems = wl.invariants(inp, rec) + wl.resolve(inp, rec)
                if problems:
                    sys.exit(f"{name} input {k}: {problems}")
                records.append(rec)
            reference[name] = records
            print(f"{name}: {len(records)} records")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
