"""Regenerate reference.json: (hd, hd_lo, hd_hi) per even ell from 2 to 20.

    python3 perfbench/make_reference.py

The values are those of `sweep(2..20)` at the commit that defined the
benchmark; the workloads fail an operation whose hd moves by more than
1e-12. Regenerate only when a change is meant to move hd, and say so.
"""
import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import feigdim as fd  # noqa: E402

from worker import SWEEP_ELLS, environment  # noqa: E402


def main():
    with tempfile.TemporaryDirectory(dir=HERE) as cache:
        report = fd.sweep(SWEEP_ELLS, cache_dir=cache)
    if report.failures:
        raise SystemExit(f"sweep failed: {report.failures}")
    record = {"hd": {str(r["ell"]): [r["hd"], r["hd_lo"], r["hd_hi"]]
                     for r in report.rows},
              "env": environment(fd)}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
