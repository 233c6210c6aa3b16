"""feigdim benchmark: certified-dimension latency, cold sweep, cross-checks.

    python3 perfbench/run.py --workload dim-warm --seed 1 --seconds 35 --trace 0

Runs from any directory; the checkout is the parent of this file's
directory, and the package is imported from its `src/`. Each workload runs
in fresh processes (worker.py) with BLAS pinned to one thread, no
FEIGDIM_CACHE, and every cache directory under a temporary directory in the
checkout that is removed on exit.

--trace 0 prints the end-to-end metrics: set-up is repeated SETUP_SAMPLES
times in fresh processes and reported as a median; the workload then runs
passes for --seconds and reports medians. --trace 1 runs exactly one pass
untraced and one pass traced (tracer.py), and prints the per-layer metrics
plus the tracing overhead. The last stdout line is the JSON result; the
lines before it list every metric with its unit, the gate and the
environment. See README.md for the workloads and what each metric should
move.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dim-warm", "sweep-cold", "certify")
ELL_KEYS = {2: "l2", 8: "l8", 20: "l20"}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("FEIGDIM_CACHE", None)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(args, workdir, deadline, extra=()):
    """Run one worker; returns (seconds until READY, parsed result or None)."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=workdir)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"worker set-up failed: {ready!r}")
        lines = proc.stdout.read().splitlines()
        if proc.wait() != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if time.monotonic() > deadline:
        raise BenchError("benchmark ran past its deadline")
    if "--setup-only" in extra:
        return setup_s, None
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def row_medians(pairs):
    """Median seconds of the per-ell operation at ell 2, 8 and 20."""
    out = {}
    for ell, key in ELL_KEYS.items():
        vals = [t for k, t in pairs if k == ell]
        if not vals:
            raise BenchError(f"no timed operation at ell={ell}")
        out[f"row_s.{key}"] = statistics.median(vals)
    return out


def end_to_end(args, tmp, deadline):
    # Set-up samples bracket the timed run, so a slow spell of the machine
    # does not land on all of them.
    def setup_only(i):
        return spawn(args, os.path.join(tmp, f"setup{i}"), deadline,
                     ["--setup-only"])[0]

    setups = [setup_only(i) for i in range(SETUP_SAMPLES // 2)]
    setup_s, res = spawn(args, os.path.join(tmp, "run"), deadline)
    setups.append(setup_s)
    setups += [setup_only(i) for i in range(SETUP_SAMPLES // 2,
                                            SETUP_SAMPLES - 1)]
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "wall_s": (statistics.median(res["passes"]), "s")}
    for ell, key in ELL_KEYS.items():
        width = res["widths"].get(str(ell))
        if width is None:
            raise BenchError(f"no bracket at ell={ell}")
        metrics[f"bracket_width.{key}"] = (width, "1")
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    rows = row_medians(res["op_times"])
    info = [f"passes {len(res['passes'])}, timed operations "
            f"{len(res['op_times'])}, set-up samples {len(setups)}",
            "unbounded medians: " + ", ".join(
                f"{name} {value:.4f} s" for name, value in rows.items())]
    if res["residuals"]:
        info.append(f"conformality residual (ell=2, depth 3, K=40) "
                    f"max {max(res['residuals']):.3e}, gate 1e-6")
    return metrics, res, [res], info


def per_layer(args, tmp, deadline):
    _, base = spawn(args, os.path.join(tmp, "untraced"), deadline,
                    ["--passes", "1"])
    _, traced = spawn(args, os.path.join(tmp, "traced"), deadline,
                      ["--passes", "1", "--trace"])
    metrics = {name: (value, "s")
               for name, value in row_medians(base["op_times"]).items()}
    for name, value in traced["layers"].items():
        unit = "s" if name.endswith(".s") else "count"
        if name.endswith(".bytes"):
            unit = "bytes"
        elif name.endswith(".terms"):
            unit = "count.computed"
        metrics[name] = (value, unit)
    overhead = traced["passes"][0] - base["passes"][0]
    metrics["trace.overhead_s"] = (overhead, "s")
    info = [f"untraced pass {base['passes'][0]:.4f} s, traced pass "
            f"{traced['passes'][0]:.4f} s"]
    for problem in traced["trace_problems"]:
        info.append(f"trace self-check: {problem}")
    for name in traced["trace_missing"]:
        info.append(f"not traced, no such function: {name}")
    return metrics, traced, [base, traced], info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "feigdim", "__init__.py")):
        print(f"no feigdim sources under {ROOT}/src", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, res, runs, info = measure(args, tmp, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if attempted == 0:
        print("benchmark failed: no operation was attempted", file=sys.stderr)
        return 1
    correct = failed == 0 and not res.get("trace_problems")
    env = res["env"]
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    print("# env " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for line in info:
        print(f"# {line}")
    for r in runs:
        for note in r["notes"]:
            print(f"# FAILED {note}")
    print(f"# gate: {failed} of {attempted} operations failed "
          f"(failed_share {failed / attempted:.4g}); correct {correct}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
