"""Alternating pairs of benchmark runs on a base commit and on this tree.

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --seconds 35 \
        --seed 3201 --out BENCH_32.json

Exports the commit --base with `git archive` into a temporary directory
and runs each tree's own perfbench/run.py, which must be byte-identical in
the two, on every workload of BENCHMARK.json. Pair i runs seed + i on
both trees, the base first in even pairs and this tree first in odd ones.
Then one --trace 1 run per tree and workload records the per-layer
metrics. The JSON written to --out holds, per workload and end-to-end
metric, each side's runs, median and quartiles and the pairs this tree
wins and ties; the traced metrics of each side; every run's gate
(attempted, failed, correct); and each side's `# env` lines.
"""
import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHARED = ("BENCHMARK.json", "perfbench/run.py", "perfbench/worker.py",
          "perfbench/tracer.py", "perfbench/reference.json")


def export(rev, dest):
    """The files of commit rev under dest, by git archive."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def same_benchmark(a, b):
    """The benchmark files that decide what is measured are equal."""
    def read(root, name):
        with open(os.path.join(root, name), "rb") as fh:
            return fh.read()
    return all(read(a, name) == read(b, name) for name in SHARED)


def run(tree, workload, seed, seconds, trace):
    """One perfbench run of tree: (parsed result, `# env` line)."""
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    env = next(line for line in out if line.startswith("# env "))
    return json.loads(out[-1]), env


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(metric, base, head):
    """Summaries of metric's runs on both sides and this tree's wins."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (b - h) > 0.0 for b, h in zip(base, head))
    ties = sum(b == h for b, h in zip(base, head))
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "base": summary(base),
            "head": summary(head), "wins": wins, "ties": ties}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="commit to compare with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--seed", type=int, required=True, help="first seed")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]

    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tree:
        export(args.base, base_tree)
        if not same_benchmark(base_tree, ROOT):
            sys.exit("the benchmark differs between the base and this tree")
        trees = {"base": base_tree, "head": ROOT}
        values = {w: {side: [] for side in trees} for w in workloads}
        gates, envs = [], {side: set() for side in trees}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for workload in workloads:
                for side in order:
                    res, env = run(trees[side], workload, args.seed + i,
                                   args.seconds, 0)
                    values[workload][side].append(res["metrics"])
                    envs[side].add(env)
                    gates.append({"side": side, "workload": workload,
                                  "seed": args.seed + i, "trace": 0,
                                  **{k: res[k] for k in
                                     ("attempted", "failed", "correct")}})
                    print(f"pair {i} {workload} {side}: wall_s "
                          f"{res['metrics']['wall_s']['value']:.4f}",
                          file=sys.stderr, flush=True)
        traced = {w: {} for w in workloads}
        for workload in workloads:
            for side in trees:
                res, env = run(trees[side], workload, args.seed, 10, 1)
                envs[side].add(env)
                traced[workload][side] = {name: m["value"] for name, m in
                                          res["metrics"].items()}
                gates.append({"side": side, "workload": workload,
                              "seed": args.seed, "trace": 1,
                              **{k: res[k] for k in
                                 ("attempted", "failed", "correct")}})

    report = {"base": args.base, "pairs": args.pairs,
              "seconds": args.seconds,
              "seeds": [args.seed + i for i in range(args.pairs)],
              "env": {side: sorted(lines) for side, lines in envs.items()},
              "gates": gates, "workloads": {}}
    for workload in workloads:
        runs = values[workload]
        report["workloads"][workload] = {
            "end_to_end": {
                m["name"]: compare(
                    m, *([r[m["name"]]["value"] for r in runs[side]]
                         for side in ("base", "head")))
                for m in bench["end_to_end"]},
            "traced": traced[workload]}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
