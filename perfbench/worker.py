"""One workload in one fresh process; spawned by run.py, not run by hand.

Protocol on stdout: the line `READY` once set-up is done, then one JSON
object with the timings, the gate tallies and (with --trace) the per-layer
metrics. Every operation is checked against reference.json; a failed
operation is counted, never skipped.
"""
import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ELLS = (2, 8, 20)               # the l2 / l8 / l20 rows of every workload
SWEEP_ELLS = tuple(range(2, 21, 2))
DEGREE = 40
HD_TOL = 1e-12                  # ROADMAP aim 1: hd unchanged to 1e-12
RESIDUAL_GATE = 1e-6            # acceptance criterion 11


def import_feigdim():
    import feigdim
    src = os.path.join(ROOT, "src", "feigdim")
    if os.path.dirname(os.path.abspath(feigdim.__file__)) != src:
        raise SystemExit(f"feigdim imported from {feigdim.__file__}, "
                         f"not from {src}")
    return feigdim


class Gate:
    """Attempted/failed tallies plus the reference checks."""

    def __init__(self):
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.ref = {int(k): v for k, v in json.load(fh)["hd"].items()}
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, what):
        self.failed += 1
        self.notes.append(what)

    def row(self, ell, hd, hd_lo, hd_hi):
        """A certified row: hd matches the reference, inside its bracket."""
        self.attempted += 1
        ref = self.ref[ell][0]
        if abs(hd - ref) > HD_TOL:
            self.fail(f"ell={ell}: hd {hd!r} differs from reference {ref!r}")
        elif not hd_lo <= hd <= hd_hi:
            self.fail(f"ell={ell}: hd {hd!r} outside [{hd_lo!r}, {hd_hi!r}]")

    def bracket(self, ell, t_lo, t_hi):
        self.attempted += 1
        ref = self.ref[ell][0]
        if not t_lo <= ref <= t_hi:
            self.fail(f"ell={ell}: depth-4 bracket [{t_lo!r}, {t_hi!r}] "
                      f"misses reference hd {ref!r}")

    def residual(self, value):
        self.attempted += 1
        if not value < RESIDUAL_GATE:
            self.fail(f"conformality residual {value!r} >= {RESIDUAL_GATE}")

    def error(self, what, exc):
        self.attempted += 1
        self.fail(f"{what}: {type(exc).__name__}: {exc}")


class DimWarm:
    """Certified rows (`feigdim dim`) against a fixed-point cache filled in
    set-up the way `feigdim solve` fills it."""

    def __init__(self, fd, workdir, gate):
        self.fd, self.gate = fd, gate
        self.cache = os.path.join(workdir, "cache")
        os.makedirs(self.cache)
        for ell in ELLS:
            fp = fd.solve_fixed_point(fd.PERIOD_DOUBLING, ell, degree=DEGREE)
            fd.save_fixed_point(fp, self.cache)
        self.widths = {}

    def ops(self, rng):
        order = list(ELLS)
        rng.shuffle(order)
        return [(ell, ell) for ell in order]

    def run(self, ell):
        fd = self.fd
        path = os.path.join(self.cache, fd.cache_filename((2, ell, DEGREE)))
        try:
            res = fd.hausdorff_dimension(
                fd.build_system(fd.load_fixed_point(path)))
        except fd.FeigdimError as exc:
            self.gate.error(f"dim ell={ell}", exc)
            return
        self.gate.row(ell, res.hd, res.hd_lo, res.hd_hi)
        self.widths[ell] = res.hd_hi - res.hd_lo


class SweepCold:
    """`sweep(2..20, step 2)` into an empty cache directory each pass."""

    def __init__(self, fd, workdir, gate):
        self.fd, self.workdir, self.gate = fd, workdir, gate
        self.passes = 0
        self.widths = {}
        self.row_times = []

    def ops(self, rng):
        return [("sweep", None)]

    def run(self, _):
        fd = self.fd
        self.passes += 1
        cache = os.path.join(self.workdir, f"cache{self.passes}")
        stamps = []
        t0 = time.perf_counter()
        try:
            report = fd.sweep(SWEEP_ELLS, degree=DEGREE, cache_dir=cache,
                              progress=lambda ell, _:
                              stamps.append((ell, time.perf_counter())))
        except fd.FeigdimError as exc:
            for ell in SWEEP_ELLS:
                self.gate.error(f"sweep ell={ell}", exc)
            return
        prev = t0
        for ell, t in stamps:
            self.row_times.append((ell, t - prev))
            prev = t
        for ell, message in report.failures:
            self.gate.attempted += 1
            self.gate.fail(f"sweep ell={ell}: {message}")
        for row in report.rows:
            self.gate.row(row["ell"], row["hd"], row["hd_lo"], row["hd_hi"])
            self.widths[row["ell"]] = row["hd_hi"] - row["hd_lo"]


class Certify:
    """Depth-4 Moran brackets (criterion 07) and the depth-3 conformality
    residual at K=40 (criterion 11) on presentations built in set-up."""

    def __init__(self, fd, workdir, gate):
        self.fd, self.gate = fd, gate
        self.ps = {}
        for ell in ELLS:
            fp = fd.solve_fixed_point(fd.PERIOD_DOUBLING, ell, degree=DEGREE)
            self.ps[ell] = fd.build_presentation(fd.build_system(fp))
        self.pm = fd.build_pressure_model(self.ps[2], K=40)
        self.t_star = fd.hausdorff_dimension(
            self.ps[2], K=40, root_tol=1e-10, with_bracket=False).hd
        self.widths = {}
        self.residuals = []

    def ops(self, rng):
        order = [(ell, ("moran", ell)) for ell in ELLS]
        order.append(("conformal", ("conformal", 2)))
        rng.shuffle(order)
        return order

    def run(self, op):
        fd = self.fd
        kind, ell = op
        try:
            if kind == "moran":
                br = fd.moran_oracle(self.ps[ell], n=4)
            else:
                resid = fd.conformality_residual(self.pm, self.t_star, depth=3)
        except fd.FeigdimError as exc:
            self.gate.error(f"{kind} ell={ell}", exc)
            return
        if kind == "moran":
            self.gate.bracket(ell, br.t_lo, br.t_hi)
            self.widths[ell] = br.t_hi - br.t_lo
        else:
            self.gate.residual(resid)
            self.residuals.append(resid)


WORKLOADS = {"dim-warm": DimWarm, "sweep-cold": SweepCold, "certify": Certify}


def environment(fd):
    import numpy
    import platform
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "feigdim": fd.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0))}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes (0: fill --seconds)")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    fd = import_feigdim()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    gate = Gate()
    rng = random.Random(args.seed)
    load = WORKLOADS[args.workload](fd, args.workdir, gate)
    print("READY", flush=True)
    if args.setup_only:
        return

    passes, op_times = [], []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for key, op in load.ops(rng):
            t = time.perf_counter()
            load.run(op)
            op_times.append((key, time.perf_counter() - t))
        passes.append(time.perf_counter() - t_pass)
        if len(passes) == 1:
            # One pass is what one CLI call pays; later passes add heap
            # fragmentation that depends on how many passes fit.
            peak_rss_mb = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.passes:
            if len(passes) == args.passes:
                break
        elif time.perf_counter() - start + sorted(passes)[len(passes) // 2] \
                > args.seconds:
            break

    if isinstance(load, SweepCold):
        op_times = load.row_times
    out = {
        "passes": passes,
        "op_times": op_times,
        "widths": load.widths,
        "residuals": getattr(load, "residuals", []),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "notes": gate.notes,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(fd),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["trace_problems"] = tracer.self_check()
        out["trace_missing"] = tracer.missing
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
