"""Command line front end: solve, dim, sweep, diagnose.

Exit codes: 0 success, 1 usage error, 2 numerical failure (partial outputs
are still written). Every output file gets a sibling run manifest with the
invocation, library versions, and a checksum of the file.
"""
import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy
import scipy

from . import __version__
from .dimension import CSV_HEADER, DimensionReport, hausdorff_dimension, sweep
from .errors import FeigdimError
from .fixedpoint import cached_solve, load_fixed_point
from .poincare import claim2_csv, claim2_scan, dominance_table
from .unimodal import build_system

DEFAULT_CACHE = ".feigdim-cache"


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default; this CLI uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class RunConfig:
    command: str
    ells: list
    degree: int
    K: object
    nc: int
    tol: float
    cache_dir: str
    out: object
    seed_file: object


def _parse_ells(spec, parser):
    try:
        a, step, b = (int(part) for part in spec.split(":"))
    except ValueError:
        parser.error(f"--ells expects a:step:b, got {spec!r}")
    if step <= 0 or b < a:
        parser.error(f"--ells range {spec!r} must ascend")
    ells = list(range(a, b + 1, step))
    if any(ell <= 0 or ell % 2 for ell in ells):
        parser.error(f"--ells {spec!r} must contain positive even values")
    return ells


def build_parser():
    parser = _Parser(prog="feigdim",
                     description="Renormalization Cantor-attractor toolkit")
    parser.add_argument("--version", action="version",
                        version=f"feigdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": "solve fixed points and populate the cache",
        "dim": "Hausdorff dimension at one ell",
        "sweep": "dimension sweep over an ell range",
        "diagnose": "dominance table and claim2 constant-scan CSVs",
    }
    parsers = {}
    for name, text in specs.items():
        cmd = sub.add_parser(name, help=text, description=text)
        cmd.add_argument("--ell", type=int, help="criticality order (even)")
        cmd.add_argument("--ells", help="range a:step:b of even ells")
        cmd.add_argument("--degree", type=int, default=40)
        cmd.add_argument("--K", type=int, default=None,
                         help="alphabet truncation (default: auto-escalated)")
        cmd.add_argument("--nc", type=int, default=32,
                         help="collocation nodes on I")
        cmd.add_argument("--tol", type=float, default=1e-10,
                         help="fixed-point residual tolerance")
        cmd.add_argument("--cache", default=None,
                         help=f"cache directory (default {DEFAULT_CACHE}; "
                              "FEIGDIM_CACHE overrides)")
        cmd.add_argument("--out", default=None, help="output path")
        cmd.add_argument("--seed-file", default=None,
                         help="fixed-point JSON used as the Newton seed")
        parsers[name] = cmd
    return parser, parsers


def _config_from(args, parser):
    if args.ells is not None:
        ells = _parse_ells(args.ells, parser)
    elif args.ell is not None:
        if args.ell <= 0 or args.ell % 2:
            parser.error(f"--ell must be positive even, got {args.ell}")
        ells = [args.ell]
    else:
        ells = None
    need = {"solve": "an --ell or --ells", "dim": "an --ell",
            "sweep": "an --ells range", "diagnose": "an --ells range"}
    if ells is None:
        parser.error(f"{args.command} requires {need[args.command]}")
    if args.command == "dim" and len(ells) != 1:
        parser.error("dim takes a single --ell")
    if args.command in ("sweep", "diagnose") and len(ells) < 2:
        parser.error(f"{args.command} needs at least two ells")
    cache_dir = os.environ.get("FEIGDIM_CACHE") or args.cache or DEFAULT_CACHE
    return RunConfig(args.command, ells, args.degree, args.K, args.nc,
                     args.tol, cache_dir, args.out, args.seed_file)


def _write_manifest(cfg, path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    manifest = {
        "tool": "feigdim",
        "command": cfg.command,
        "argv": sys.argv[1:],
        "config": {
            "ells": cfg.ells, "degree": cfg.degree,
            "K": cfg.K, "nc": cfg.nc, "tol": cfg.tol,
            "cache_dir": cfg.cache_dir, "seed_file": cfg.seed_file,
        },
        "versions": {
            "feigdim": __version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "output": {
            "path": os.path.basename(path),
            "sha256": digest.hexdigest(),
            "bytes": os.path.getsize(path),
        },
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    mpath = f"{path}.manifest.json"
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return mpath


def _fixed_points(cfg):
    """(ell, fp, path, hit) for each ell, each continued from the previous."""
    guess = None
    if cfg.seed_file is not None:
        seed = load_fixed_point(cfg.seed_file, revalidate=False)
        guess = seed.e_coeffs, seed.alpha
    fp = None
    for ell in cfg.ells:
        fp, path, hit = cached_solve(ell, cfg.degree, cfg.tol, cfg.cache_dir,
                                     prev=fp, initial_guess=guess)
        yield ell, fp, path, hit


def cmd_solve(cfg):
    for ell, fp, path, hit in _fixed_points(cfg):
        _write_manifest(cfg, path)
        state = "cached" if hit else "solved"
        print(f"ell={ell} alpha={fp.alpha:.12g} residual={fp.residual:.3g} "
              f"{state} {path}")
    return 0


def cmd_dim(cfg):
    _, fp, _, _ = next(_fixed_points(cfg))
    sys_ = build_system(fp)
    report = DimensionReport()
    row = report.add(sys_, hausdorff_dimension(sys_, K=cfg.K, Nc=cfg.nc))
    print(",".join(CSV_HEADER))
    print(",".join(report.cells(row)))
    if cfg.out is not None:
        report.to_csv(cfg.out)
        _write_manifest(cfg, cfg.out)
    return 0


def cmd_sweep(cfg):
    out = cfg.out or "sweep.csv"
    report = sweep(cfg.ells, degree=cfg.degree, K=cfg.K, Nc=cfg.nc,
                   tol=cfg.tol, cache_dir=cfg.cache_dir)
    report.to_csv(out)
    _write_manifest(cfg, out)
    for ell, message in report.failures:
        print(f"ell={ell} failed: {message}", file=sys.stderr)
    print(f"wrote {len(report.rows)} rows to {out}")
    return 2 if report.failures else 0


def cmd_diagnose(cfg):
    out_dir = cfg.out or "."
    os.makedirs(out_dir, exist_ok=True)
    systems = [build_system(fp) for _, fp, _, _ in _fixed_points(cfg)]
    table = dominance_table(systems)
    dom_path = table.to_csv(os.path.join(out_dir, "dominance.csv"))
    _write_manifest(cfg, dom_path)
    rows = claim2_scan(1.5, 2.0, (1.0, 1.001, 1.01, 1.1), i_max=100_000)
    c2_path = claim2_csv(rows, os.path.join(out_dir, "claim2.csv"))
    _write_manifest(cfg, c2_path)
    print(f"wrote {dom_path} and {c2_path}")
    return 0


def main(argv=None):
    parser, _ = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from(args, parser)
    handler = {"solve": cmd_solve, "dim": cmd_dim, "sweep": cmd_sweep,
               "diagnose": cmd_diagnose}[cfg.command]
    try:
        return handler(cfg)
    except FeigdimError as exc:
        print(f"feigdim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
