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

import numpy

from . import __version__
from .dimension import DimensionReport, hausdorff_dimension, sweep
from .errors import FeigdimError
from .fixedpoint import cached_solve, load_fixed_point, write_csv
from .poincare import (
    CLAIM2_HEADER,
    DOMINANCE_HEADER,
    claim2_scan,
    dominance_table,
)
from .unimodal import build_system

DEFAULT_CACHE = ".feigdim-cache"


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default; this CLI uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


_FLAGS = {
    "--ell": dict(type=int, help="criticality order (even)"),
    "--ells": dict(help="range a:step:b of even ells"),
    "--degree": dict(type=int, default=40),
    "--K": dict(type=int,
                help="alphabet truncation (default: auto-escalated)"),
    "--nc": dict(type=int, default=32, help="collocation nodes on I"),
    "--tol": dict(type=float, default=1e-10,
                  help="fixed-point residual tolerance"),
    "--cache": dict(help=f"cache directory (default {DEFAULT_CACHE}; "
                         "FEIGDIM_CACHE overrides)"),
    "--out": dict(help="output path"),
    "--seed-file": dict(help="fixed-point JSON used as the Newton seed"),
}

# each subcommand takes only the flags it reads; the rest read as None
_COMMANDS = {
    "solve": ("solve fixed points and populate the cache",
              ("--ell", "--ells", "--degree", "--tol", "--cache",
               "--seed-file")),
    "dim": ("Hausdorff dimension at one ell",
            tuple(flag for flag in _FLAGS if flag != "--ells")),
    "sweep": ("dimension sweep over an ell range",
              ("--ells", "--degree", "--K", "--nc", "--tol", "--cache",
               "--out")),
    "diagnose": ("dominance table and claim2 constant-scan CSVs",
                 ("--ells", "--degree", "--tol", "--cache", "--out",
                  "--seed-file")),
}


def build_parser():
    parser = _Parser(prog="feigdim",
                     description="Renormalization Cantor-attractor toolkit")
    parser.add_argument("--version", action="version",
                        version=f"feigdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text, description=text)
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
        cmd.set_defaults(**{flag[2:].replace("-", "_"): None
                            for flag in _FLAGS if flag not in flags})
    return parser


def _config_from(args, parser, argv):
    """args with ells parsed to a list, and cache_dir and argv set."""
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
    if args.command in ("sweep", "diagnose") and len(ells) < 2:
        parser.error(f"{args.command} needs at least two ells")
    for flag, value in (("--K", args.K), ("--nc", args.nc)):
        if value is not None and value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
    if args.degree < 10:
        parser.error(f"--degree must be >= 10, got {args.degree}")
    if not 0.0 < args.tol < float("inf"):
        parser.error(f"--tol must be finite and > 0, got {args.tol}")
    # a bad --out or cache directory fails here, not after the solves
    if args.command != "diagnose" and args.out is not None and (
            os.path.isdir(args.out)
            or not os.path.isdir(os.path.dirname(args.out) or ".")):
        parser.error(f"--out {args.out!r} is not a file path in an "
                     "existing directory")
    args.ells = ells
    args.cache_dir = (os.environ.get("FEIGDIM_CACHE") or args.cache
                      or DEFAULT_CACHE)
    dirs = {"cache directory": args.cache_dir}
    if args.command == "diagnose":
        dirs["--out"] = args.out or "."
    for what, path in dirs.items():
        probe = os.path.abspath(path)   # or its nearest existing ancestor
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            parser.error(f"{what} {path!r}: {probe!r} is not a directory")
    args.argv = argv
    return args


def _write_manifest(cfg, path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    manifest = {
        "tool": "feigdim",
        "command": cfg.command,
        "argv": cfg.argv,
        "config": {
            "ells": cfg.ells, "degree": cfg.degree,
            "K": cfg.K, "nc": cfg.nc, "tol": cfg.tol,
            "cache_dir": cfg.cache_dir, "seed_file": cfg.seed_file,
        },
        "versions": {
            "feigdim": __version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
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
    report.add(sys_, hausdorff_dimension(sys_, K=cfg.K, Nc=cfg.nc))
    report.to_csv(sys.stdout)
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
    dom_path = write_csv(os.path.join(out_dir, "dominance.csv"),
                         DOMINANCE_HEADER, dominance_table(systems))
    _write_manifest(cfg, dom_path)
    c2_path = write_csv(os.path.join(out_dir, "claim2.csv"), CLAIM2_HEADER,
                        claim2_scan(1.5, 2.0, (1.0, 1.001, 1.01, 1.1),
                                    i_max=100_000))
    _write_manifest(cfg, c2_path)
    print(f"wrote {dom_path} and {c2_path}")
    return 0


def main(argv=None):
    # resolved once: the parser and the manifest see the same list
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from(args, parser, argv)
    handler = {"solve": cmd_solve, "dim": cmd_dim, "sweep": cmd_sweep,
               "diagnose": cmd_diagnose}[cfg.command]
    try:
        return handler(cfg)
    except FeigdimError as exc:
        print(f"feigdim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
