"""Parabolic diagnostics: the dominance table and the claim2 scan.

Covers the quantitative side of the parabolic limit: the per-ell Taylor
data of the return map at the critical point (multiplier, quadratic and
cubic coefficients, non-symmetry, dominance ratio), and the empirical
boundedness constant of the affine model family (the claim2 table).
Both are lists of dict rows; `feigdim diagnose` writes them as CSV with
fixedpoint.write_csv under DOMINANCE_HEADER and CLAIM2_HEADER.
"""
import numpy as np

from .errors import DomainError, LambdaDegenerate

DOMINANCE_HEADER = ["ell", "lambda", "b", "a", "N", "dominance_ratio"]
CLAIM2_HEADER = ["p", "sigma", "w0", "i_max", "M"]


def dominance_table(systems):
    """Per-ell Taylor and dominance rows for an ascending family of systems."""
    if len(systems) < 2:
        raise DomainError("dominance_table needs at least 2 systems")
    ells = [sys.ell for sys in systems]
    if sorted(ells) != ells or len(set(ells)) != len(ells):
        raise DomainError("systems must be strictly ascending in ell")
    rows = []
    for sys in systems:
        lam, b, a = sys.taylor
        if abs(lam - 1.0) < 1e-12:
            raise LambdaDegenerate(f"multiplier within 1e-12 of 1 at ell={sys.ell}")
        rows.append({
            "ell": sys.ell, "lambda": lam, "b": b, "a": a,
            "N": sys.nonsymmetry, "dominance_ratio": abs(b) / abs(lam - 1.0),
        })
    return rows


def claim2_scan(p, w0, sigma_grid, i_max=100_000):
    """Empirical M = sup_i i^p |(T^i)'(w0)| / |T^i(w0)|^p for T(w) = sigma w + 1.

    Closed-form orbits, evaluated in log space so large i and sigma near 1
    do not overflow; one row per sigma.
    """
    if p <= 1.0:
        raise DomainError(f"claim2_scan needs p > 1, got {p}")
    if w0 <= 1.0:
        raise DomainError(f"claim2_scan needs w0 > 1, got {w0}")
    if i_max > 1_000_000:
        raise DomainError(f"i_max capped at 1e6, got {i_max}")
    rows = []
    i = np.arange(1, int(i_max) + 1, dtype=float)
    logi = np.log(i)
    for sigma in sigma_grid:
        if sigma < 1.0:
            raise DomainError(f"sigma grid must be >= 1, got {sigma}")
        if sigma == 1.0:
            log_m = p * (logi - np.log(w0 + i))
        else:
            ls = np.log(sigma)
            A = w0 + 1.0 / (sigma - 1.0)
            B = 1.0 / (sigma - 1.0)
            log_m = (p * logi - (p - 1.0) * i * ls - p * np.log(A)
                     - p * np.log1p(-(B / A) * np.exp(-i * ls)))
        rows.append({"p": p, "sigma": float(sigma), "w0": w0,
                     "i_max": int(i_max), "M": float(np.exp(log_m.max()))})
    return rows
