"""Parabolic diagnostics: dominance table, normal forms, Poincare series.

Covers the quantitative side of the parabolic limit: the per-ell Taylor
data of the return map at the critical point (multiplier, quadratic and
cubic coefficients, non-symmetry, dominance ratio), the coordinate changes
that remove the quadratic term and transport the cubic model to a
half-plane, the empirical boundedness constant of the affine model
family (the claim2 table), and truncated Poincare series with a
geometric tail estimate.
"""
import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCutCrossed,
    DomainError,
    LambdaDegenerate,
    RatioNotContracting,
)
from .unimodal import UnimodalSystem, eval_G, jet_compose

DEFAULT_R0 = 25.0


@dataclass(frozen=True)
class PoincareDiagnostics:
    rows: list
    R0: float

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ell", "lambda", "b", "a", "N",
                             "dominance_ratio"])
            for row in self.rows:
                writer.writerow([
                    row["ell"],
                    *(f"{row[key]:.12g}" for key in
                      ("lambda", "b", "a", "N", "dominance_ratio")),
                ])
        return path


def dominance_table(systems, R0=DEFAULT_R0):
    """Per-ell Taylor and dominance data for an ascending family of systems."""
    if len(systems) < 2:
        raise DomainError("dominance_table needs at least 2 systems")
    ells = [sys.ell for sys in systems]
    if sorted(ells) != ells or len(set(ells)) != len(ells):
        raise DomainError("systems must be strictly ascending in ell")
    combos = {(sys.p, sys.fp.combinatorics.orientation) for sys in systems}
    if len(combos) != 1:
        raise DomainError("systems mix combinatorics types")
    rows = []
    for sys in systems:
        lam, b, a = sys.taylor
        if abs(lam - 1.0) < 1e-12:
            raise LambdaDegenerate(f"multiplier within 1e-12 of 1 at ell={sys.ell}")
        d = float(np.sqrt(lam ** 3 / (2.0 * a))) if a > 0.0 else float("nan")
        rows.append({
            "ell": sys.ell, "lambda": lam, "b": b, "a": a,
            "N": sys.nonsymmetry, "dominance_ratio": abs(b) / abs(lam - 1.0),
            "sigma": lam ** -2.0, "d": d,
        })
    return PoincareDiagnostics(rows, R0)


def quadratic_normalization(lam, b, a=0.0):
    """B = b/(lam(lam-1)) and the residual quadratic term after conjugation.

    Conjugating f(z) = lam z + b z^2 - a z^3 by h(z) = z - B z^2 must kill
    the quadratic coefficient; the residual is returned as a check.
    """
    if abs(lam - 1.0) < 1e-12:
        raise LambdaDegenerate("multiplier within 1e-12 of 1 is parabolic")
    if abs(lam) < 1e-12:
        raise LambdaDegenerate("multiplier within 1e-12 of 0")
    B = b / (lam * (lam - 1.0))
    h = (1.0, -B, 0.0)
    h_inv = (1.0, B, 2.0 * B ** 2)
    f = (lam, b, -a)
    conj = jet_compose(h, jet_compose(f, h_inv))
    return B, abs(conj[1])


def to_parabolic_coords(lam, a, w, R0=DEFAULT_R0):
    """g(w) = (d / f(d w^{-1/2}))^2 for the cubic model f(z) = lam z - a z^3.

    Principal branch of the square root; the half-plane Re w > R0 must be
    preserved by the step or the coordinate change loses its branch.
    """
    if a <= 0.0:
        raise DomainError(f"cubic coefficient must be positive, got {a}")
    w = np.asarray(w, dtype=complex)
    if np.any(w.real <= R0):
        raise DomainError(f"Re w must exceed R0 = {R0}")
    d = np.sqrt(lam ** 3 / (2.0 * a))
    z = d * w ** -0.5
    fz = lam * z - a * z ** 3
    g = (d / fz) ** 2
    if np.any(g.real <= 0.0):
        raise BranchCutCrossed("image left the right half-plane")
    return g if g.ndim else complex(g)


def alpha_decay_check(lam, a, R0=DEFAULT_R0, factor=100.0, nre=40, nim=9):
    """sup over the half-plane grid of |alpha(w)| |w|^{1/2}.

    alpha(w) = g(w) - sigma w - 1 with sigma = lam^{-2}; for the cubic
    model it decays like 1/w, so the sup is finite and grid-stable.
    """
    sigma = lam ** -2.0
    re = np.geomspace(R0 * (1.0 + 1e-9), factor * R0, nre)
    im = np.linspace(-2.0 * R0, 2.0 * R0, nim)
    w = re[:, None] + 1j * im[None, :]
    g = to_parabolic_coords(lam, a, w, R0=R0)
    alpha = g - sigma * w - 1.0
    return float(np.max(np.abs(alpha) * np.sqrt(np.abs(w))))


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


def claim2_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "sigma", "w0", "i_max", "M"])
        for row in rows:
            writer.writerow([
                f"{row['p']:.12g}", f"{row['sigma']:.12g}",
                f"{row['w0']:.12g}", row["i_max"], f"{row['M']:.12g}",
            ])
    return path


@dataclass(frozen=True)
class LinearHarness:
    """g(y) = s y: the exactly summable model for poincare_tail."""

    s: float
    x_c: float = 0.0

    def g(self, y):
        return self.s * y

    def dg(self, y):
        return self.s


class _SystemOrbit:
    def __init__(self, sys):
        self.sys = sys
        self.x_c = sys.x_c

    def g(self, y):
        return float(eval_G(self.sys, y))

    def dg(self, y):
        return float(eval_G(self.sys, y, 1))


def poincare_tail(obj, t, x, V_radius, i_max=10_000):
    """Partial Poincare series over orbit visits to V, plus a geometric tail.

    Sums |(g^i)'(x)|^t over i with g^i(x) within V_radius of the fixed
    point, then appends last_product^t * r/(1-r)-style closure with r the
    local multiplier, which is exact for a linear map.
    """
    if t <= 0.0:
        raise DomainError(f"poincare_tail needs t > 0, got {t}")
    orbit = _SystemOrbit(obj) if isinstance(obj, UnimodalSystem) else obj
    if abs(x - orbit.x_c) < 1e-14:
        raise DomainError("start the orbit away from the fixed point")
    y = float(x)
    D = 1.0
    total = 0.0
    for _ in range(int(i_max)):
        if abs(y - orbit.x_c) <= V_radius:
            total += abs(D) ** t
        D *= orbit.dg(y)
        y = orbit.g(y)
        if D == 0.0:
            return total
    r = abs(orbit.dg(y)) ** t
    if r >= 1.0:
        raise RatioNotContracting(
            f"local multiplier {r:.4f} >= 1; tail not summable"
        )
    return total + abs(D) ** t / (1.0 - r)
