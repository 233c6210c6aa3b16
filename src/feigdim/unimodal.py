"""Dynamics derived from a solved fixed point.

H(x) = |E(x)|^ell on [0,1] (ell even, so H = E^ell with no branch issues),
tau = |alpha|^ell, and the microscope map G(x) = H(x/tau) (p = 2), which fixes
the critical point x_c and contracts toward it. Taylor data of G^eps at x_c
and the folding involution live here too.
"""
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (
    DomainError,
    InvariantViolation,
    NoCriticalPoint,
    OrbitEscaped,
    OutOfNeighborhood,
)

DEFAULT_ORBIT_MAX = 4096
_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class UnimodalSystem:
    """Derived dynamics of a fixed-point map.

    taylor = (lam, b, a) is the third-order expansion of G^eps at x_c in the
    form x_c + lam*h + b*h^2 - a*h^3; nonsymmetry is N = |E''(x_c)/E'(x_c)|.
    """

    fp: object
    tau: float
    x_c: float
    epsilon: int
    taylor: tuple
    nonsymmetry: float

    @property
    def ell(self):
        return self.fp.ell

    @property
    def p(self):
        return self.fp.combinatorics.p


def _H_jets(fp, x, order):
    """H = E^ell and derivatives up to `order` (<= 3), vectorized."""
    ell = fp.ell
    e = fp.E(x)
    out = [e ** ell]
    if order >= 1:
        e1 = fp.E(x, 1)
        out.append(ell * e ** (ell - 1) * e1)
    if order >= 2:
        e2 = fp.E(x, 2)
        out.append(ell * (ell - 1) * e ** (ell - 2) * e1 ** 2
                   + ell * e ** (ell - 1) * e2)
    if order >= 3:
        e3 = fp.E(x, 3)
        c3 = ell * (ell - 1) * (ell - 2)
        lead = c3 * e ** (ell - 3) * e1 ** 3 if c3 else 0.0
        out.append(lead + 3 * ell * (ell - 1) * e ** (ell - 2) * e1 * e2
                   + ell * e ** (ell - 1) * e3)
    return out


def _check_domain(x, lo, hi, what):
    if np.any(np.asarray(x) < lo - _SLACK) or np.any(np.asarray(x) > hi + _SLACK):
        raise DomainError(f"{what} argument outside [{lo}, {hi}]")


def eval_H(sys, x, deriv_order=0):
    """H or one of its first three derivatives at x in [0,1]."""
    if not 0 <= deriv_order <= 3:
        raise DomainError(f"deriv_order {deriv_order} outside 0..3")
    _check_domain(x, 0.0, 1.0, "eval_H")
    return _H_jets(sys.fp, np.asarray(x, dtype=float), deriv_order)[deriv_order]


def eval_G(sys, x, deriv_order=0):
    """G = H(x/tau) (p=2) or one of its first three derivatives.

    Domain is [0, tau] so that the inner argument stays in [0,1].
    """
    if not 0 <= deriv_order <= 3:
        raise DomainError(f"deriv_order {deriv_order} outside 0..3")
    _check_domain(x, 0.0, sys.tau, "eval_G")
    inner = np.asarray(x, dtype=float) / sys.tau
    return _H_jets(sys.fp, inner, deriv_order)[deriv_order] / sys.tau ** deriv_order


def _G_jets(sys, x, order=3):
    """(G, G', G'', G''') at x, one pass."""
    inner = np.asarray(x, dtype=float) / sys.tau
    jets = _H_jets(sys.fp, inner, order)
    return [jets[j] / sys.tau ** j for j in range(order + 1)]


def jet_compose(outer, inner):
    """Third-order jet of outer∘inner for jets [c1, c2, c3] at a common
    fixed point."""
    f1, f2, f3 = outer
    g1, g2, g3 = inner
    return (f1 * g1,
            f1 * g2 + f2 * g1 ** 2,
            f1 * g3 + 2 * f2 * g1 * g2 + f3 * g1 ** 3)


def build_system(fp):
    """Locate x_c, derive tau, eps, Taylor data, and verify the invariants."""
    e0 = float(fp.E(0.0))
    e1 = float(fp.E(1.0))
    if e0 * e1 >= 0.0:
        raise NoCriticalPoint("E has no sign change on (0,1)")
    x_c = brentq(lambda z: float(fp.E(z)), 0.0, 1.0, xtol=1e-15,
                 rtol=8.9e-16, maxiter=200)
    tau = abs(fp.alpha) ** fp.ell

    sys = UnimodalSystem(fp, tau, x_c, 0, (0.0, 0.0, 0.0), 0.0)
    g1 = float(eval_G(sys, x_c, 1))
    epsilon = 2 if g1 < 0.0 else 1

    _, d1, d2, d3 = (float(v) for v in _G_jets(sys, x_c))
    jet = (d1, d2 / 2.0, d3 / 6.0)
    if epsilon == 2:
        jet = jet_compose(jet, jet)
    lam, b2, c3 = jet
    taylor = (lam, b2, -c3)

    N = abs(float(fp.E(x_c, 2)) / float(fp.E(x_c, 1)))
    sys = UnimodalSystem(fp, tau, x_c, epsilon, taylor, N)

    if abs(float(eval_H(sys, x_c))) >= 1e-10:
        raise InvariantViolation("H(x_c) not 0 within 1e-10")
    if abs(float(eval_H(sys, 0.0)) - 1.0) >= 1e-10:
        raise InvariantViolation("H(0) not 1 within 1e-10")
    if abs(abs(g1) - tau ** (-1.0 / fp.ell)) >= 1e-8:
        raise InvariantViolation("multiplier law |G'(x_c)| = tau^(-1/ell) fails")
    if fp.combinatorics.orientation == "reversing" and epsilon != 2:
        raise InvariantViolation("reversing combinatorics must give eps = 2")
    res = conjugacy_residual(sys)
    if res >= 1e-9:
        raise InvariantViolation(f"tau H^2(x) = H(tau x) residual {res:.2e}")
    return sys


def conjugacy_residual(sys, npts=100):
    """Max of |tau H^2(x) - H(tau x)| over a grid on [0, 1/tau]."""
    x = np.linspace(0.0, 1.0 / sys.tau, npts)
    hh = eval_H(sys, np.clip(eval_H(sys, x), 0.0, 1.0))
    return float(np.max(np.abs(sys.tau * hh - eval_H(sys, sys.tau * x))))


def critical_orbit(sys, n, max_n=DEFAULT_ORBIT_MAX):
    """Orbit [c_0 ... c_n] with c_0 = x_c and c_{j+1} = H(c_j).

    Drift out of [0,1] up to 1e-12 is clamped (with a warning); anything
    larger raises OrbitEscaped. Since H = E^ell with ell even, H >= 0 and
    drift can only go above 1. Whether any drift happens at all depends on
    floating-point roundoff, so the warning is a guard, not an expected
    event.
    """
    if n > max_n:
        raise DomainError(f"orbit length {n} exceeds the configured max {max_n}")
    c = np.empty(n + 1)
    c[0] = sys.x_c
    drift = 0.0
    for j in range(n):
        nxt = float(eval_H(sys, c[j]))
        if nxt < -_SLACK or nxt > 1.0 + _SLACK:
            raise OrbitEscaped(f"c_{j + 1} = {nxt} left [0,1]")
        if nxt < 0.0 or nxt > 1.0:
            drift = max(drift, max(-nxt, nxt - 1.0))
            nxt = min(max(nxt, 0.0), 1.0)
        c[j + 1] = nxt
    if drift > 0.0:
        warnings.warn(f"critical orbit clamped to [0,1], max drift {drift:.2e}")
    return c


def involution(sys, x, deriv=False):
    """The point x_hat != x with H(x_hat) = H(x), i.e. E(x_hat) = -E(x).

    Defined on [x_lo, 1] where x_lo solves E(x_lo) = |E(1)|; with deriv=True
    also returns d x_hat / dx = -E'(x)/E'(x_hat).
    """
    fp = sys.fp
    x = float(x)
    edge = abs(float(fp.E(1.0)))
    if not 0.0 <= x <= 1.0 + _SLACK:
        raise OutOfNeighborhood(f"{x} outside [0,1]")
    ex = float(fp.E(min(x, 1.0)))
    if ex > edge + _SLACK:
        raise OutOfNeighborhood(
            f"E({x}) = {ex:.6f} > |E(1)| = {edge:.6f}: no mirror point in [0,1]"
        )
    target = -min(ex, edge)
    if target == 0.0:
        x_hat = sys.x_c
    else:
        x_hat = brentq(lambda z: float(fp.E(z)) - target, 0.0, 1.0,
                       xtol=1e-15, rtol=8.9e-16, maxiter=200)
    if not deriv:
        return x_hat
    d = -float(fp.E(x, 1)) / float(fp.E(x_hat, 1))
    return x_hat, d


def second_derivative_identity(sys):
    """Relative defect of |(G^eps)''(x_c)| = N lam (1 - lam).

    lam is the multiplier of G^eps itself (the square's multiplier for
    eps = 2), which is what makes the identity exact.
    """
    lam, b, _ = sys.taylor
    lhs = abs(2.0 * b)
    rhs = sys.nonsymmetry * lam * (1.0 - lam)
    return abs(lhs - rhs) / abs(rhs)
