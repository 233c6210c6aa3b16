"""Dynamics derived from a solved fixed point.

H(x) = |E(x)|^ell on [0,1] (ell even, so H = E^ell with no branch issues),
tau = |alpha|^ell, and the microscope map G(x) = H(x/tau), which fixes the
critical point x_c and contracts toward it. G = e^ell runs on its own
short series e(w) = E(w/tau) on [0, 1], built once per system by
build_system; H keeps E's full series. Period doubling reverses
orientation at x_c (G'(x_c) < 0), so the Taylor data at x_c are those of
G^2. x_c is the root of E, located by Brent's method (roots.brentq). The
critical orbit and the jets of H and G feed the presentation IFS; the
Taylor data feed the dominance table.
"""
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import cheb
from .errors import (
    DomainError,
    InvariantViolation,
    NoCriticalPoint,
    OrbitEscaped,
)
from .roots import brentq

DEFAULT_ORBIT_MAX = 4096
_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class UnimodalSystem:
    """Derived dynamics of a fixed-point map.

    taylor = (lam, b, a) is the third-order expansion of G^2 at x_c in the
    form x_c + lam*h + b*h^2 - a*h^3; nonsymmetry is N = |E''(x_c)/E'(x_c)|.
    g_tables holds G's short series (_g_tables).
    """

    fp: object
    tau: float
    x_c: float
    taylor: tuple
    nonsymmetry: float
    g_tables: tuple

    @property
    def ell(self):
        return self.fp.ell


def _g_tables(fp):
    """G's series e(w) = E(w/tau), w in [0, 1], and three derivatives.

    Column j of the jet table of E re-expanded on [0, 1/tau] keeps the
    shortest head whose dropped tail sums to at most 2^-52 of the column's
    absolute sum, which bounds e^(j)'s error by that share. Item q is
    columns 0..q on their longest head (15, 19, 22, 24 rows for q = 0..3
    at ell = 2; 10, 13, 15, 17 at ell = 20).
    """
    table = cheb.jet_table(cheb.restrict01(fp.e_coeffs, 1.0 / fp.tau), 3)
    tails = np.cumsum(np.abs(table[::-1]), axis=0)[::-1]
    heads = np.sum(tails > 2.0 ** -52 * tails[0], axis=0)
    rows = np.maximum.accumulate(heads)
    return tuple(table[:rows[q], :q + 1] for q in range(4))


def _power_jets(ej, ell):
    """Jets of b^ell from the jets ej = (b, b', ...) of a base map b, up to
    the third derivative."""
    order = len(ej) - 1
    e = ej[0]
    out = [e ** ell]
    if order >= 1:
        e1 = ej[1]
        out.append(ell * e ** (ell - 1) * e1)
    if order >= 2:
        e2 = ej[2]
        out.append(ell * (ell - 1) * e ** (ell - 2) * e1 ** 2
                   + ell * e ** (ell - 1) * e2)
    if order >= 3:
        e3 = ej[3]
        c3 = ell * (ell - 1) * (ell - 2)
        lead = c3 * e ** (ell - 3) * e1 ** 3 if c3 else 0.0
        out.append(lead + 3 * ell * (ell - 1) * e ** (ell - 2) * e1 * e2
                   + ell * e ** (ell - 1) * e3)
    return out


def _G_jets(sys, x, order):
    """G = e^ell and its first `order` (<= 3) derivatives at x in [0, 1],
    from one cheb.eval01 call on G's series."""
    return _power_jets(cheb.eval01(sys.g_tables[order], x), sys.ell)


def _check_domain(x, lo, hi, what):
    x = np.asarray(x)
    if not np.all((lo - _SLACK <= x) & (x <= hi + _SLACK)):
        raise DomainError(f"{what} argument outside [{lo}, {hi}]")


def eval_H(sys, x, deriv_order=0):
    """H or one of its first three derivatives at x in [0,1], on E's full
    series."""
    if not 0 <= deriv_order <= 3:
        raise DomainError(f"deriv_order {deriv_order} outside 0..3")
    _check_domain(x, 0.0, 1.0, "eval_H")
    ej = sys.fp.jets(np.asarray(x, dtype=float), deriv_order)
    return _power_jets(ej, sys.ell)[deriv_order]


def eval_G(sys, x, deriv_order=0):
    """G = H(x/tau) or one of its first three derivatives at x in G's
    domain [0, 1], where G's series is read."""
    if not 0 <= deriv_order <= 3:
        raise DomainError(f"deriv_order {deriv_order} outside 0..3")
    _check_domain(x, 0.0, 1.0, "eval_G")
    return _G_jets(sys, np.asarray(x, dtype=float), deriv_order)[deriv_order]


def jet_compose(outer, inner):
    """Third-order jet of outer∘inner for jets [c1, c2, c3] at a common
    fixed point."""
    f1, f2, f3 = outer
    g1, g2, g3 = inner
    return (f1 * g1,
            f1 * g2 + f2 * g1 ** 2,
            f1 * g3 + 2 * f2 * g1 * g2 + f3 * g1 ** 3)


def build_system(fp):
    """Locate x_c, derive tau and G^2's Taylor data, verify the invariants."""
    e0 = float(fp.E(0.0))
    e1 = float(fp.E(1.0))
    if e0 * e1 >= 0.0:
        raise NoCriticalPoint("E has no sign change on (0,1)")
    x_c = brentq(lambda z: float(fp.E(z)), 0.0, 1.0, xtol=1e-15,
                 maxiter=200)
    tau = fp.tau

    sys = UnimodalSystem(fp, tau, x_c, (0.0, 0.0, 0.0), 0.0, _g_tables(fp))
    _, g1, g2, g3 = (float(v) for v in _G_jets(sys, x_c, 3))
    if not g1 < 0.0:
        raise InvariantViolation(f"G'(x_c) = {g1} is not < 0: period "
                                 "doubling reverses orientation at x_c")

    jet = (g1, g2 / 2.0, g3 / 6.0)
    lam, b2, c3 = jet_compose(jet, jet)
    taylor = (lam, b2, -c3)

    N = abs(float(fp.E(x_c, 2)) / float(fp.E(x_c, 1)))
    sys = replace(sys, taylor=taylor, nonsymmetry=N)

    if abs(float(eval_H(sys, x_c))) >= 1e-10:
        raise InvariantViolation("H(x_c) not 0 within 1e-10")
    if abs(float(eval_H(sys, 0.0)) - 1.0) >= 1e-10:
        raise InvariantViolation("H(0) not 1 within 1e-10")
    if abs(abs(g1) - tau ** (-1.0 / fp.ell)) >= 1e-8:
        raise InvariantViolation("multiplier law |G'(x_c)| = tau^(-1/ell) fails")
    res = conjugacy_residual(sys)
    if res >= 1e-9:
        raise InvariantViolation(f"tau H^2(x) = H(tau x) residual {res:.2e}")
    return sys


def conjugacy_residual(sys):
    """Max of |tau H^2(x) - H(tau x)| over 100 points of [0, 1/tau]."""
    x = np.linspace(0.0, 1.0 / sys.tau, 100)
    hh = eval_H(sys, np.clip(eval_H(sys, x), 0.0, 1.0))
    return float(np.max(np.abs(sys.tau * hh - eval_H(sys, sys.tau * x))))


def critical_orbit(sys, n):
    """Orbit [c_0 ... c_n] with c_0 = x_c and c_{j+1} = H(c_j).

    Drift out of [0,1] up to 1e-12 is clamped (with a warning); anything
    larger raises OrbitEscaped. Since H = E^ell with ell even, H >= 0 and
    drift can only go above 1. Whether any drift happens at all depends on
    floating-point roundoff, so the warning is a guard, not an expected
    event. Each step is H = E^ell from one scalar E call: the loop's own
    escape check replaces eval_H's domain check.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"orbit length must be an integer >= 0, got {n}")
    if n > DEFAULT_ORBIT_MAX:
        raise DomainError(
            f"orbit length {n} exceeds the configured max {DEFAULT_ORBIT_MAX}")
    c = np.empty(n + 1)
    c[0] = sys.x_c
    drift = 0.0
    E, ell = sys.fp.E, sys.fp.ell
    for j in range(n):
        nxt = float(E(c[j]) ** ell)
        if nxt < -_SLACK or nxt > 1.0 + _SLACK:
            raise OrbitEscaped(f"c_{j + 1} = {nxt} left [0,1]")
        if nxt < 0.0 or nxt > 1.0:
            drift = max(drift, max(-nxt, nxt - 1.0))
            nxt = min(max(nxt, 0.0), 1.0)
        c[j + 1] = nxt
    if drift > 0.0:
        warnings.warn(f"critical orbit clamped to [0,1], max drift {drift:.2e}")
    return c


def second_derivative_identity(sys):
    """Relative defect of |(G^2)''(x_c)| = N lam (1 - lam).

    lam is the multiplier of G^2 itself, which is what makes the identity
    exact.
    """
    lam, b, _ = sys.taylor
    lhs = abs(2.0 * b)
    rhs = sys.nonsymmetry * lam * (1.0 - lam)
    return abs(lhs - rhs) / abs(rhs)
