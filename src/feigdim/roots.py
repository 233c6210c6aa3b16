"""Bracketed scalar root finding: Brent's method.

brentq follows R. P. Brent, Algorithms for Minimization without
Derivatives (1973), ch. 4, in the operation order of scipy's Zeros/brentq.c:
the same xpre/xcur/xblk bookkeeping, tolerance and step tests, so on the
same floats it takes the same iterates. Failures are typed.
"""
import math

from .errors import DomainError, NoConvergence, RootNotBracketed

# relative tolerance of every root: 4 eps rounded up, the smallest that
# scipy's brentq accepts and the value every root here used under scipy
_RTOL = 8.9e-16


def _negative(v):
    """signbit(v): True for negative values and -0.0."""
    return math.copysign(1.0, v) < 0.0


def brentq(f, a, b, xtol, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Returns x with f(x) == 0 or a bracket of half-width below
    (xtol + _RTOL |x|) / 2 around it. Raises RootNotBracketed for same-sign
    ends, DomainError for a NaN value of f or xtol <= 0, and NoConvergence,
    carrying |f(x)|, after maxiter steps.
    """
    if xtol <= 0.0:
        raise DomainError(f"brentq xtol {xtol:g} <= 0")

    def fx(x):
        v = float(f(x))
        if math.isnan(v):
            raise DomainError(f"brentq: function value at x={x!r} is NaN")
        return v

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _negative(fpre) == _negative(fcur):
        raise RootNotBracketed(
            f"brentq: f({xpre!r}) = {fpre!r} and f({xcur!r}) = {fcur!r} "
            "have the same sign")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and \
                _negative(fpre) != _negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise NoConvergence(
        f"brentq: no convergence in {maxiter} steps, |f| = {abs(fcur):.3e}",
        residual=abs(fcur))
