"""Chebyshev basis helpers on [0,1] and interpolation on [a,b].

Every series is a plain array of shifted-Chebyshev coefficients in
s = 2u - 1, u in [0,1] (u = (x - lo) / (hi - lo) on an interval), and only
this module imports numpy.polynomial. eval01 evaluates one series or a
stack of them as numpy's chebval(2u - 1, coeffs), through one loop over
_BLOCK points (see its docstring). clenshaw is numpy's Clenshaw loop on a
plain list, for a scalar E on the map's own coefficient lists
(fixedpoint.FixedPointMap). restrict01 re-expands a series on [0, r] over
[0,1] (G's short series). The other basis operations are
numpy.polynomial.chebyshev's.
On the Chebyshev-Gauss grid of any interval, gauss_series gives the
coefficients of the interpolant through node values; the dimension engine
reads both its collocation rows and its eigenfunction off it.
"""
import numpy as np
import numpy.polynomial.chebyshev as _cheb

_BLOCK = 4096   # points per pass of eval01's loop


def eval01(coeffs, u):
    """Evaluate shifted-Chebyshev series at u in [0,1]: chebval(2u - 1, coeffs).

    coeffs is one series of shape (m,), giving values of u's shape, or a
    stack of k series as columns of shape (m, k), giving shape (k, *u.shape).
    A scalar u runs numpy's chebval. An array u runs _BLOCK points at a
    time, so that no temporary outgrows the cache on the long position
    arrays of a Moran walk, and per block:

    - one series runs numpy's chebval, which works point by point, so the
      solver, its validation defect and the cached records do not move.
      Zero padding at the high end of a series is exact in Clenshaw's
      recurrence, so a padded series gives the unpadded bits.
    - a stack of k >= 2 series shares one table of T_j(2u - 1), built in
      place by the three-term recurrence (two ufunc calls per degree), then
      coeffs.T @ T. Values agree with chebval to roundoff, not bit for bit;
      stacked chebval gives the bits but runs one Clenshaw pass per series
      and makes the certified rows at ell 2, 8 and 20 about 1.6x slower.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if np.ndim(u) == 0:
        return _cheb.chebval(2.0 * np.asarray(u) - 1.0, coeffs)
    x = np.asarray(u, dtype=float).reshape(-1)
    out = np.empty(coeffs.shape[1:] + x.shape)
    stacked = out.ndim == 2 and out.shape[0] > 1
    T = np.empty((len(coeffs), min(x.size, _BLOCK))) if stacked else None
    for start in range(0, x.size, _BLOCK):
        s = 2.0 * x[start:start + _BLOCK] - 1.0
        block = out[..., start:start + len(s)]
        if not stacked:
            block[...] = _cheb.chebval(s, coeffs)
            continue
        t = T[:, :len(s)]
        t[0] = 1.0
        t[1:2] = s      # empty for a stack of constants
        s *= 2.0
        for j in range(2, len(t)):
            np.multiply(s, t[j - 1], out=t[j])
            t[j] -= t[j - 2]
        np.matmul(coeffs.T, t, out=block)
    return out.reshape(coeffs.shape[1:] + np.shape(u))


def clenshaw(c, x):
    """numpy's chebval(x, c) for a list c and a float x, same operations."""
    if len(c) < 3:
        return c[0] + (c[1] if len(c) == 2 else 0) * x
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for ci in c[-3::-1]:
        c0, c1 = ci - c1, c0 + c1 * x2
    return c0 + c1 * x


def der01(coeffs):
    """Coefficients of d/du of a shifted-Chebyshev series (chain factor 2)."""
    return 2.0 * _cheb.chebder(coeffs)


def jet_table(coeffs, order):
    """A shifted-Chebyshev series and its first `order` u-derivatives as the
    zero-padded columns of one (m, order + 1) stack, for eval01."""
    c = np.asarray(coeffs, dtype=float)
    table = np.zeros((len(c), order + 1))
    for j in range(order + 1):
        table[:len(c), j] = c
        c = der01(c)
    return table


def restrict01(coeffs, r):
    """Shifted-Chebyshev coefficients of u -> p(r u), p the series of
    coeffs and 0 < r <= 1: numpy's Chebyshev.convert to [0, r], exact up to
    roundoff, by Clenshaw's recurrence on series (2ru - 1 is r T_1 + r - 1)
    in a fraction of its milliseconds."""
    c = np.asarray(coeffs, dtype=float)

    def times_x(s):     # s's top coefficient is 0, so nothing spills over
        out = (r - 1.0) * s
        out[1] += r * s[0]
        out[2:] += 0.5 * r * s[1:-1]
        out[:-1] += 0.5 * r * s[1:]
        return out

    b1, b2 = np.zeros(len(c)), np.zeros(len(c))
    for ck in c[::-1]:
        b1, b2 = 2.0 * times_x(b1) - b2, b1
        b1[0] += ck
    return b1 - times_x(b2)


def vander01(u, degree):
    """Collocation matrix Phi[i,j] = T_j(2 u_i - 1)."""
    return _cheb.chebvander(2.0 * np.asarray(u) - 1.0, degree)


def fit01(u, y, degree):
    """Least-squares shifted-Chebyshev fit, for solver seeds."""
    return _cheb.chebfit(2.0 * np.asarray(u) - 1.0, y, degree)


def cheb_points(a, b, n):
    """Chebyshev-Gauss grid of n points on [a,b], descending."""
    k = np.arange(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * (2 * k + 1) / (2 * n))


def gauss_series(fvals):
    """Shifted-Chebyshev coefficients of the interpolant through cheb_points.

    fvals[k] is the value at cheb_points(a, b, n)[k], that is at
    u = (1 + cos(theta_k)) / 2 of any interval [a,b]; discrete
    orthogonality of T_j on the Gauss nodes gives the coefficients in
    closed form. eval01 at u = (x - a) / (b - a) evaluates (and der01
    differentiates) the polynomial of degree n - 1 through the node values.
    fvals may be a stack of node-value columns, shape (n, k), giving k
    series as the columns of an (n, k) stack: gauss_series(np.eye(n))
    holds the cardinal functions of the n nodes.
    """
    fvals = np.asarray(fvals, dtype=float)
    n = len(fvals)
    theta = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    coef = (2.0 / n) * (np.cos(np.outer(np.arange(n), theta)) @ fvals)
    coef[0] *= 0.5
    return coef
