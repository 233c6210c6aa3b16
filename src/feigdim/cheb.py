"""Chebyshev basis helpers on [0,1] and interpolation on [a,b].

Every series is a plain array of shifted-Chebyshev coefficients in
s = 2u - 1, u in [0,1] (u = (x - lo) / (hi - lo) on an interval), and only
this module imports numpy.polynomial. eval01 evaluates one series or a
stack of them as numpy's chebval(2u - 1, coeffs), eval_block per _BLOCK
points, the letter stream's kernel too. clenshaw is numpy's Clenshaw loop on a
plain list, for a scalar E on the map's own coefficient lists
(fixedpoint.FixedPointMap). restrict01 re-expands a series or a stack on
any [a, b] over [0,1] and chop (heads) cuts it to the head that matters
to 2^-52: G's short series, its levels in the letter stream and q on them.
The other basis operations are numpy.polynomial.chebyshev's.
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
    time through eval_block, so that no temporary outgrows the cache on the
    long position arrays of a Moran walk. u is only read.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if np.ndim(u) == 0:
        return _cheb.chebval(2.0 * np.asarray(u) - 1.0, coeffs)
    x = np.asarray(u, dtype=float).reshape(-1)
    series = coeffs.reshape(len(coeffs), -1)
    out = np.empty((series.shape[1], x.size))
    rows = 3 if series.shape[1] == 1 else 1 + max(len(series), 2)
    work = np.empty((rows, min(x.size, _BLOCK)))
    work[1] = 1.0
    for start in range(0, x.size, _BLOCK):
        stop = min(start + _BLOCK, x.size)
        s = np.multiply(x[start:stop], 2.0, out=work[2, :stop - start])
        s -= 1.0
        eval_block(series, work[:, :len(s)], out[:, start:stop])
    return out.reshape(coeffs.shape[1:] + np.shape(u))


def eval_block(series, work, out):
    """eval01's kernel, which the letter stream's planned steps also run: an
    (m, k) stack of series at one block's s = 2u - 1 into out's rows. work
    has 1 + max(m, 2) rows of the block's width, 1 in row 1 and s in row 2.
    One series (k = 1) runs chebval, point by point, so the solver and the
    cached records keep their bits (zero padding is exact in Clenshaw's
    recurrence). A stack fills rows 1..m with T_j(s) by the three-term
    recurrence (2s in row 0), then out = series.T @ T: chebval's values to
    roundoff; stacked chebval, one pass per series, ran the certified rows
    at ell 2, 8 and 20 about 1.6x slower.
    """
    if series.shape[1] == 1:
        out[0] = _cheb.chebval(work[2], series[:, 0])
        return
    t = work[1:1 + len(series)]
    if len(t) > 2:
        np.multiply(work[2], 2.0, out=work[0])
        for j in range(2, len(t)):
            np.multiply(work[0], t[j - 1], out=t[j])
            t[j] -= t[j - 2]
    np.matmul(series.T, t, out=out)


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
    table[:, 0] = c
    for j in range(1, order + 1):
        c = der01(c)
        table[:len(c), j] = c
    return table


def restrict01(coeffs, a, b):
    """Shifted-Chebyshev coefficients of u -> p(a + (b - a) u), p the series
    of coeffs (one, or a stack of columns, each on its own a <= b if a and
    b are arrays): numpy's Chebyshev.convert to [a, b], exact up to
    roundoff, by Clenshaw's recurrence on series (2(a + (b - a) u) - 1 is
    (b - a) T_1 + a + b - 1) in a fraction of its milliseconds."""
    c = np.asarray(coeffs, dtype=float)
    shift, scale = a + b - 1.0, b - a

    def times_x(s, f=1.0):  # f x s; f = 1 or 2 scales exactly, and s's top
        out = (f * shift) * s   # coefficient is 0, so nothing spills over
        out[1:2] += (f * scale) * s[0]    # empty for a constant series
        out[2:] += (0.5 * f * scale) * s[1:-1]
        out[:-1] += (0.5 * f * scale) * s[1:]
        return out

    b1, b2 = np.zeros(c.shape), np.zeros(c.shape)
    for t, ck in enumerate(c[::-1]):    # b1 has degree t - 1: t + 1 rows
        np.subtract(times_x(b1[:t + 1], 2.0), b2[:t + 1], out=b2[:t + 1])
        b2[0] += ck
        b1, b2 = b2, b1
    return b1 - times_x(b2)


def heads(coeffs):
    """Per series (a column of a stack), the length of its shortest head
    whose dropped tail sums to at most 2^-52 of its absolute sum, >= 1."""
    tails = np.cumsum(np.abs(coeffs[::-1]), axis=0)[::-1]
    return np.maximum(np.sum(tails > 2.0 ** -52 * tails[0], axis=0), 1)


def chop(coeffs):
    """A series cut to its head (heads); a stack to its longest column's."""
    return coeffs[:np.max(heads(coeffs), initial=1)]


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
