"""Chebyshev basis helpers on [0,1] and interpolation on [a,b].

The fixed-point solver expands E in Chebyshev polynomials of the shifted
variable s = 2u - 1, u in [0,1]. eval01 is the array kernel for E and its
derivatives, with numpy's chebval(2u - 1, coeffs) as its output
convention; it takes one of two routes, chosen by the shape of its input
(see its docstring), and only a stack of series on an array leaves
chebval's bits. clenshaw is numpy's Clenshaw loop on a plain list, for a
scalar E on the map's own coefficient lists (fixedpoint.FixedPointMap).
The other basis operations are numpy.polynomial.chebyshev's.
On Chebyshev-Gauss grids of arbitrary intervals there are two routes to
the same interpolant: interp_matrix, the barycentric cardinal matrix that
maps node values to values at given points (the collocation matrices of
the dimension engine), and gauss_series, the Chebyshev series of the
interpolant, which also differentiates it.
"""
import numpy as np
import numpy.polynomial.chebyshev as _cheb

_BLOCK = 4096   # points per T-table block of eval01's stacked route


def eval01(coeffs, u):
    """Evaluate shifted-Chebyshev series at u in [0,1]: chebval(2u - 1, coeffs).

    coeffs is one series of shape (m,), giving values of u's shape, or a
    stack of k series as columns of shape (m, k), giving shape (k, *u.shape).
    The route follows the shape:

    - one series, or any series at a scalar u: numpy's chebval, so the
      solver, its validation defect and the cached records do not move.
      Zero padding at the high end of a series is exact in Clenshaw's
      recurrence, so a padded series gives the unpadded bits.
    - a stack of k >= 2 series on an array: one table of T_j(2u - 1)
      serves every series. It is built in place, _BLOCK points at a time,
      by the three-term recurrence (two ufunc calls per degree), then
      coeffs.T @ T. Values agree with chebval to roundoff, not bit for
      bit; stacked chebval gives the bits but runs one Clenshaw pass per
      series and makes the certified rows at ell 2, 8 and 20 about 1.6x
      slower.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 1 or coeffs.shape[1] == 1 or np.ndim(u) == 0:
        return _cheb.chebval(2.0 * np.asarray(u) - 1.0, coeffs)
    u = np.asarray(u, dtype=float)
    m, k = coeffs.shape
    x = u.reshape(-1)
    out = np.empty((k, x.size))
    T = np.empty((m, min(x.size, _BLOCK)))
    for start in range(0, x.size, _BLOCK):
        t = T[:, :min(_BLOCK, x.size - start)]
        t[0] = 1.0
        if m > 1:
            np.multiply(x[start:start + t.shape[1]], 2.0, out=t[1])
            t[1] -= 1.0
            x2 = 2.0 * t[1]
            for j in range(2, m):
                np.multiply(x2, t[j - 1], out=t[j])
                t[j] -= t[j - 2]
        np.matmul(coeffs.T, t, out=out[:, start:start + t.shape[1]])
    return out.reshape((k,) + u.shape)


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


def bary_weights(n):
    """Barycentric weights for cheb_points, any interval (scale-free)."""
    theta = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    return (-1.0) ** np.arange(n) * np.sin(theta)


def interp_matrix(nodes, weights, pts):
    """Cardinal-function matrix M[i,j] = B_j(pts[i]).

    Interpolation of node values f is then (M @ f)(pts). Points that hit a
    node exactly get the corresponding unit row.
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    diff = pts[:, None] - nodes[None, :]
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights[None, :] / diff
        M = terms / np.sum(terms, axis=1)[:, None]
    rows = np.nonzero(hit.any(axis=1))[0]
    for i in rows:
        M[i] = 0.0
        M[i, np.argmax(hit[i])] = 1.0
    return M


def gauss_series(a, b, fvals):
    """Chebyshev series on [a,b] of the interpolant through cheb_points.

    fvals[k] is the value at cheb_points(a, b, n)[k] = cos(theta_k) mapped
    to [a,b]; discrete orthogonality of T_j on the Gauss nodes gives the
    coefficients in closed form. The series evaluates (and differentiates,
    via .deriv()) the same polynomial barycentric interpolation does.
    """
    fvals = np.asarray(fvals, dtype=float)
    n = len(fvals)
    theta = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    coef = (2.0 / n) * (np.cos(np.outer(np.arange(n), theta)) @ fvals)
    coef[0] *= 0.5
    return _cheb.Chebyshev(coef, domain=[a, b])
