"""Chebyshev basis helpers on [0,1] and interpolation on [a,b].

The fixed-point solver expands E in Chebyshev polynomials of the shifted
variable s = 2u - 1, u in [0,1]; numpy.polynomial.chebyshev does the work.
On Chebyshev-Gauss grids of arbitrary intervals there are two routes to
the same interpolant: interp_matrix, the barycentric cardinal matrix that
maps node values to values at given points (the collocation matrices of
the dimension engine), and gauss_series, the Chebyshev series of the
interpolant, which also differentiates it.
"""
import numpy as np
import numpy.polynomial.chebyshev as _cheb


def gauss_nodes(n):
    """Chebyshev-Gauss nodes on (0,1), descending."""
    k = np.arange(n)
    return 0.5 * (1.0 + np.cos(np.pi * (2 * k + 1) / (2 * n)))


def eval01(coeffs, u):
    """Evaluate a shifted-Chebyshev series at u in [0,1]."""
    return _cheb.chebval(2.0 * np.asarray(u) - 1.0, coeffs)


def der01(coeffs):
    """Coefficients of d/du of a shifted-Chebyshev series (chain factor 2)."""
    return 2.0 * _cheb.chebder(coeffs)


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
