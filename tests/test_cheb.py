import numpy as np
import pytest

from feigdim.cheb import (
    bary_weights,
    cheb_points,
    der01,
    eval01,
    fit01,
    gauss_nodes,
    gauss_series,
    interp_matrix,
    vander01,
)


def test_gauss_nodes_inside_unit_interval():
    u = gauss_nodes(12)
    assert u.shape == (12,)
    assert np.all((u > 0.0) & (u < 1.0))


def test_fit_eval_round_trip_on_polynomial():
    u = gauss_nodes(16)
    y = 3.0 - 2.0 * u + 0.5 * u ** 3
    coeffs = fit01(u, y, 8)
    xs = np.linspace(0.0, 1.0, 37)
    got = eval01(coeffs, xs)
    want = 3.0 - 2.0 * xs + 0.5 * xs ** 3
    assert np.max(np.abs(got - want)) < 1e-12


def test_der01_matches_analytic_derivative():
    u = gauss_nodes(20)
    coeffs = fit01(u, np.exp(u), 18)
    dcoeffs = der01(coeffs)
    xs = np.linspace(0.05, 0.95, 21)
    assert np.max(np.abs(eval01(dcoeffs, xs) - np.exp(xs))) < 1e-11


def test_vander_consistent_with_eval():
    u = gauss_nodes(9)
    V = vander01(u, 6)
    coeffs = np.arange(7, dtype=float)
    assert np.allclose(V @ coeffs, eval01(coeffs, u), atol=1e-13)


def test_cheb_points_descending_inside_interval():
    pts = cheb_points(-1.5, 2.5, 17)
    assert np.all((pts > -1.5) & (pts < 2.5))
    assert np.all(np.diff(pts) < 0.0)


def test_barycentric_interpolation_is_spectral():
    n = 24
    nodes = cheb_points(0.0, np.pi, n)
    w = bary_weights(n)
    fvals = np.sin(nodes)
    xs = np.linspace(0.1, 3.0, 50)
    got = interp_matrix(nodes, w, xs) @ fvals
    assert np.max(np.abs(got - np.sin(xs))) < 1e-12


def test_interp_matrix_exact_hit_gives_unit_row():
    nodes = cheb_points(0.0, 1.0, 10)
    w = bary_weights(10)
    M = interp_matrix(nodes, w, np.array([nodes[3], 0.5]))
    row = M[0]
    assert row[3] == 1.0
    assert np.sum(np.abs(row)) == 1.0
    # interpolation rows reproduce function values
    f = nodes ** 2
    assert abs(M[1] @ f - 0.25) < 1e-13


def test_gauss_series_is_the_interpolant():
    a, b, n = 0.2, 0.7, 12
    nodes = cheb_points(a, b, n)
    series = gauss_series(a, b, np.exp(nodes))
    xs = np.linspace(a, b, 41)
    bary = interp_matrix(nodes, bary_weights(n), xs) @ np.exp(nodes)
    assert np.max(np.abs(series(xs) - bary)) < 1e-14
    # a polynomial of degree < n is reproduced with its derivative
    poly = gauss_series(a, b, nodes ** 3 - 2.0 * nodes)
    assert np.max(np.abs(poly(xs) - (xs ** 3 - 2.0 * xs))) < 1e-13
    assert np.max(np.abs(poly.deriv()(xs) - (3.0 * xs ** 2 - 2.0))) < 1e-12
