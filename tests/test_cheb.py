import ast
import pathlib

import numpy as np
import pytest
from numpy.polynomial.chebyshev import Chebyshev, chebval

from feigdim.cheb import (
    cheb_points,
    der01,
    eval01,
    fit01,
    gauss_series,
    restrict01,
    vander01,
)

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "feigdim"


def test_gauss_nodes_inside_unit_interval():
    u = cheb_points(0.0, 1.0, 12)
    assert u.shape == (12,)
    assert np.all((u > 0.0) & (u < 1.0))


def test_fit_eval_round_trip_on_polynomial():
    u = cheb_points(0.0, 1.0, 16)
    y = 3.0 - 2.0 * u + 0.5 * u ** 3
    coeffs = fit01(u, y, 8)
    xs = np.linspace(0.0, 1.0, 37)
    got = eval01(coeffs, xs)
    want = 3.0 - 2.0 * xs + 0.5 * xs ** 3
    assert np.max(np.abs(got - want)) < 1e-12


def test_der01_matches_analytic_derivative():
    u = cheb_points(0.0, 1.0, 20)
    coeffs = fit01(u, np.exp(u), 18)
    dcoeffs = der01(coeffs)
    xs = np.linspace(0.05, 0.95, 21)
    assert np.max(np.abs(eval01(dcoeffs, xs) - np.exp(xs))) < 1e-11


def test_vander_consistent_with_eval():
    u = cheb_points(0.0, 1.0, 9)
    V = vander01(u, 6)
    coeffs = np.arange(7, dtype=float)
    assert np.allclose(V @ coeffs, eval01(coeffs, u), atol=1e-13)


def test_cheb_points_descending_inside_interval():
    pts = cheb_points(-1.5, 2.5, 17)
    assert np.all((pts > -1.5) & (pts < 2.5))
    assert np.all(np.diff(pts) < 0.0)


def test_gauss_series_is_the_interpolant():
    interpolator = pytest.importorskip("scipy.interpolate")
    a, b, n = 0.2, 0.7, 12
    nodes = cheb_points(a, b, n)
    series = gauss_series(np.exp(nodes))
    xs = np.linspace(a, b, 41)
    u = (xs - a) / (b - a)
    bary = interpolator.BarycentricInterpolator(nodes, np.exp(nodes))(xs)
    assert np.max(np.abs(eval01(series, u) - bary)) < 1e-14
    # a polynomial of degree < n is reproduced with its derivative
    poly = gauss_series(nodes ** 3 - 2.0 * nodes)
    assert np.max(np.abs(eval01(poly, u) - (xs ** 3 - 2.0 * xs))) < 1e-13
    dpoly = eval01(der01(poly), u) / (b - a)     # d/dx = (d/du) / (b - a)
    assert np.max(np.abs(dpoly - (3.0 * xs ** 2 - 2.0))) < 1e-12


def _decaying_stack(m=41, k=4, seed=0):
    """k random series with geometrically decaying coefficients, like E's."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)) * 0.7 ** np.arange(m)[:, None]


@pytest.mark.parametrize("shape", [(), (0,), (7,), (3, 5), (10_000,)])
def test_stacked_eval01_matches_chebval_per_column(shape):
    # 10,000 points span three T-table blocks of 4,096
    coeffs = _decaying_stack()
    u = np.random.default_rng(1).random(shape)
    got = eval01(coeffs, u)
    assert got.shape == (coeffs.shape[1],) + shape
    for j in range(coeffs.shape[1]):
        tol = 1e-14 * max(1.0, float(np.sum(np.abs(coeffs[:, j]))))
        want = chebval(2.0 * u - 1.0, coeffs[:, j])
        assert np.all(np.abs(got[j] - want) <= tol)


def test_one_series_on_an_array_is_chebval_bit_for_bit():
    # a one-column stack and a zero-padded series keep chebval's bits, also
    # across the boundaries of eval01's blocks of 4,096 points
    coeffs = _decaying_stack(k=1)
    padded = np.append(coeffs[:, 0], np.zeros(3))
    for shape in ((3, 5), (10_000,)):
        u = np.random.default_rng(2).random(shape)
        want = chebval(2.0 * u - 1.0, coeffs[:, 0])
        assert np.array_equal(eval01(coeffs[:, 0], u), want)
        assert np.array_equal(eval01(coeffs, u), want[None])
        assert np.array_equal(eval01(padded, u), want)


def test_scalar_eval01_is_chebval_bit_for_bit():
    coeffs = _decaying_stack(k=1)[:, 0]
    for u in np.linspace(0.0, 1.0, 2001):
        got = eval01(coeffs, float(u))
        assert type(got) is np.float64
        assert got == chebval(2.0 * np.asarray(u) - 1.0, coeffs)
    for short in (coeffs[:1], coeffs[:2]):
        assert eval01(short, 0.3) == chebval(2.0 * np.asarray(0.3) - 1.0, short)
    stack = _decaying_stack(k=3)
    assert np.array_equal(eval01(stack, 0.3),
                          chebval(2.0 * np.asarray(0.3) - 1.0, stack))


@pytest.mark.parametrize("r", [1.0, 0.5, 1.0 / 6.26, 1.0 / 18.1])
def test_restrict01_is_the_convert_re_expansion(r):
    # u -> p(r u) on [0,1] is p on [0, r]: numpy's convert to roundoff,
    # and the same values at every u
    coeffs = _decaying_stack(k=1)[:, 0]
    got = restrict01(coeffs, r)
    want = Chebyshev(coeffs, domain=[0, 1]).convert(domain=[0, r]).coef
    assert got.shape == coeffs.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.sum(np.abs(coeffs))
    u = np.linspace(0.0, 1.0, 1001)
    err = np.abs(eval01(got, u) - eval01(coeffs, r * u))
    assert np.max(err) <= 1e-15 * np.sum(np.abs(coeffs))


def test_only_cheb_imports_numpy_polynomial():
    # every series is a coefficient array that cheb alone evaluates
    users = set()
    for path in _SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = ["numpy." + node.attr]     # np.polynomial.chebyshev
            else:
                continue
            if any(name.startswith("numpy.polynomial") for name in names):
                users.add(path.name)
    assert users == {"cheb.py"}


def test_no_module_switches_floating_point_warnings_off():
    # pytest turns RuntimeWarning into an error, so it sees every overflow,
    # invalid or divide warning src raises only if no module silences one
    switches = {"errstate", "seterr", "simplefilter", "filterwarnings"}
    modules = sorted(_SRC.glob("*.py"))
    assert len(modules) > 1
    users = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in switches:
                users.add(f"{path.name}:{node.lineno}")
    assert not users
