import ast
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import Chebyshev, chebval

from feigdim.cheb import (
    cheb_points,
    chop,
    der01,
    eval01,
    fit01,
    gauss_series,
    heads,
    restrict01,
    vander01,
)

from oracles import gauss_bary_weights

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
    bary = interpolator.BarycentricInterpolator(
        nodes, np.exp(nodes), wi=gauss_bary_weights(n))(xs)
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


@settings(derandomize=True, deadline=None, max_examples=150)
@given(coeffs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=41),
       pad=st.integers(0, 3),
       npts=st.sampled_from([1, 4095, 4096, 4097, 3 * 4096 + 5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_series_eval01_is_chebval_bit_for_bit(coeffs, pad, npts, seed):
    # one series, a zero-padded one and an (m, 1) stack, within a block of
    # 4,096 points, at its edge and across several; u is read, never
    # written
    c = np.array(coeffs)
    u = np.random.default_rng(seed).random(npts)
    u[0] = 0.0 if seed % 2 else 1.0
    keep = u.copy()
    want = chebval(2.0 * u - 1.0, c)
    assert np.array_equal(eval01(c, u), want)
    assert np.array_equal(eval01(np.append(c, np.zeros(pad)), u), want)
    assert np.array_equal(eval01(c[:, None], u), want[None])
    assert np.array_equal(u, keep)


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
    got = restrict01(coeffs, 0.0, r)
    want = Chebyshev(coeffs, domain=[0, 1]).convert(domain=[0, r]).coef
    assert got.shape == coeffs.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.sum(np.abs(coeffs))
    u = np.linspace(0.0, 1.0, 1001)
    err = np.abs(eval01(got, u) - eval01(coeffs, r * u))
    assert np.max(err) <= 1e-15 * np.sum(np.abs(coeffs))


def _restrict_0r(c, r):
    """The [0, r] recurrence written with r alone, operation by operation:
    the bits G's series (unimodal._g_tables) is built with."""
    def times_x(s):
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


@pytest.mark.parametrize("r", [1.0, 0.5, 1.0 / 6.26, 1.0 / 18.1])
def test_restrict01_keeps_the_bits_of_the_0_r_case(r):
    # G's series (unimodal._g_tables) is E's on [0, 1/tau]; a stack is
    # re-expanded column by column with the same operations
    stack = _decaying_stack()
    for j in range(stack.shape[1]):
        assert np.array_equal(restrict01(stack[:, j], 0.0, r),
                              _restrict_0r(stack[:, j], r))
        assert np.array_equal(restrict01(stack, 0.0, r)[:, j],
                              _restrict_0r(stack[:, j], r))


_EPS = np.finfo(float).eps
_UNIT = np.linspace(0.0, 1.0, 101)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_restrict01_and_chop_on_random_series(coeffs, ends):
    # the restricted series at u is the series at a + (b - a) u to a few
    # m eps sum|c|, plus the rounding of that argument times sup |p'|
    # (Markov: T_j' <= j^2, times 2 for u); its chop drops a tail of at
    # most 2^-52 of its absolute sum (and never the whole series)
    a, b = sorted(ends)
    assume(a < b)
    c = np.array(coeffs)
    m, j = len(c), np.arange(len(c))
    got = restrict01(c, a, b)
    assert got.shape == c.shape
    want = eval01(c, a + (b - a) * _UNIT)
    bound = 4.0 * m * _EPS * np.sum(np.abs(c)) \
        + 4.0 * _EPS * np.sum(j * j * np.abs(c))
    assert np.max(np.abs(eval01(got, _UNIT) - want)) <= bound
    head = chop(got)
    assert 1 <= len(head) <= m
    assert np.array_equal(head, got[:len(head)])
    scale = np.sum(np.abs(got))
    assert np.sum(np.abs(got[len(head):])) <= 2.0 ** -52 * scale
    err = np.max(np.abs(eval01(head, _UNIT) - eval01(got, _UNIT)))
    assert err <= 2.0 ** -52 * scale + m * _EPS * scale


def test_chop_cuts_a_stack_to_its_longest_column_head():
    # the shortest heads of the columns are 3 and 5 rows; a zero series
    # keeps one row, and heads counts them column by column
    stack = np.zeros((8, 2))
    stack[:3, 0] = [1.0, 0.5, 0.25]
    stack[:5, 1] = [1.0, -1.0, 1.0, -1.0, 1e-3]
    stack[7] = 1e-18
    assert chop(stack[:, 0]).shape == (3,)
    assert chop(stack).shape == (5, 2)
    assert np.array_equal(chop(stack), stack[:5])
    assert chop(np.zeros(6)).shape == (1,)
    # heads gives each column's own head, as chop cuts one series
    assert heads(stack).tolist() == [3, 5]
    assert heads(np.zeros((6, 2))).tolist() == [1, 1]
    assert heads(stack[:, 1]) == len(chop(stack[:, 1]))


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
