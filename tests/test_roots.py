"""Brent root finder and logsumexp against scipy, and their typed failures.

scipy is the reference only: the comparisons skip where it is absent, and
agree to tolerance, not bit for bit (a build that contracts to FMA may
round differently).
"""
import math

import numpy as np
import pytest

from feigdim.dimension import _PROBE_GRID, _logsumexp, pressure_eigen
from feigdim.errors import DomainError, NoConvergence, RootNotBracketed
from feigdim.roots import brentq

from conftest import solve_ell

RTOL = 8.9e-16      # scipy's rtol for the fixed relative tolerance of brentq


@pytest.fixture(scope="module")
def scipy_brentq():
    return pytest.importorskip("scipy.optimize").brentq


def _agree(scipy_brentq, f, a, b, xtol):
    try:
        want = scipy_brentq(f, a, b, xtol=xtol, rtol=RTOL)
    except RuntimeError:        # scipy's "failed to converge"
        with pytest.raises(NoConvergence):
            brentq(f, a, b, xtol)
        return None
    got = brentq(f, a, b, xtol)
    assert abs(got - want) <= xtol + RTOL * abs(want)
    return got


@pytest.mark.parametrize("ell", [2, 8, 20])
def test_critical_point_root_matches_scipy(scipy_brentq, ell):
    E = solve_ell(ell).E
    x_c = _agree(scipy_brentq, lambda z: float(E(z)), 0.0, 1.0, 1e-15)
    assert abs(float(E(x_c))) <= 1e-12


def test_pressure_root_matches_scipy(scipy_brentq, pm2):
    vals = [pressure_eigen(pm2, t) for t in _PROBE_GRID]
    i = next(j for j in range(len(vals) - 1) if vals[j] > 0.0 >= vals[j + 1])
    _agree(scipy_brentq, lambda t: pressure_eigen(pm2, t),
           _PROBE_GRID[i], _PROBE_GRID[i + 1], 1e-10)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(x) - x, 0.0, 1.5),
    (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
    (lambda x: x ** 9 - 0.3, -0.5, 1.5),
    (lambda x: math.tanh(50.0 * x), -0.9, 0.4),
    (lambda x: (x - 0.4) ** 3, -1.0, 1.0),
    (lambda x: (x - 0.7) ** 2 * (x - 0.2), 0.1, 2.0),
])
@pytest.mark.parametrize("xtol", [1e-15, 1e-12, 1e-6])
def test_smooth_steep_and_flat_roots_match_scipy(scipy_brentq, f, a, b,
                                                 xtol):
    _agree(scipy_brentq, f, a, b, xtol)


def test_exact_endpoint_zero_returns_at_once():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.25

    assert brentq(f, 0.25, 1.0, 1e-12) == 0.25
    assert brentq(f, -1.0, 0.25, 1e-12) == 0.25
    assert len(calls) == 4


def test_same_sign_ends_raise():
    with pytest.raises(RootNotBracketed):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_nan_value_raises_domain_error():
    with pytest.raises(DomainError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12)


def test_maxiter_raises_no_convergence_with_residual():
    with pytest.raises(NoConvergence) as exc:
        brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, 1e-15, maxiter=2)
    assert exc.value.residual > 0.0


@pytest.mark.parametrize("xtol", [0.0, -1e-12])
def test_refused_tolerances_raise_domain_error(xtol):
    with pytest.raises(DomainError):
        brentq(lambda x: x - 0.5, 0.0, 1.0, xtol)


def _logsumexp_cases():
    rng = np.random.default_rng(7)
    cases = [np.array([0.3]), np.array([-700.0]), np.array([2.0, 2.0]),
             np.full(5, -1.5)]
    for n in (3, 40, 1000):
        for spread in (1e-3, 1.0, 30.0, 1e3):
            a = rng.normal(size=n) * spread
            tied = a.copy()
            tied[rng.integers(0, n, size=n // 3 + 1)] = a.max()
            cases += [a, tied, np.round(a)]
    return cases


def test_logsumexp_matches_scipy():
    logsumexp = pytest.importorskip("scipy.special").logsumexp
    for a in _logsumexp_cases():
        want = float(logsumexp(a))
        assert abs(_logsumexp(a) - want) <= 4 * np.spacing(abs(want))
